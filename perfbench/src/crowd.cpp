// `crowd`: one op builds the class-aggregate follower oracle for a large
// budget pool, solves it at seeded prices, and runs the sampled audit on
// the answer. Set-up generates two pools of kPoolSize budgets, one with 8
// and one with 64 budget classes, miners in random order. One op in four
// uses the 8-class pool, so the median and the 90th percentile both fall
// inside the 64-class ops instead of on the gap between the two pools'
// latencies. Modes alternate in blocks of four ops.
//
// The only non-default solver knob is SolveContext::aggregate: without the
// opt-in, a heterogeneous pool this size dispatches to the dense solver.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/aggregate_oracle.hpp"
#include "core/audit.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "core/sp.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace perfbench {
namespace {

using hecmine::core::EdgeMode;
namespace core = hecmine::core;
namespace support = hecmine::support;

// 10^6 miners would hold a run to well under 100 ops; 3 x 10^5 keeps the
// same per-op shape (bucketing, oracle build and audit dominate; the solve
// is O(K)) at about a tenth of a second per op.
constexpr std::size_t kPoolSize = 300000;
constexpr int kAuditedMiners = 16;
constexpr double kAuditTol = 1e-6;  // hecmine_cli --audit-tol default

struct CrowdAnswer {
  core::Prices prices;
  core::EquilibriumProfile profile;
  core::AuditReport report;
};

std::uint64_t digest_of(const CrowdAnswer& answer) {
  Digest digest;
  digest.add(answer.prices.edge);
  digest.add(answer.prices.cloud);
  digest.add(answer.profile.totals.edge);
  digest.add(answer.profile.totals.cloud);
  digest.add(answer.profile.surcharge);
  for (const core::MinerRequest& request : answer.profile.requests) {
    digest.add(request.edge);
    digest.add(request.cloud);
  }
  return digest.value();
}

class Crowd final : public Workload {
 public:
  Crowd(std::uint64_t seed, int threads)
      : seed_(seed), strata_(seed, 3), threads_(threads) {}

  void setup() override {
    support::Rng rng(mix64(seed_ ^ 0x63726f7764ULL));
    const int class_counts[2] = {8, 64};
    for (int p = 0; p < 2; ++p) {
      const int classes = class_counts[p];
      // One class budget per stratum of [5, 500): distinct by construction.
      std::vector<double> class_budgets(static_cast<std::size_t>(classes));
      for (int k = 0; k < classes; ++k)
        class_budgets[static_cast<std::size_t>(k)] =
            5.0 + 495.0 * (k + rng.uniform()) / classes;
      core::Scenario& scenario = pools_[p];
      scenario.budgets.resize(kPoolSize);
      for (double& budget : scenario.budgets)
        budget = class_budgets[rng.uniform_index(
            static_cast<std::uint64_t>(classes))];
    }
    (void)op(0, threads_, nullptr, nullptr);
  }

  OpResult run(std::size_t index) override {
    const Clock::time_point start = Clock::now();
    const CrowdAnswer answer = op(index, threads_, nullptr, nullptr);
    OpResult out;
    out.ms = ms_between(start, Clock::now());
    out.digest = digest_of(answer);
    check(index, answer, out.failures);
    return out;
  }

  OpResult trace(std::size_t index, Tracer& tracer,
                 LayerSamples& samples) override {
    Clock::time_point start = Clock::now();
    const CrowdAnswer reference = op(index, threads_, nullptr, nullptr);
    samples.add("op.untraced_ms", ms_between(start, Clock::now()));
    OpResult out;
    out.digest = digest_of(reference);
    tracer.begin_op(index);
    tracer.span("op", [&] {
      start = Clock::now();
      const CrowdAnswer traced =
          op(index, threads_, nullptr, &tracer, &samples);
      out.ms = ms_between(start, Clock::now());
      samples.add("op.traced_ms", out.ms);
      if (digest_of(traced) != out.digest)
        out.failures.push_back("digest mismatch: traced op differs");
      check(index, traced, out.failures);

      core::ClassPartition partition;
      samples.add("population.bucket_ms",
                  tracer.span("core.partition_budget_classes", [&] {
                    partition =
                        core::partition_budget_classes(pool(index).budgets);
                  }));
      samples.add("population.classes",
                  static_cast<double>(partition.classes.size()));

      support::Telemetry telemetry;
      CrowdAnswer counted;
      tracer.span("counted_pass[threads=1]", [&] {
        const support::TelemetryScope scope(&telemetry);
        counted = op(index, 1, &telemetry, nullptr);
      });
      if (digest_of(counted) != out.digest)
        out.failures.push_back(
            "digest mismatch: counted threads=1 pass differs from the "
            "timed op");
      samples.add_work(telemetry.work.total());
    });
    return out;
  }

  [[nodiscard]] WorkloadInfo info() const override {
    WorkloadInfo info;
    info.description =
        "class-aggregate oracle build + solve + sampled audit (" +
        std::to_string(kAuditedMiners) + " miners) over " +
        std::to_string(kPoolSize) +
        " shuffled budgets; K=8 on 1 op in 4, else K=64; modes alternate "
        "every 4 ops; threads=" +
        std::to_string(threads_);
    char line[200];
    std::snprintf(line, sizeof line,
                  "leader-optimality gaps (not gated): edge max %.1f%%, "
                  "cloud max %.1f%% of the SP's profit over %zu audits",
                  100.0 * max_gap_edge_, 100.0 * max_gap_cloud_, audits_);
    info.notes.emplace_back(line);
    return info;
  }

 private:
  [[nodiscard]] core::Scenario& pool(std::size_t index) {
    return pools_[index % 4 == 0 ? 0 : 1];
  }

  /// One op: oracle build, solve, sampled audit. `tracer` and `samples`
  /// are set on the traced pass only.
  CrowdAnswer op(std::size_t index, int threads, support::Telemetry* sink,
                 Tracer* tracer, LayerSamples* samples = nullptr) {
    core::Scenario& scenario = pool(index);
    scenario.mode =
        (index / 4) % 2 == 0 ? EdgeMode::kConnected : EdgeMode::kStandalone;
    CrowdAnswer answer;
    answer.prices.edge = strata_.at(index, 0, 5.0, 8.0);
    answer.prices.cloud = strata_.at(index, 1, 1.8, 2.6);
    core::SolveContext context;
    context.threads = threads;
    context.telemetry = sink;
    context.aggregate.dispatch_threshold = 1;
    std::unique_ptr<core::FollowerOracle> oracle;
    const double build_ms =
        timed_call(tracer, "core.make_follower_oracle", [&] {
          oracle = core::make_follower_oracle(
              scenario.params, scenario.budgets, scenario.mode, context);
        });
    const double solve_ms = timed_call(tracer, "core.FollowerOracle::solve",
                                       [&] {
                                         answer.profile =
                                             oracle->solve(answer.prices);
                                       });
    core::AuditOptions audit_options;
    audit_options.context = context;
    audit_options.max_audited_miners = kAuditedMiners;
    const double audit_ms = timed_call(tracer, "core.audit_equilibrium", [&] {
      answer.report = core::audit_equilibrium(scenario, answer.prices,
                                              answer.profile, audit_options);
    });
    if (samples != nullptr) {
      samples->add("population.build_ms", build_ms);
      samples->add("follower.solve_us.crowd", solve_ms * 1e3);
      samples->add("follower.iterations", answer.profile.iterations);
      samples->add("audit.ms", audit_ms);
      samples->add("audit.worst_violation",
                   core::worst_violation(answer.report));
    }
    return answer;
  }

  void check(std::size_t index, const CrowdAnswer& answer,
             std::vector<std::string>& failures) {
    const std::string where = "crowd op " + std::to_string(index) + ": ";
    const core::EquilibriumProfile& profile = answer.profile;
    if (!profile.converged) failures.push_back(where + "converged == false");
    const double violation = core::worst_violation(answer.report);
    if (!(violation <= kAuditTol)) {
      char line[120];
      std::snprintf(line, sizeof line,
                    "sampled-audit worst_violation %.3e > %.0e", violation,
                    kAuditTol);
      failures.push_back(where + line);
    }
    if (!profile.class_shaped()) {
      failures.push_back(where + "profile is not class-shaped (dispatch)");
    } else {
      // Miner i's request must be its budget class's request.
      const std::vector<double>& budgets = pool(index).budgets;
      const std::vector<double>& keys = profile.classes->budgets;
      for (const std::size_t i : {std::size_t{0}, budgets.size() - 1}) {
        const auto key =
            std::lower_bound(keys.begin(), keys.end(), budgets[i]);
        const core::MinerRequest& request = profile.request(i);
        if (key == keys.end() || *key != budgets[i]) {
          failures.push_back(where + "no budget class for miner " +
                             std::to_string(i));
          continue;
        }
        const core::MinerRequest& expected =
            profile.requests[static_cast<std::size_t>(key - keys.begin())];
        if (request.edge != expected.edge || request.cloud != expected.cloud)
          failures.push_back(where + "request(" + std::to_string(i) +
                             ") differs from its class's request");
      }
    }
    ++audits_;
    const core::SpProfits profits = core::sp_profits(
        pool(index).params, answer.prices, profile.totals);
    if (profits.edge > 0.0)
      max_gap_edge_ = std::max(max_gap_edge_,
                               answer.report.leader_gap_edge / profits.edge);
    if (profits.cloud > 0.0)
      max_gap_cloud_ = std::max(
          max_gap_cloud_, answer.report.leader_gap_cloud / profits.cloud);
  }

  std::uint64_t seed_;
  Strata strata_;
  int threads_;
  core::Scenario pools_[2];
  std::size_t audits_ = 0;
  double max_gap_edge_ = 0.0;
  double max_gap_cloud_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_crowd(std::uint64_t seed, int threads) {
  return std::make_unique<Crowd>(seed, threads);
}

}  // namespace perfbench

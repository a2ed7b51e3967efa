// Follower-stage N-scaling bench: the ClassAggregateOracle from 10^3 to
// 10^6 miners.
//
// Times an end-to-end follower solve (oracle construction — the O(N)
// bucketing pass — plus the O(K) class fixed point) at each pool size in
// --n-list, for a homogeneous pool (K = 1), a few-class heterogeneous pool
// (K = --classes) in connected mode, and the same heterogeneous pool in
// standalone mode (surcharge bisection against the shared edge capacity).
// Every heterogeneous row is audited with the
// EquilibriumAuditor on a sampled miner subset (AuditOptions::
// max_audited_miners), and the worst certificates across all rows ride in
// the ledger's audit block so the bench_compare gate can refuse a perf
// "win" that degrades equilibrium quality.
//
//   --n-list=1000,10000,100000,1000000 --classes=8 --budget=200
//   --repeat=3 --audit-miners=16 --price-edge=2.0 --price-cloud=1.0
//   --perf-sampler (opt-in hardware counters in the telemetry pass)
//
// Emits machine-readable JSON (hecmine.bench.v1) to
// bench_out/BENCH_perf_scale.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/aggregate_oracle.hpp"
#include "core/audit.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "support/error.hpp"
#include "support/health.hpp"
#include "support/json.hpp"
#include "support/openmetrics.hpp"
#include "support/parallel.hpp"
#include "support/provenance.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace hecmine;

struct RunResult {
  std::string label;
  double wall_ms = 0.0;      ///< best-of-repeat build + solve (tracked)
  double wall_ms_p50 = 0.0;  ///< percentiles across the repeat samples
  double wall_ms_p95 = 0.0;
  double solve_ms = 0.0;     ///< best-of-repeat solve only (no bucketing)
  int miners = 0;
  int classes = 0;
  double total_edge = 0.0;
  double total_cloud = 0.0;
  double surcharge = 0.0;
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;
  bool audited = false;
  double audit_gap = 0.0;    ///< sampled best-response gap (audited rows)
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `build()` + solve at `prices` `repeat` times; `build()` returns
/// the oracle so construction (the O(N) part) is inside the clock.
template <typename Build>
RunResult timed_solve(const std::string& label, int repeat,
                      const core::Prices& prices, const Build& build,
                      core::EquilibriumProfile* out = nullptr) {
  RunResult result;
  result.label = label;
  std::vector<double> total_samples;
  std::vector<double> solve_samples;
  total_samples.reserve(static_cast<std::size_t>(repeat));
  solve_samples.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) {
    const double start = now_ms();
    const auto oracle = build();
    const double built = now_ms();
    const core::EquilibriumProfile profile = oracle->solve(prices);
    const double end = now_ms();
    total_samples.push_back(end - start);
    solve_samples.push_back(end - built);
    result.miners = profile.miner_count;
    result.classes = profile.class_shaped()
                         ? static_cast<int>(profile.requests.size())
                         : profile.miner_count;
    result.total_edge = profile.totals.edge;
    result.total_cloud = profile.totals.cloud;
    result.surcharge = profile.surcharge;
    result.converged = profile.converged;
    result.iterations = profile.iterations;
    result.residual = profile.residual;
    if (out != nullptr && i + 1 == repeat) *out = profile;
  }
  result.wall_ms =
      *std::min_element(total_samples.begin(), total_samples.end());
  result.wall_ms_p50 = bench::percentile(total_samples, 0.50);
  result.wall_ms_p95 = bench::percentile(total_samples, 0.95);
  result.solve_ms =
      *std::min_element(solve_samples.begin(), solve_samples.end());
  return result;
}

/// The knobs that shape the workload; persisted in the JSON so the
/// regression gate can refuse to compare runs of different shapes.
struct BenchConfig {
  std::string n_list;
  int classes = 0;
  double budget = 0.0;
  int repeat = 0;
  int audit_miners = 0;
  double price_edge = 0.0;
  double price_cloud = 0.0;
};

std::vector<int> parse_n_list(const std::string& spec) {
  std::vector<int> out;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const long value = std::stol(item);
    HECMINE_REQUIRE(value >= 2 && value <= 10'000'000,
                    "--n-list entries must be in [2, 1e7]");
    out.push_back(static_cast<int>(value));
  }
  HECMINE_REQUIRE(!out.empty(), "--n-list must name at least one pool size");
  return out;
}

/// Few-class heterogeneous pool: budgets cycle through `classes` distinct
/// values spread 10% apart, so partition_budget_classes recovers exactly
/// `classes` classes at every N.
std::vector<double> class_budgets(int n, int classes, double budget) {
  std::vector<double> budgets(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < budgets.size(); ++i)
    budgets[i] =
        budget * (1.0 + 0.1 * static_cast<double>(i % static_cast<std::size_t>(
                                  classes)));
  return budgets;
}

void write_json(const std::string& path, int threads,
                const BenchConfig& config, const std::vector<RunResult>& runs,
                const std::vector<bench::WorkLedgerEntry>& counters,
                const core::AuditReport& audit,
                const support::provenance::RunManifest& manifest) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  HECMINE_REQUIRE(out.good(), "cannot open " + path);
  support::json::Writer writer(out);
  writer.begin_object(support::json::Writer::kBlock);
  writer.member("schema", "hecmine.bench.v1");
  writer.member("bench", "perf_scale");
  writer.key("manifest");
  support::provenance::write(writer, manifest);
  writer.member("hardware_concurrency",
                static_cast<int>(std::thread::hardware_concurrency()));
  writer.member("threads", threads);
  writer.key("config");
  writer.begin_object();
  writer.member("n_list", config.n_list);
  writer.member("classes", config.classes);
  writer.member("budget", config.budget);
  writer.member("repeat", config.repeat);
  writer.member("audit_miners", config.audit_miners);
  writer.member("price_edge", config.price_edge);
  writer.member("price_cloud", config.price_cloud);
  writer.end_object();
  writer.key("runs");
  writer.begin_array(support::json::Writer::kBlock);
  for (const auto& run : runs) {
    writer.begin_object();
    writer.member("label", run.label);
    writer.member("wall_ms", run.wall_ms);
    writer.member("wall_ms_p50", run.wall_ms_p50);
    writer.member("wall_ms_p95", run.wall_ms_p95);
    writer.member("solve_ms", run.solve_ms);
    writer.member("miners", run.miners);
    writer.member("classes", run.classes);
    writer.member("total_edge", run.total_edge);
    writer.member("total_cloud", run.total_cloud);
    writer.member("surcharge", run.surcharge);
    writer.member("converged", run.converged);
    writer.member("iterations", run.iterations);
    writer.member("residual", run.residual);
    if (run.audited) writer.member("audit_gap", run.audit_gap);
    writer.end_object();
  }
  writer.end_array();
  bench::write_counters(writer, counters);
  writer.key("audit");
  writer.begin_object();
  writer.member("best_response_gap", audit.best_response_gap);
  writer.member("capacity_violation", audit.capacity_violation);
  writer.member("min_budget_slack", audit.min_budget_slack);
  writer.member("monotonicity_quotient", audit.monotonicity_quotient);
  writer.member("uniqueness_ok", audit.uniqueness_ok);
  writer.member("converged", audit.converged);
  writer.end_object();
  writer.end_object();
  writer.finish();
  HECMINE_REQUIRE(out.good(), "write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const support::CliArgs args(argc, argv);
  args.apply_log_level();
  bench::BenchDefaults defaults;
  const std::vector<int> n_list =
      parse_n_list(args.get("n-list", std::string("1000,10000,100000,1000000")));
  const int classes = args.get("classes", 8);
  const double budget = args.get("budget", defaults.budget);
  const int repeat = args.get("repeat", 3);
  const int audit_miners = args.get("audit-miners", 16);
  const int threads = support::resolve_thread_count(args.threads());
  HECMINE_REQUIRE(classes >= 1 && classes <= 64,
                  "--classes must be in [1, 64]");

  core::NetworkParams params;
  params.reward = defaults.reward;
  params.fork_rate = defaults.fork_rate;
  params.edge_success = defaults.edge_success;

  // Fixed (arbitrary but interior) leader prices: the bench tracks the
  // follower stage alone, so the prices stay constant across PRs.
  const core::Prices prices{args.get("price-edge", 2.0),
                            args.get("price-cloud", 1.0)};

  const core::MinerSolveOptions solve_options = core::SolveContext{}.follower;

  core::SolveContext audit_context;
  audit_context.threads = threads;

  std::vector<RunResult> runs;
  // Deterministic work accounting: one serial instrumented pass per row,
  // separate from the timed repetitions (those stay sink-free). The
  // oracle solves are deterministic, so one pass is exact, not a sample.
  std::vector<bench::WorkLedgerEntry> counters;
  const auto count_row = [&](const std::string& label, const auto& build) {
    counters.push_back({label, 1, bench::counted_pass([&] {
                          (void)build()->solve(prices);
                        })});
  };
  core::AuditReport worst;  // worst certificates across every audited row
  worst.uniqueness_ok = true;
  worst.converged = true;
  worst.min_budget_slack = std::numeric_limits<double>::infinity();
  worst.monotonicity_quotient = std::numeric_limits<double>::infinity();
  bool any_audited = false;

  const auto audit_row = [&](RunResult& row, const std::vector<double>& budgets,
                             core::EdgeMode mode,
                             const core::EquilibriumProfile& profile) {
    core::Scenario scenario;
    scenario.params = params;
    scenario.mode = mode;
    scenario.budgets = budgets;
    core::AuditOptions options;
    options.context = audit_context;
    options.max_audited_miners = audit_miners;
    const core::AuditReport report =
        core::audit_equilibrium(scenario, prices, profile, options);
    row.audited = true;
    row.audit_gap = report.best_response_gap;
    worst.best_response_gap =
        std::max(worst.best_response_gap, report.best_response_gap);
    worst.capacity_violation =
        std::max(worst.capacity_violation, report.capacity_violation);
    worst.min_budget_slack =
        std::min(worst.min_budget_slack, report.min_budget_slack);
    worst.monotonicity_quotient =
        std::min(worst.monotonicity_quotient, report.monotonicity_quotient);
    worst.uniqueness_ok = worst.uniqueness_ok && report.uniqueness_ok;
    worst.converged = worst.converged && report.converged;
    any_audited = true;
  };

  for (const int n : n_list) {
    const std::string suffix = "/n=" + std::to_string(n);

    // Homogeneous pool through the aggregate path (K = 1): the degenerate
    // class count isolates the bucketing overhead from the fixed point.
    const std::vector<double> uniform(static_cast<std::size_t>(n), budget);
    const auto build_uniform = [&] {
      return std::make_unique<core::ClassAggregateOracle>(
          params, uniform, core::EdgeMode::kConnected, solve_options);
    };
    runs.push_back(timed_solve("connected/uniform" + suffix, repeat, prices,
                               build_uniform));
    count_row("connected/uniform" + suffix, build_uniform);

    // Few-class heterogeneous pool, both edge modes. The profile of the
    // last repetition feeds the sampled audit.
    const std::vector<double> budgets = class_budgets(n, classes, budget);
    const auto build_connected = [&] {
      return std::make_unique<core::ClassAggregateOracle>(
          params, budgets, core::EdgeMode::kConnected, solve_options);
    };
    core::EquilibriumProfile connected_profile;
    runs.push_back(timed_solve("connected/classes" + suffix, repeat, prices,
                               build_connected, &connected_profile));
    count_row("connected/classes" + suffix, build_connected);
    audit_row(runs.back(), budgets, core::EdgeMode::kConnected,
              connected_profile);

    const auto build_standalone = [&] {
      return std::make_unique<core::ClassAggregateOracle>(
          params, budgets, core::EdgeMode::kStandalone, solve_options);
    };
    core::EquilibriumProfile standalone_profile;
    runs.push_back(timed_solve("standalone/classes" + suffix, repeat, prices,
                               build_standalone, &standalone_profile));
    count_row("standalone/classes" + suffix, build_standalone);
    audit_row(runs.back(), budgets, core::EdgeMode::kStandalone,
              standalone_profile);

    // Lazy expansion stays O(1) per miner: touch both ends of the pool.
    HECMINE_REQUIRE(
        connected_profile.request(0).edge >= 0.0 &&
            connected_profile.request(static_cast<std::size_t>(n) - 1).edge >=
                0.0 &&
            std::isfinite(connected_profile.utility(
                static_cast<std::size_t>(n) / 2)),
        "lazy per-miner expansion produced a malformed request");
  }

  for (const auto& run : runs)
    HECMINE_REQUIRE(run.converged,
                    "follower solve did not converge: " + run.label);

  support::Table table({"run", "n", "classes", "wall_ms", "solve_ms",
                        "iterations", "audit_gap"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    table.add_row({static_cast<double>(i), static_cast<double>(run.miners),
                   static_cast<double>(run.classes), run.wall_ms, run.solve_ms,
                   static_cast<double>(run.iterations), run.audit_gap});
  }
  for (std::size_t i = 0; i < runs.size(); ++i)
    std::cout << "run " << i << ": " << runs[i].label << "\n";
  bench::emit("BENCH_perf_scale_runs", table);

  HECMINE_REQUIRE(any_audited, "no heterogeneous row was audited");

  support::provenance::RunManifest manifest =
      support::provenance::collect(threads, core::SolveContext{}.rng_root,
                                   argc, argv);
  support::prof::PerfSampler perf_sampler;
  if (args.has("perf-sampler")) perf_sampler.open();
  manifest.perf_sampler = perf_sampler.status();

  BenchConfig config;
  config.n_list = args.get("n-list", std::string("1000,10000,100000,1000000"));
  config.classes = classes;
  config.budget = budget;
  config.repeat = repeat;
  config.audit_miners = audit_miners;
  config.price_edge = prices.edge;
  config.price_cloud = prices.cloud;
  write_json("bench_out/BENCH_perf_scale.json", threads, config, runs,
             counters, worst, manifest);
  std::cout << "[json] bench_out/BENCH_perf_scale.json\n";

  // Telemetry/trace pass, separate from the timed runs (those stay
  // sink-free): one solve of the largest heterogeneous pool with the sink
  // attached exports the oracle.aggregate.* spans and metrics, and the
  // Chrome Trace Event timeline when requested.
  const std::string telemetry_path = args.telemetry_out();
  const std::string trace_path = args.trace_out();
  const std::string iteration_log_path = args.iteration_log();
  const std::string metrics_path = args.metrics_out();
  if (!telemetry_path.empty() || !trace_path.empty() ||
      !iteration_log_path.empty() || !metrics_path.empty()) {
    support::Telemetry telemetry;
    telemetry.manifest = manifest;
    if (perf_sampler.live()) telemetry.trace.set_perf_sampler(&perf_sampler);
    if (!iteration_log_path.empty())
      telemetry.probe.stream_to(iteration_log_path, &telemetry.manifest);
    // Observe-only health watchdog on the instrumented pass: the bench
    // gathers evidence without warnings or aborts.
    support::health::HealthOptions health_options;
    health_options.action = support::health::WatchdogAction::kObserve;
    support::health::HealthMonitor health_monitor(telemetry, health_options);
    const std::vector<double> budgets =
        class_budgets(n_list.back(), classes, budget);
    core::SolveContext context = audit_context;
    context.telemetry = &telemetry;
    const auto oracle = core::make_follower_oracle(
        params, budgets, core::EdgeMode::kConnected, context);
    (void)oracle->solve(prices);
    if (!telemetry_path.empty()) {
      support::write_json(telemetry, telemetry_path);
      support::print_summary(std::cout, telemetry);
      std::cout << "[telemetry] " << telemetry_path << "\n";
    }
    if (!trace_path.empty()) {
      support::write_chrome_trace(telemetry, trace_path);
      std::cout << "[trace] " << trace_path << " ("
                << telemetry.trace.thread_count() << " tracks)\n";
    }
    if (!iteration_log_path.empty()) {
      std::cout << "[iteration-log] " << iteration_log_path << " ("
                << telemetry.probe.total() << " records)\n";
    }
    std::cout << "[health] " << health_monitor.incidents() << " incidents\n";
    if (!metrics_path.empty()) {
      support::write_openmetrics(telemetry, metrics_path);
      std::cout << "[metrics] " << metrics_path << "\n";
    }
  }

  std::cout << "largest pool n=" << n_list.back() << "  worst audit gap "
            << worst.best_response_gap << "\n";
  return 0;
}

// Leader-stage performance bench: serial vs parallel price scans, with and
// without the follower-equilibrium cache.
//
// Times solve_leader_stage_homogeneous (connected mode — Algorithm 1's
// hot path: every scanned price triggers a full symmetric follower solve)
// and the heterogeneous solve_leader_stage (full-profile NEP per price)
// under four configurations, checks they agree on the equilibrium prices,
// and emits machine-readable JSON to bench_out/BENCH_leader_stage.json so
// the perf trajectory is tracked across PRs.
//
//   --miners=N --budget=B --grid=G --threads=T (0 = auto) --repeat=R
//   --perf-sampler (opt-in hardware counters in the telemetry pass)
//
// Thread speedup scales with the host's cores (a 1-core CI box reports
// ~1x); the cache hit rate does not depend on the host.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/audit.hpp"
#include "core/equilibrium_cache.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "core/sp.hpp"
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
  double wall_ms = 0.0;        ///< best-of-repeat (the tracked number)
  double wall_ms_p50 = 0.0;    ///< percentiles across the repeat samples
  double wall_ms_p95 = 0.0;
  double price_edge = 0.0;
  double price_cloud = 0.0;
  double profit_total = 0.0;
  int rounds = 0;
  bool converged = false;
  core::FollowerCacheStats cache;
  std::size_t cache_capacity = 0;
  bool cached = false;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Solve>
RunResult timed_run(const std::string& label, int repeat, bool cached,
                    std::size_t cache_capacity, const Solve& solve) {
  RunResult result;
  result.label = label;
  result.cached = cached;
  result.cache_capacity = cached ? cache_capacity : 0;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) {
    core::FollowerEquilibriumCache cache(cache_capacity);  // fresh per rep
    const double start = now_ms();
    const auto solved = solve(cached ? &cache : nullptr);
    samples.push_back(now_ms() - start);
    result.price_edge = solved.prices.edge;
    result.price_cloud = solved.prices.cloud;
    result.profit_total = solved.profits.edge + solved.profits.cloud;
    result.rounds = solved.rounds;
    result.converged = solved.converged;
    if (cached) result.cache = cache.stats();
  }
  // Best-of-repeat stays the headline number (least scheduler noise); the
  // percentiles feed the regression ledger's noise model.
  result.wall_ms = *std::min_element(samples.begin(), samples.end());
  result.wall_ms_p50 = bench::percentile(samples, 0.50);
  result.wall_ms_p95 = bench::percentile(samples, 0.95);
  return result;
}

/// The knobs that shape the workload; persisted in the JSON so the
/// regression gate can refuse to compare runs of different shapes.
struct BenchConfig {
  int miners = 0;
  double budget = 0.0;
  int grid = 0;
  int repeat = 0;
  int hetero_miners = 0;
  int max_rounds = 0;
};

void write_json(const std::string& path, int threads,
                const BenchConfig& config, const std::vector<RunResult>& runs,
                const std::vector<bench::WorkLedgerEntry>& counters,
                const core::AuditReport& audit,
                const support::provenance::RunManifest& manifest) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  HECMINE_REQUIRE(out.good(), "cannot open " + path);
  const auto find = [&](const std::string& label) -> const RunResult& {
    for (const auto& run : runs)
      if (run.label == label) return run;
    throw support::PreconditionError("missing run: " + label);
  };
  const auto& serial = find("homogeneous/serial");
  const auto& parallel = find("homogeneous/parallel");
  const auto& parallel_cache = find("homogeneous/parallel+cache");
  support::json::Writer writer(out);
  writer.begin_object(support::json::Writer::kBlock);
  writer.member("schema", "hecmine.bench.v1");
  writer.member("bench", "leader_stage");
  writer.key("manifest");
  support::provenance::write(writer, manifest);
  writer.member("hardware_concurrency",
                static_cast<int>(std::thread::hardware_concurrency()));
  writer.member("threads", threads);
  writer.key("config");
  writer.begin_object();
  writer.member("miners", config.miners);
  writer.member("budget", config.budget);
  writer.member("grid", config.grid);
  writer.member("repeat", config.repeat);
  writer.member("hetero_miners", config.hetero_miners);
  writer.member("max_rounds", config.max_rounds);
  writer.end_object();
  writer.key("runs");
  writer.begin_array(support::json::Writer::kBlock);
  for (const auto& run : runs) {
    writer.begin_object();
    writer.member("label", run.label);
    writer.member("wall_ms", run.wall_ms);
    writer.member("wall_ms_p50", run.wall_ms_p50);
    writer.member("wall_ms_p95", run.wall_ms_p95);
    writer.member("price_edge", run.price_edge);
    writer.member("price_cloud", run.price_cloud);
    writer.member("profit_total", run.profit_total);
    writer.member("rounds", run.rounds);
    writer.member("converged", run.converged);
    if (run.cached) {
      writer.member("cache_capacity",
                    static_cast<double>(run.cache_capacity));
      writer.member("cache_hits", run.cache.hits);
      writer.member("cache_misses", run.cache.misses);
      writer.member("cache_evictions", run.cache.evictions);
      writer.member("cache_hit_rate", run.cache.hit_rate());
    }
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
  writer.member("speedup_parallel", serial.wall_ms / parallel.wall_ms);
  writer.member("speedup_parallel_cache",
                serial.wall_ms / parallel_cache.wall_ms);
  writer.member("cache_hit_rate", parallel_cache.cache.hit_rate());
  writer.end_object();
  writer.finish();
  HECMINE_REQUIRE(out.good(), "write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const support::CliArgs args(argc, argv);
  args.apply_log_level();
  bench::BenchDefaults defaults;
  const int n = args.get("miners", defaults.miners);
  const double budget = args.get("budget", defaults.budget);
  const int repeat = args.get("repeat", 3);
  const int threads = support::resolve_thread_count(args.threads());

  core::NetworkParams params;
  params.reward = defaults.reward;
  params.fork_rate = defaults.fork_rate;
  params.edge_success = defaults.edge_success;

  core::SpSolveOptions base;
  base.grid_points = args.get("grid", 40);
  // The simultaneous price game cycles (Theorem 4: no pure NE), so no round
  // cap makes the raw best-response scan converge — every tracked row ends
  // in the sequential construction. The scan stops at the first exact
  // repeat of its prices, well before the cap; the cap is still a config
  // knob so the ledger records the workload it actually ran.
  base.max_rounds = args.get("max-rounds", 60);
  const std::size_t cache_capacity =
      core::FollowerEquilibriumCache::recommended_capacity(base.max_rounds,
                                                           base.grid_points);

  const auto homogeneous = [&](int run_threads) {
    return [&, run_threads](core::FollowerEquilibriumCache* cache) {
      core::SpSolveOptions options = base;
      options.context.threads = run_threads;
      options.context.cache = cache;
      return core::solve_leader_stage_homogeneous(
          params, budget, n, core::EdgeMode::kConnected, options);
    };
  };
  // Full-profile NEP solves are far costlier than the symmetric fixed
  // point, so the heterogeneous timing uses a smaller pool by default.
  const int hetero_n = args.get("hetero-miners", 3);
  std::vector<double> budgets(static_cast<std::size_t>(hetero_n), budget);
  for (std::size_t i = 0; i < budgets.size(); ++i)
    budgets[i] *= 1.0 + 0.1 * static_cast<double>(i);  // heterogeneous
  const auto heterogeneous = [&](int run_threads) {
    return [&, run_threads](core::FollowerEquilibriumCache* cache) {
      core::SpSolveOptions options = base;
      options.context.threads = run_threads;
      options.context.cache = cache;
      // Let the sequential cycle fallback run so the tracked rows report
      // a converged equilibrium (Theorem 4's construction) instead of the
      // scan's honest-but-alarming converged=false.
      return core::solve_leader_stage(params, budgets,
                                      core::EdgeMode::kConnected, options);
    };
  };

  // Kernel-layer ablation: the same heterogeneous workload with the
  // batched SoA sweep drivers disabled (legacy per-miner std::function
  // machinery with O(n^2) opponent re-aggregation). The scalar closed
  // forms are shared either way, so the row isolates the batching layer.
  const auto heterogeneous_legacy = [&](int run_threads) {
    return [&, run_threads](core::FollowerEquilibriumCache* cache) {
      core::SpSolveOptions options = base;
      options.context.threads = run_threads;
      options.context.cache = cache;
      options.follower.use_kernels = false;
      return core::solve_leader_stage(params, budgets,
                                      core::EdgeMode::kConnected, options);
    };
  };

  std::vector<RunResult> runs;
  runs.push_back(timed_run("homogeneous/serial", repeat, false,
                           cache_capacity, homogeneous(1)));
  runs.push_back(timed_run("homogeneous/parallel", repeat, false,
                           cache_capacity, homogeneous(threads)));
  runs.push_back(timed_run("homogeneous/serial+cache", repeat, true,
                           cache_capacity, homogeneous(1)));
  runs.push_back(timed_run("homogeneous/parallel+cache", repeat, true,
                           cache_capacity, homogeneous(threads)));
  runs.push_back(timed_run("heterogeneous/serial", 1, false,
                           cache_capacity, heterogeneous(1)));
  runs.push_back(timed_run("heterogeneous/parallel+cache", 1, true,
                           cache_capacity, heterogeneous(threads)));
  runs.push_back(timed_run("heterogeneous/serial/kernels-off", 1, false,
                           cache_capacity, heterogeneous_legacy(1)));

  // Thread count never changes the computation: the parallel cache-off run
  // must reproduce the serial one bitwise. The cache snaps solve prices to
  // its quantum, which can shift the terminal iterate along the (flat)
  // payoff plateau — so cached runs are checked economically instead: the
  // SP-side profit must match the serial equilibrium's closely.
  HECMINE_REQUIRE(runs[1].price_edge == runs[0].price_edge &&
                      runs[1].price_cloud == runs[0].price_cloud,
                  "parallel run is not bitwise identical to serial");
  for (const auto& run : runs) {
    if (!run.cached || run.label.rfind("homogeneous/", 0) != 0) continue;
    HECMINE_REQUIRE(
        std::abs(run.profit_total - runs[0].profit_total) <
            5e-3 * std::max(1.0, std::abs(runs[0].profit_total)),
        "configuration " + run.label +
            " diverged economically from the serial equilibrium");
  }

  support::Table table({"run", "wall_ms", "speedup_vs_serial", "cache_hits",
                        "cache_misses", "cache_hit_rate"});
  const double serial_ms = runs[0].wall_ms;
  const double hetero_serial_ms = runs[4].wall_ms;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const double reference =
        run.label.rfind("heterogeneous/", 0) == 0 ? hetero_serial_ms
                                                  : serial_ms;
    table.add_row({static_cast<double>(i), run.wall_ms,
                   reference / run.wall_ms,
                   static_cast<double>(run.cache.hits),
                   static_cast<double>(run.cache.misses),
                   run.cache.hit_rate()});
  }
  for (std::size_t i = 0; i < runs.size(); ++i)
    std::cout << "run " << i << ": " << runs[i].label << "\n";
  bench::emit("BENCH_leader_stage_runs", table);

  // Equilibrium-quality metrics ride along in the ledger: a perf "win"
  // that degrades the solved equilibrium must show up in the same file the
  // regression gate reads. Audited at the homogeneous serial equilibrium.
  core::Scenario audit_scenario;
  audit_scenario.params = params;
  audit_scenario.mode = core::EdgeMode::kConnected;
  audit_scenario.budgets.assign(static_cast<std::size_t>(n), budget);
  const core::Prices equilibrium_prices{runs[0].price_edge,
                                        runs[0].price_cloud};
  core::SolveContext audit_context;
  audit_context.threads = threads;
  const auto audit_profile =
      core::solve_followers(params, equilibrium_prices,
                            audit_scenario.budgets,
                            core::EdgeMode::kConnected, audit_context);
  core::AuditOptions audit_options;
  audit_options.context = audit_context;
  const core::AuditReport audit = core::audit_equilibrium(
      audit_scenario, equilibrium_prices, audit_profile, audit_options);

  // Deterministic work accounting, separate from the timed runs (those
  // stay sink-free): one serial instrumented pass per distinct
  // computation. Serial/parallel label pairs share a pass — the parallel
  // run is asserted bitwise identical above, so its work is by
  // construction the serial pass's work.
  std::vector<bench::WorkLedgerEntry> counters;
  const auto count_labels = [&](std::initializer_list<const char*> labels,
                                bool cached, const auto& solve) {
    const support::prof::WorkCounters work = bench::counted_pass([&] {
      core::FollowerEquilibriumCache cache(cache_capacity);
      (void)solve(cached ? &cache : nullptr);
    });
    for (const char* label : labels) counters.push_back({label, 1, work});
  };
  count_labels({"homogeneous/serial", "homogeneous/parallel"}, false,
               homogeneous(1));
  count_labels({"homogeneous/serial+cache", "homogeneous/parallel+cache"},
               true, homogeneous(1));
  count_labels({"heterogeneous/serial"}, false, heterogeneous(1));
  count_labels({"heterogeneous/parallel+cache"}, true, heterogeneous(1));
  count_labels({"heterogeneous/serial/kernels-off"}, false,
               heterogeneous_legacy(1));

  // Run provenance, embedded in the ledger and every telemetry/trace
  // export so bench_compare can warn when two ledgers came from different
  // builds. The optional perf sampler's state (off / on / unavailable)
  // rides in the manifest so a ledger reveals whether hardware counters
  // were being read during its telemetry pass.
  support::provenance::RunManifest manifest = support::provenance::collect(
      threads, core::SolveContext{}.rng_root, argc, argv);
  support::prof::PerfSampler perf_sampler;
  if (args.has("perf-sampler")) perf_sampler.open();
  manifest.perf_sampler = perf_sampler.status();

  BenchConfig config;
  config.miners = n;
  config.budget = budget;
  config.grid = base.grid_points;
  config.repeat = repeat;
  config.hetero_miners = hetero_n;
  config.max_rounds = base.max_rounds;
  write_json("bench_out/BENCH_leader_stage.json", threads, config, runs,
             counters, audit, manifest);
  std::cout << "[json] bench_out/BENCH_leader_stage.json\n";

  // Telemetry/trace pass: deliberately separate from the timed runs above
  // (those stay sink-free so the tracked numbers measure the solver, not
  // the instrumentation). One extra cached parallel solve with the sink
  // attached produces the machine-readable profile, the per-iteration log
  // and health gauges, and, when requested, the Chrome Trace Event
  // timeline and OpenMetrics snapshot.
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
    // The health watchdog rides the instrumented pass (observe-only: a
    // bench gathers evidence, it should not abort or spam warnings).
    support::health::HealthOptions health_options;
    health_options.action = support::health::WatchdogAction::kObserve;
    support::health::HealthMonitor health_monitor(telemetry, health_options);
    core::FollowerEquilibriumCache cache(cache_capacity);
    core::SpSolveOptions options = base;
    options.context.threads = threads;
    options.context.cache = &cache;
    options.context.telemetry = &telemetry;
    (void)core::solve_leader_stage_homogeneous(
        params, budget, n, core::EdgeMode::kConnected, options);
    core::record_cache_stats(telemetry, cache.stats());
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
  std::cout << "threads=" << threads << "  parallel speedup "
            << serial_ms / runs[1].wall_ms << "x, parallel+cache speedup "
            << serial_ms / runs[3].wall_ms << "x (hit rate "
            << runs[3].cache.hit_rate() << ")\n";
  return 0;
}

// Leader-stage performance bench: serial vs parallel price scans.
//
// Times solve_leader_stage_homogeneous (connected mode — Algorithm 1's
// hot path: every scanned price triggers a one-class follower solve) and
// the heterogeneous solve_leader_stage (a class fixed point per price),
// each serial and at --threads, asserts every parallel row bitwise equal
// to its serial row, and emits machine-readable JSON to
// bench_out/BENCH_leader_stage.json so the perf trajectory is tracked
// across PRs.
//
//   --miners=N --budget=B --grid=G --threads=T (0 = auto) --repeat=R
//   --hetero-miners=H --max-rounds=M
//   --perf-sampler (opt-in hardware counters in the telemetry pass)
//
// Thread speedup scales with the host's cores (a 1-core CI box reports
// ~1x); the answers and work counters do not depend on the host.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/audit.hpp"
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
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Solve>
RunResult timed_run(const std::string& label, int repeat, const Solve& solve) {
  RunResult result;
  result.label = label;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) {
    const double start = now_ms();
    const auto solved = solve();
    samples.push_back(now_ms() - start);
    result.price_edge = solved.prices.edge;
    result.price_cloud = solved.prices.cloud;
    result.profit_total = solved.profits.edge + solved.profits.cloud;
    result.rounds = solved.rounds;
    result.converged = solved.converged;
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

  const auto homogeneous = [&](int run_threads) {
    return [&, run_threads] {
      core::SpSolveOptions options = base;
      options.context.threads = run_threads;
      return core::solve_leader_stage_homogeneous(
          params, budget, n, core::EdgeMode::kConnected, options);
    };
  };
  // Class fixed points are far costlier than the exact one-class solve,
  // so the heterogeneous timing uses a smaller pool by default.
  const int hetero_n = args.get("hetero-miners", 3);
  std::vector<double> budgets(static_cast<std::size_t>(hetero_n), budget);
  for (std::size_t i = 0; i < budgets.size(); ++i)
    budgets[i] *= 1.0 + 0.1 * static_cast<double>(i);  // heterogeneous
  const auto heterogeneous = [&](int run_threads) {
    return [&, run_threads] {
      core::SpSolveOptions options = base;
      options.context.threads = run_threads;
      // Let the sequential cycle fallback run so the tracked rows report
      // a converged equilibrium (Theorem 4's construction) instead of the
      // scan's honest-but-alarming converged=false.
      return core::solve_leader_stage(params, budgets,
                                      core::EdgeMode::kConnected, options);
    };
  };

  std::vector<RunResult> runs;
  runs.push_back(timed_run("homogeneous/serial", repeat, homogeneous(1)));
  runs.push_back(
      timed_run("homogeneous/parallel", repeat, homogeneous(threads)));
  runs.push_back(timed_run("heterogeneous/serial", 1, heterogeneous(1)));
  runs.push_back(
      timed_run("heterogeneous/parallel", 1, heterogeneous(threads)));

  // Rows come in serial/parallel pairs. Thread count never changes the
  // computation: every parallel run must reproduce its serial run bitwise.
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
    const RunResult& serial = runs[i];
    const RunResult& parallel = runs[i + 1];
    HECMINE_REQUIRE(parallel.price_edge == serial.price_edge &&
                        parallel.price_cloud == serial.price_cloud &&
                        parallel.profit_total == serial.profit_total &&
                        parallel.rounds == serial.rounds &&
                        parallel.converged == serial.converged,
                    parallel.label + " is not bitwise identical to " +
                        serial.label);
  }

  support::Table table({"run", "wall_ms", "speedup_vs_serial"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double reference = runs[i - i % 2].wall_ms;  // the serial row
    table.add_row({static_cast<double>(i), runs[i].wall_ms,
                   reference / runs[i].wall_ms});
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
                                const auto& solve) {
    const support::prof::WorkCounters work =
        bench::counted_pass([&] { (void)solve(); });
    for (const char* label : labels) counters.push_back({label, 1, work});
  };
  count_labels({"homogeneous/serial", "homogeneous/parallel"}, homogeneous(1));
  count_labels({"heterogeneous/serial", "heterogeneous/parallel"},
               heterogeneous(1));

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
  // the instrumentation). One extra parallel solve with the sink attached
  // produces the machine-readable profile, the per-iteration log
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
    core::SpSolveOptions options = base;
    options.context.threads = threads;
    options.context.telemetry = &telemetry;
    (void)core::solve_leader_stage_homogeneous(
        params, budget, n, core::EdgeMode::kConnected, options);
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
            << runs[0].wall_ms / runs[1].wall_ms << "x (homogeneous), "
            << runs[2].wall_ms / runs[3].wall_ms << "x (heterogeneous)\n";
  return 0;
}

// hecmine_cli — scenario-file driver for the full library.
//
//   hecmine_cli solve    <scenario-file>             equilibrium + welfare
//   hecmine_cli simulate <scenario-file> [--rounds=N]  replay on the simulator
//   hecmine_cli dynamic  <scenario-file>             Sec. V uncertainty view
//   hecmine_cli campaign <scenario-file> [--blocks=N]  equilibrium campaign
//
// Scenario files are flat key=value text; see examples/scenarios/ and
// core/scenario.hpp for the schema.
//
// --threads=N (or the HECMINE_THREADS environment variable) controls how
// many threads the SP-stage price scans use; 0 (the default) picks the
// hardware concurrency. Results are bitwise identical across thread counts.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chain/blocklog.hpp"
#include "core/audit.hpp"
#include "core/dynamic.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "core/solve_context.hpp"
#include "core/sp.hpp"
#include "core/welfare.hpp"
#include "net/campaign.hpp"
#include "net/campaign_monitor.hpp"
#include "net/network.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/health.hpp"
#include "support/parallel.hpp"
#include "support/provenance.hpp"
#include "support/run_dir.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace hecmine;

struct SolvedScenario {
  core::Prices prices;
  core::EquilibriumProfile followers;
};

/// Solves the scenario's follower stage (and, without fixed prices, the
/// leader stage first), everything routed through the follower-oracle
/// layer. The caller's SolveContext carries the thread count for the
/// SP-stage price scans and the optional telemetry sink.
SolvedScenario solve_scenario(const core::Scenario& scenario,
                              const core::SolveContext& context) {
  SolvedScenario solved;
  if (scenario.fixed_prices) {
    solved.prices = *scenario.fixed_prices;
  } else {
    HECMINE_REQUIRE(scenario.homogeneous(),
                    "SP-stage solve requires homogeneous budgets; set "
                    "price_edge/price_cloud for heterogeneous scenarios");
    core::SpSolveOptions options;
    options.context = context;
    const auto sp = core::solve_leader_stage_homogeneous(
        scenario.params, scenario.budgets.front(), scenario.miners(),
        scenario.mode, options);
    solved.prices = sp.prices;
  }
  solved.followers = core::solve_followers(
      scenario.params, solved.prices, scenario.budgets, scenario.mode, context);
  return solved;
}

int cmd_solve(const core::Scenario& scenario,
              const core::SolveContext& context, bool audit,
              double audit_tol) {
  const auto solved = solve_scenario(scenario, context);
  std::printf("prices: P_e=%.4f P_c=%.4f%s\n", solved.prices.edge,
              solved.prices.cloud,
              scenario.fixed_prices ? " (fixed by scenario)" : " (SP stage)");
  for (std::size_t i = 0; i < scenario.budgets.size(); ++i) {
    std::printf("miner %zu (B=%6.1f): e=%8.4f c=%8.4f U=%8.4f\n", i,
                scenario.budgets[i], solved.followers.request(i).edge,
                solved.followers.request(i).cloud,
                solved.followers.utility(i));
  }
  std::printf("totals: E=%.4f C=%.4f", solved.followers.totals.edge,
              solved.followers.totals.cloud);
  if (scenario.mode == core::EdgeMode::kStandalone) {
    std::printf("  (surcharge mu=%.4f, cap %s)",
                solved.followers.surcharge,
                solved.followers.cap_active ? "ACTIVE" : "slack");
  }
  std::printf("\n");
  const auto welfare =
      core::welfare_report(scenario.params, solved.prices, solved.followers);
  std::printf("welfare: miner surplus %.3f | SP profit %.3f (edge %.3f, "
              "cloud %.3f) | dissipation %.1f%%\n",
              welfare.miner_surplus, welfare.sp_profit(),
              welfare.sp_profit_edge, welfare.sp_profit_cloud,
              100.0 * welfare.dissipation);
  if (audit) {
    core::AuditOptions options;
    options.context = context;
    const core::AuditReport report =
        core::audit_equilibrium(scenario, solved.prices, solved.followers,
                                options);
    core::print_audit(std::cout, report);
    if (context.telemetry != nullptr)
      core::record_audit(*context.telemetry, report);
    // Scriptable gate: any follower-side certificate beyond the tolerance
    // fails the run, so CI can assert on audit quality directly.
    const double worst = core::worst_violation(report);
    if (worst > audit_tol) {
      std::fprintf(stderr,
                   "audit FAILED: worst follower-side violation %.3e exceeds "
                   "tolerance %.3e (--audit-tol)\n",
                   worst, audit_tol);
      return 4;
    }
    std::printf("audit OK: worst follower-side violation %.3e <= %.3e\n",
                worst, audit_tol);
  }
  return 0;
}

int cmd_campaign(const core::Scenario& scenario, std::size_t blocks,
                 std::uint64_t seed, double misprice_edge,
                 const core::SolveContext& context,
                 chain::BlockLogWriter* block_log,
                 net::CampaignMonitor* monitor) {
  HECMINE_REQUIRE(scenario.fixed_prices.has_value(),
                  "campaign command requires fixed prices in the scenario");
  net::CampaignConfig config;
  config.params = scenario.params;
  config.policy.mode = scenario.mode;
  config.policy.success_prob = scenario.params.edge_success;
  config.policy.capacity = scenario.params.edge_capacity;
  config.prices = *scenario.fixed_prices;
  config.population = scenario.population;
  config.blocks = blocks;
  config.telemetry = context.telemetry;
  config.block_log = block_log;
  config.monitor = monitor;
  // The campaign draws the active subset from the population support, so
  // the strategy pool must cover max_miners — pad the budget pool with the
  // scenario's last budget (the trainer uses the same convention).
  std::vector<double> budgets = scenario.budgets;
  if (scenario.population) {
    const auto pool =
        static_cast<std::size_t>(scenario.population->max_miners());
    if (budgets.size() < pool) budgets.resize(pool, budgets.back());
  }
  net::CampaignResult result;
  if (misprice_edge != 1.0) {
    // Drift-injection mode: the auditor's reference stays the equilibrium
    // at the scenario prices, but the miners play the equilibrium of a
    // campaign whose edge price was scaled by the factor — a controlled
    // convergence failure for exercising the campaign drift watchdog.
    const bool connected = scenario.mode == core::EdgeMode::kConnected;
    const double edge_success = connected ? scenario.params.edge_success : 1.0;
    const auto reference = core::solve_followers(
        scenario.params, config.prices, budgets, scenario.mode, context);
    const std::vector<core::MinerRequest> audited = reference.expanded();
    if (monitor != nullptr && !monitor->has_reference())
      monitor->set_reference(audited, scenario.mode,
                             scenario.params.fork_rate, edge_success);
    if (block_log != nullptr) {
      std::vector<chain::Allocation> requests(audited.size());
      for (std::size_t i = 0; i < audited.size(); ++i)
        requests[i] = chain::Allocation{audited[i].edge, audited[i].cloud};
      block_log->write_reference(connected ? "connected" : "standalone",
                                 scenario.params.fork_rate, edge_success,
                                 requests);
    }
    core::Prices played_prices = config.prices;
    played_prices.edge *= misprice_edge;
    const auto played = core::solve_followers(
        scenario.params, played_prices, budgets, scenario.mode, context);
    std::printf("campaign: playing the P_e=%.4f equilibrium against the "
                "P_e=%.4f reference (--misprice-edge=%.3f)\n",
                played_prices.edge, config.prices.edge, misprice_edge);
    result = net::run_campaign(config, played.expanded(), seed);
  } else {
    result =
        net::run_campaign_at_equilibrium(config, budgets, seed, context).result;
  }
  std::printf("campaign: %zu blocks at P_e=%.4f P_c=%.4f "
              "(transfers=%zu rejections=%zu forks=%zu)\n",
              result.blocks_mined, config.prices.edge, config.prices.cloud,
              result.transfers, result.rejections, result.forks);
  std::printf("block intervals: mean %.3f (n=%zu), %zu retargets, final unit "
              "rate %.4f\n",
              result.block_intervals.mean(), result.block_intervals.count(),
              result.retargets, result.final_unit_rate);
  std::printf("realized HHI %.4f over %zu miners\n", result.realized_hhi,
              result.miners.size());
  if (monitor != nullptr) {
    std::printf("campaign drift: max |z| %.3f vs reference (sampler %.3f, "
                "fork %.3f), %llu incidents\n",
                monitor->max_drift_z(), monitor->max_sampler_z(),
                monitor->fork_z(),
                static_cast<unsigned long long>(monitor->incidents()));
  }
  return 0;
}

int cmd_simulate(const core::Scenario& scenario, std::size_t rounds,
                 const core::SolveContext& context) {
  const auto solved = solve_scenario(scenario, context);
  net::EdgePolicy policy;
  policy.mode = scenario.mode;
  policy.success_prob = scenario.params.edge_success;
  policy.capacity = scenario.params.edge_capacity;
  net::MiningNetwork network(scenario.params, policy, solved.prices, 97);
  auto profile = solved.followers.expanded();
  if (scenario.mode == core::EdgeMode::kStandalone) {
    const double total_edge = solved.followers.totals.edge;
    if (total_edge > scenario.params.edge_capacity * (1.0 - 1e-9)) {
      const double shrink =
          scenario.params.edge_capacity * (1.0 - 1e-9) / total_edge;
      for (auto& request : profile) request.edge *= shrink;
    }
  }
  network.run_rounds(profile, rounds);
  std::printf("%zu rounds simulated (transfers=%zu rejections=%zu)\n",
              rounds, network.stats().transfers, network.stats().rejections);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    std::printf("miner %zu: wins=%6zu (rate %.4f)  mean utility %8.4f "
                "(model %8.4f)\n",
                i, network.stats().wins[i],
                static_cast<double>(network.stats().wins[i]) /
                    static_cast<double>(rounds),
                network.stats().utility[i].mean(),
                solved.followers.utility(i));
  }
  std::printf("SP revenue/round: edge %.3f cloud %.3f; ledger height %zu, "
              "fork fraction %.4f\n",
              network.stats().revenue_edge / static_cast<double>(rounds),
              network.stats().revenue_cloud / static_cast<double>(rounds),
              network.ledger().height(), network.ledger().fork_fraction());
  return 0;
}

int cmd_dynamic(const core::Scenario& scenario) {
  HECMINE_REQUIRE(scenario.population.has_value(),
                  "dynamic command requires population_mean in the scenario");
  HECMINE_REQUIRE(scenario.fixed_prices.has_value(),
                  "dynamic command requires fixed prices in the scenario");
  HECMINE_REQUIRE(scenario.homogeneous(),
                  "dynamic command requires homogeneous budgets");
  core::DynamicGameConfig config;
  config.params = scenario.params;
  config.prices = *scenario.fixed_prices;
  config.budget = scenario.budgets.front();
  config.params.edge_success = scenario.edge_success_dynamic;
  const auto& population = *scenario.population;
  const auto dynamic = core::solve_dynamic_symmetric(config, population);
  const auto fixed = core::fixed_population_benchmark(config, population);
  std::printf("population: mean %.2f variance %.2f on [%d, %d]\n",
              population.mean(), population.variance(),
              population.min_miners(), population.max_miners());
  std::printf("dynamic equilibrium: e*=%.4f c*=%.4f (converged=%d)\n",
              dynamic.request.edge, dynamic.request.cloud,
              dynamic.converged ? 1 : 0);
  std::printf("fixed-N benchmark:  e*=%.4f c*=%.4f\n", fixed.edge,
              fixed.cloud);
  std::printf("uncertainty premium on e*: %+.2f%%\n",
              100.0 * (dynamic.request.edge / fixed.edge - 1.0));
  std::printf("expected total edge demand %.3f vs capacity %.1f -> %s\n",
              dynamic.expected_total_edge, scenario.params.edge_capacity,
              dynamic.exceeds_capacity ? "EXCEEDS E_max" : "within E_max");
  return 0;
}

/// `--version`: the run-provenance manifest fields, human-readable.
int cmd_version() {
  const support::provenance::RunManifest manifest =
      support::provenance::collect();
  std::printf("hecmine %s\n", manifest.git_sha.c_str());
  std::printf("build: %s, %s%s%s\n", manifest.build_type.c_str(),
              manifest.compiler.c_str(),
              manifest.sanitizer.empty() ? "" : ", sanitizer=",
              manifest.sanitizer.c_str());
  std::printf("host: %s (%s, %d hardware threads)\n", manifest.host.c_str(),
              manifest.os.c_str(), manifest.hardware_concurrency);
  for (const auto& schema : support::provenance::schema_versions())
    std::printf("schema %s: %s\n", schema.artifact, schema.version);
  return 0;
}

/// The flags `command` reads besides the ones every command reads
/// (--threads, --log-level, --run-dir).
std::vector<std::string> command_flags(const std::string& command) {
  if (command == "solve") return {"audit", "audit-tol"};
  if (command == "simulate") return {"rounds"};
  if (command == "campaign")
    return {"blocks", "campaign-seed", "misprice-edge", "drift-z",
            "block-log-stride", "health"};
  return {};
}

int usage() {
  std::fprintf(
      stderr,
      "usage: hecmine_cli <solve|simulate|dynamic|campaign> <scenario-file> "
      "[--rounds=N] [--blocks=N] [--threads=N] [--log-level=L]\n"
      "                   [--run-dir=DIR] [--block-log-stride=N]\n"
      "                   [--drift-z=Z] [--misprice-edge=F]\n"
      "                   [--health=observe|warn|abort]\n"
      "                   [--audit] [--audit-tol=T]\n"
      "       hecmine_cli --version\n"
      "  A flag the command does not read is an error (exit 2).\n"
      "  --threads=N          threads for the SP-stage price scans; 0 (the\n"
      "                       default) uses all hardware threads. The\n"
      "                       HECMINE_THREADS environment variable provides\n"
      "                       the same override when --threads is absent.\n"
      "                       Results are identical for every thread count.\n"
      "  --log-level=L        debug|info|warn|error (default info); the\n"
      "                       HECMINE_LOG_LEVEL environment variable is the\n"
      "                       fallback when the flag is absent.\n"
      "  --run-dir=DIR        write the run bundle to DIR: manifest.json,\n"
      "                       telemetry.json, trace.json (Perfetto),\n"
      "                       flight.jsonl (live snapshots every 500 ms),\n"
      "                       iterlog.jsonl (per-iteration records, only\n"
      "                       when a solver loop such as the leader price\n"
      "                       scan writes one) and, for the campaign\n"
      "                       command, blocklog.jsonl (one record per\n"
      "                       simulated block); HECMINE_RUN_DIR is the\n"
      "                       fallback. Read it with hecmine_report DIR.\n"
      "  --health=A           campaign drift watchdog policy (campaign\n"
      "                       command): observe (gauges/events only), warn\n"
      "                       (default; log each incident), or abort (exit\n"
      "                       5 at the first incident); HECMINE_HEALTH is\n"
      "                       the fallback.\n"
      "  --block-log-stride=N log every N-th block to blocklog.jsonl\n"
      "                       (default 1).\n"
      "  --drift-z=Z          campaign drift threshold in standard\n"
      "                       deviations (default 4): the campaign monitor\n"
      "                       raises a hecmine.health.v1 incident when an\n"
      "                       empirical win rate drifts beyond Z sigma of\n"
      "                       the reference equilibrium W_i, escalated per\n"
      "                       --health (abort exits 5).\n"
      "  --misprice-edge=F    drift-injection knob (campaign command): play\n"
      "                       the equilibrium of an edge price scaled by F\n"
      "                       while auditing against the scenario-price\n"
      "                       equilibrium. F != 1 makes a healthy campaign\n"
      "                       mis-converge by construction (default 1).\n"
      "  --blocks=N           campaign length in blocks (campaign command,\n"
      "                       default 1000).\n"
      "  --campaign-seed=N    campaign RNG seed (campaign command, default\n"
      "                       97).\n"
      "  --version            print the run-provenance manifest fields (git\n"
      "                       sha, build type, compiler, schema versions).\n"
      "  --audit              audit the solved equilibrium (solve command):\n"
      "                       best-response gap, budget slack, capacity\n"
      "                       violation, Theorem-2 uniqueness check, leader\n"
      "                       optimality gap. Exits 4 when the worst\n"
      "                       follower-side violation exceeds --audit-tol\n"
      "                       (default 1e-6).\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const support::CliArgs args(argc, argv);
  if (args.has("version")) return cmd_version();
  if (args.positional().size() < 2) return usage();
  const std::string command = args.positional()[0];
  const std::string path = args.positional()[1];
  std::vector<std::string> accepted = command_flags(command);
  accepted.insert(accepted.end(), {"threads", "log-level", "run-dir"});
  if (args.reject_unknown_flags(accepted, "hecmine_cli")) return 2;
  try {
    args.apply_log_level();
    const core::Scenario scenario = core::load_scenario(path);
    const std::string run_dir_path = args.run_dir();
    const bool audit = args.has("audit");
    const double audit_tol = args.get("audit-tol", 1e-6);
    support::Telemetry telemetry;
    core::SolveContext context;
    context.threads = args.threads();
    // A sink is attached whenever a consumer needs it: a run bundle or the
    // audit gauges.
    context.telemetry =
        run_dir_path.empty() && !audit ? nullptr : &telemetry;
    // Stamp the run half of the provenance manifest before any export or
    // stream header embeds it.
    telemetry.manifest = support::provenance::collect(
        support::resolve_thread_count(context.threads), context.rng_root,
        argc, argv);
    // The campaign command always carries its statistics monitor: the
    // campaign.* gauges and the equilibrium drift watchdog, escalated per
    // --health, so --health=abort exits 5 on a mis-converged campaign. The
    // monitor is declared before the run bundle, so the bundle's flight
    // recorder, whose event drain reads the monitor, is destroyed first on
    // every path, including typed-error unwinds.
    std::optional<net::CampaignMonitor> campaign_monitor;
    if (command == "campaign") {
      net::CampaignMonitorOptions monitor_options;
      monitor_options.drift_z = args.positive_double("drift-z", 4.0);
      monitor_options.action =
          support::health::parse_watchdog_action(args.health());
      campaign_monitor.emplace(telemetry, monitor_options);
    }
    std::optional<support::RunDir> run_dir;
    std::optional<chain::BlockLogWriter> block_log;
    if (!run_dir_path.empty()) {
      run_dir.emplace(run_dir_path, telemetry);
      if (command == "campaign") {
        run_dir->set_event_drain([&monitor = *campaign_monitor] {
          return monitor.drain_event_lines();
        });
        chain::BlockLogWriter::Options log_options;
        log_options.stride =
            static_cast<std::size_t>(args.positive_int("block-log-stride", 1));
        block_log.emplace(run_dir->path(support::RunDir::kBlockLog),
                          &telemetry.manifest, log_options);
      }
    }

    int status = 2;
    if (command == "solve") {
      status = cmd_solve(scenario, context, audit, audit_tol);
    } else if (command == "simulate") {
      status = cmd_simulate(
          scenario,
          static_cast<std::size_t>(args.positive_int("rounds", 20000)),
          context);
    } else if (command == "dynamic") {
      status = cmd_dynamic(scenario);
    } else if (command == "campaign") {
      status = cmd_campaign(
          scenario, static_cast<std::size_t>(args.positive_int("blocks", 1000)),
          static_cast<std::uint64_t>(args.get("campaign-seed", 97)),
          args.positive_double("misprice-edge", 1.0), context,
          block_log ? &*block_log : nullptr,
          campaign_monitor ? &*campaign_monitor : nullptr);
    } else {
      return usage();
    }

    if (run_dir) run_dir->finish(std::cout);
    return status;
  } catch (const support::health::SolverHealthError& error) {
    // The watchdog abort path: the bundle's flight recorder (destroyed
    // during this unwind) has already flushed the hecmine.health.v1 event.
    std::fprintf(stderr, "error: %s\n", error.what());
    return 5;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

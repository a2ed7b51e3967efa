// Equilibrium auditor + convergence-probe acceptance tests (label:
// audit). The probe-backed test drives a real leader stage with an armed
// IterationProbe streaming JSONL, parses the stream back with the JSON
// reader, and checks the fields every record carries.
#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "core/sp.hpp"
#include "net/campaign.hpp"
#include "net/campaign_monitor.hpp"
#include "rl/trainer.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {
namespace {

NetworkParams default_params() {
  NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 8.0;
  params.cost_edge = 1.0;
  params.cost_cloud = 0.4;
  return params;
}

Scenario make_scenario(std::vector<double> budgets, EdgeMode mode) {
  Scenario scenario;
  scenario.params = default_params();
  scenario.mode = mode;
  scenario.budgets = std::move(budgets);
  return scenario;
}

/// A pool whose price scan settles at a pure equilibrium with the ESP at
/// the price ceiling, so Theorem 4's test keeps the scan.
Scenario ceiling_equilibrium_scenario() {
  Scenario scenario = make_scenario({500.0, 500.0}, EdgeMode::kConnected);
  scenario.params.reward = 50.0;
  scenario.params.cost_edge = 10.0;
  scenario.params.cost_cloud = 0.1;
  return scenario;
}

/// Runs one leader stage with the probe armed and streaming to a temp JSONL
/// file, returns the parsed per-iteration records (header skipped), or
/// nullopt when the stage wrote no file. The follower solves are closed
/// form and record nothing; each round of the price scan records one line,
/// and the log is opened at the first record, so a stage that skips the
/// scan leaves no file.
std::optional<std::vector<support::json::Value>> probe_records(
    const Scenario& scenario, const std::string& tag) {
  const std::string path =
      testing::TempDir() + "/hecmine_iterlog_" + tag + ".jsonl";
  std::remove(path.c_str());
  {
    // Scoped so the probe's stream is closed (and flushed) before the
    // file is read back.
    support::Telemetry telemetry;
    telemetry.probe.stream_to(path);
    SpSolveOptions options;
    options.grid_points = 8;
    options.context.threads = 1;
    options.context.telemetry = &telemetry;
    const LeaderStageResult result = solve_leader_stage(
        scenario.params, scenario.budgets, scenario.mode, options);
    EXPECT_TRUE(result.followers.converged);
  }
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  auto lines = support::json::parse_lines(buffer.str());
  if (lines.empty()) {
    ADD_FAILURE() << "iteration log has no header";
    return lines;
  }
  EXPECT_EQ(lines.front().at("schema").as_string(), "hecmine.iterlog.v1");
  lines.erase(lines.begin());
  return lines;
}

TEST(IterationLog, RecordsCarryPricesAndAggregates) {
  const auto records = probe_records(ceiling_equilibrium_scenario(), "fields");
  ASSERT_TRUE(records.has_value());
  ASSERT_FALSE(records->empty());
  for (const auto& record : *records) {
    EXPECT_EQ(record.at("solver").as_string(), "stackelberg.leader_round");
    EXPECT_GT(record.at("price_edge").as_number(), 0.0);
    EXPECT_GT(record.at("price_cloud").as_number(), 0.0);
    EXPECT_GE(record.at("total_edge").as_number(), 0.0);
    EXPECT_GE(record.at("total_cloud").as_number(), 0.0);
    EXPECT_GE(record.at("iteration").as_number(), 1.0);
    EXPECT_TRUE(record.at("cap_active").is_bool());
  }
}

TEST(IterationLog, TheoremFourPoolWritesNoLeaderRounds) {
  // Theorem 4's test rules out a pure price equilibrium for this pool, so
  // the leader stage runs no price scan, and its follower solves are
  // closed form: nothing is recorded, so no log file is written.
  const auto records = probe_records(
      make_scenario({25.0, 35.0, 45.0}, EdgeMode::kConnected), "theorem4");
  EXPECT_FALSE(records.has_value());
}

// --- auditor on closed-form scenarios -------------------------------------

TEST(Audit, TableIiConnectedEquilibriumPassesAllChecks) {
  // Homogeneous connected scenario: the solver reproduces the Table II /
  // Corollary 1 closed form, so the audit certificate must be clean.
  const Scenario scenario =
      make_scenario(std::vector<double>(5, 200.0), EdgeMode::kConnected);
  const Prices prices{2.0, 1.0};
  SolveContext context;
  const EquilibriumProfile profile = solve_followers(
      scenario.params, prices, scenario.budgets, scenario.mode, context);
  const AuditReport report = audit_equilibrium(scenario, prices, profile);
  EXPECT_TRUE(report.converged);
  EXPECT_LE(report.best_response_gap, 1e-6);
  EXPECT_DOUBLE_EQ(report.capacity_violation, 0.0);
  EXPECT_GE(report.min_budget_slack, -1e-9);
  EXPECT_TRUE(report.uniqueness_ok);
  EXPECT_GT(report.monotonicity_quotient, 0.0);
  ASSERT_EQ(report.budget_slack.size(), 5u);
}

TEST(Audit, BindingBudgetScenarioHasZeroSlack) {
  // Tight budgets: Theorem 3's binding branch spends the budget exactly.
  const Scenario scenario =
      make_scenario(std::vector<double>(5, 10.0), EdgeMode::kConnected);
  const Prices prices{2.0, 1.0};
  const EquilibriumProfile profile =
      solve_followers(scenario.params, prices, scenario.budgets,
                      scenario.mode, SolveContext{});
  const AuditReport report = audit_equilibrium(scenario, prices, profile);
  EXPECT_LE(report.best_response_gap, 1e-6);
  EXPECT_NEAR(report.min_budget_slack, 0.0, 1e-8);
}

TEST(Audit, StandaloneEquilibriumRespectsCapacity) {
  const Scenario scenario =
      make_scenario({25.0, 35.0, 45.0}, EdgeMode::kStandalone);
  const Prices prices{2.2, 1.0};
  const EquilibriumProfile profile =
      solve_followers(scenario.params, prices, scenario.budgets,
                      scenario.mode, SolveContext{});
  const AuditReport report = audit_equilibrium(scenario, prices, profile);
  EXPECT_DOUBLE_EQ(report.capacity_violation, 0.0);
  EXPECT_LE(report.best_response_gap, 1e-5);
}

TEST(Audit, DetectsANonEquilibriumProfile) {
  // Hand the auditor a deliberately wrong profile: the gap certificate
  // must light up even though nothing "failed" in a solver.
  const Scenario scenario =
      make_scenario(std::vector<double>(5, 200.0), EdgeMode::kConnected);
  const Prices prices{2.0, 1.0};
  EquilibriumProfile bogus = solve_followers(
      scenario.params, prices, scenario.budgets, scenario.mode,
      SolveContext{});
  ASSERT_EQ(bogus.requests.size(), 1u);  // one budget class
  bogus.requests[0].edge *= 0.5;  // half the equilibrium edge demand
  bogus.totals.edge *= 0.5;       // one class: totals track the one entry
  const AuditReport report = audit_equilibrium(scenario, prices, bogus);
  EXPECT_GT(report.best_response_gap, 1e-3);
}

TEST(Audit, RejectsMismatchedProfiles) {
  const Scenario scenario =
      make_scenario(std::vector<double>(5, 200.0), EdgeMode::kConnected);
  const Prices prices{2.0, 1.0};
  const Scenario smaller =
      make_scenario(std::vector<double>(3, 200.0), EdgeMode::kConnected);
  const EquilibriumProfile profile =
      solve_followers(smaller.params, prices, smaller.budgets, smaller.mode,
                      SolveContext{});
  EXPECT_THROW((void)audit_equilibrium(scenario, prices, profile),
               support::PreconditionError);
}

TEST(Audit, LeaderGapShrinksAtTheLeaderOptimum) {
  // At non-optimal prices a unilateral rescale improves some SP's profit;
  // the audit exposes that as a positive leader gap. (The converse — a
  // near-zero gap at the scanned optimum — is covered by the CLI smoke,
  // which audits the SP-stage solution.)
  const Scenario scenario =
      make_scenario(std::vector<double>(5, 200.0), EdgeMode::kConnected);
  const Prices low{0.5, 0.25};  // far below revenue-optimal
  const EquilibriumProfile profile =
      solve_followers(scenario.params, low, scenario.budgets, scenario.mode,
                      SolveContext{});
  const AuditReport report = audit_equilibrium(scenario, low, profile);
  EXPECT_GT(std::max(report.leader_gap_edge, report.leader_gap_cloud), 0.0);
}

TEST(Audit, RecordAuditExportsGauges) {
  const Scenario scenario =
      make_scenario(std::vector<double>(5, 200.0), EdgeMode::kConnected);
  const Prices prices{2.0, 1.0};
  const EquilibriumProfile profile =
      solve_followers(scenario.params, prices, scenario.budgets,
                      scenario.mode, SolveContext{});
  const AuditReport report = audit_equilibrium(scenario, prices, profile);
  support::Telemetry telemetry;
  record_audit(telemetry, report);
  EXPECT_DOUBLE_EQ(
      telemetry.metrics.gauge("audit.best_response_gap").value(),
      report.best_response_gap);
  EXPECT_DOUBLE_EQ(
      telemetry.metrics.gauge("audit.capacity_violation").value(),
      report.capacity_violation);
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("audit.uniqueness_ok").value(),
                   report.uniqueness_ok ? 1.0 : 0.0);
}

TEST(Audit, PrintRendersEveryMetric) {
  const Scenario scenario =
      make_scenario(std::vector<double>(5, 200.0), EdgeMode::kConnected);
  const Prices prices{2.0, 1.0};
  const EquilibriumProfile profile =
      solve_followers(scenario.params, prices, scenario.budgets,
                      scenario.mode, SolveContext{});
  std::ostringstream os;
  print_audit(os, audit_equilibrium(scenario, prices, profile));
  const std::string text = os.str();
  for (const char* label :
       {"best_response_gap", "min_budget_slack", "capacity_violation",
        "monotonicity_quotient", "uniqueness_ok", "leader_gap_edge"}) {
    EXPECT_NE(text.find(label), std::string::npos) << label;
  }
}

// The metric names a canonical run emits: the leader stage at threads = 1
// on one homogeneous and one heterogeneous pool in each edge mode and on a
// pool whose price scan settles, then the auditor on each answer with its
// gauges exported. A metric that
// vanishes or appears changes this list, so rename, retire or add metrics
// here on purpose.
const std::vector<std::string> kMetricCatalog = {
    "audit.best_response_gap",
    "audit.capacity_violation",
    "audit.converged",
    "audit.leader_gap_cloud",
    "audit.leader_gap_edge",
    "audit.min_budget_slack",
    "audit.mixed_price_condition",
    "audit.monotonicity_quotient",
    "audit.uniqueness_ok",
    "oracle.aggregate.classes",
    "oracle.nonconverged",
    "oracle.residual_max",
    "oracle.solves",
    "sp.best_response_rounds",
    "sp.leader_solves",
    "sp.sequential_fallbacks",
};

/// Every metric name `telemetry` holds must be in `catalog` and the other
/// way round.
void expect_catalog(const support::Telemetry& telemetry,
                    const std::vector<std::string>& catalog) {
  const support::MetricsSnapshot snapshot = telemetry.metrics.snapshot();
  std::set<std::string> emitted;
  for (const auto& counter : snapshot.counters) emitted.insert(counter.name);
  for (const auto& gauge : snapshot.gauges) emitted.insert(gauge.name);
  for (const auto& histogram : snapshot.histograms)
    emitted.insert(histogram.name);
  const std::set<std::string> expected(catalog.begin(), catalog.end());
  std::string appeared;
  std::string vanished;
  for (const std::string& name : emitted)
    if (expected.count(name) == 0) appeared += " " + name;
  for (const std::string& name : expected)
    if (emitted.count(name) == 0) vanished += " " + name;
  EXPECT_TRUE(appeared.empty() && vanished.empty())
      << "metrics not in the catalog:" << appeared
      << "\ncatalog metrics not emitted:" << vanished;
}

TEST(MetricCatalog, CanonicalRunEmitsTheCheckedInNames) {
  support::Telemetry telemetry;
  SpSolveOptions options;
  options.grid_points = 8;
  options.context.threads = 1;
  options.context.telemetry = &telemetry;
  AuditOptions audit_options;
  audit_options.context = options.context;
  // The canonical pools skip the price scan (Theorem 4); the ceiling
  // equilibrium's pool runs it, so the scan's metrics are emitted too.
  std::vector<Scenario> scenarios{ceiling_equilibrium_scenario()};
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone})
    for (const std::vector<double>& budgets :
         {std::vector<double>(4, 200.0), std::vector<double>{200.0, 220.0}})
      scenarios.push_back(make_scenario(budgets, mode));
  for (const Scenario& scenario : scenarios) {
    const LeaderStageResult result = solve_leader_stage(
        scenario.params, scenario.budgets, scenario.mode, options);
    record_audit(telemetry,
                 audit_equilibrium(scenario, result.prices, result.followers,
                                   audit_options));
  }
  expect_catalog(telemetry, kMetricCatalog);
}

// The metric names of a short campaign as `hecmine_cli campaign --run-dir`
// runs one: the follower solve and the campaign loop on the sink, with the
// campaign monitor (wall clock off, so the one wall-clock gauge stays out)
// attached.
const std::vector<std::string> kCampaignMetricCatalog = {
    "campaign.block",
    "campaign.blocks",
    "campaign.difficulty",
    "campaign.drift_z_max",
    "campaign.effective_miners",
    "campaign.fork_ewma",
    "campaign.fork_model_ewma",
    "campaign.fork_z",
    "campaign.forks",
    "campaign.hhi",
    "campaign.nakamoto",
    "campaign.rejections",
    "campaign.rounds",
    "campaign.sampler_z_max",
    "campaign.sim_time",
    "campaign.transfers",
    "campaign.unit_rate",
    "oracle.aggregate.classes",
    "oracle.nonconverged",
    "oracle.residual_max",
    "oracle.solves",
};

TEST(MetricCatalog, CampaignRunEmitsTheCheckedInNames) {
  support::Telemetry telemetry;
  net::CampaignMonitorOptions monitor_options;
  monitor_options.wall_clock = false;
  net::CampaignMonitor campaign_monitor(telemetry, monitor_options);
  SolveContext context;
  context.threads = 1;
  context.telemetry = &telemetry;
  net::CampaignConfig config;
  config.params = default_params();
  config.policy.mode = EdgeMode::kStandalone;
  config.policy.capacity = config.params.edge_capacity;
  config.prices = {2.0, 1.0};
  config.blocks = 300;
  config.telemetry = &telemetry;
  config.monitor = &campaign_monitor;
  (void)net::run_campaign_at_equilibrium(config, {10.0, 20.0, 30.0}, 97,
                                         context);
  expect_catalog(telemetry, kCampaignMetricCatalog);
}

// The metric names of a short Q-learning run with its telemetry sink set.
const std::vector<std::string> kRlMetricCatalog = {
    "rl.block",
    "rl.block_mean_reward",
    "rl.blocks",
    "rl.mean_greedy_cloud",
    "rl.mean_greedy_edge",
    "rl.training_periods",
};

TEST(MetricCatalog, RlTrainingEmitsTheCheckedInNames) {
  support::Telemetry telemetry;
  rl::TrainerConfig config;
  config.blocks = 200;
  config.edge_steps = 5;
  config.cloud_steps = 5;
  config.telemetry = &telemetry;
  const PopulationModel fixed(4.0, 0.0, 1, 4);
  (void)rl::train_miners(default_params(), {2.0, 1.0}, 12.0, fixed, config,
                         4242);
  expect_catalog(telemetry, kRlMetricCatalog);
}

}  // namespace
}  // namespace hecmine::core

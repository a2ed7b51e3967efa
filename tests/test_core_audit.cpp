// Equilibrium auditor + convergence-probe acceptance tests (label:
// audit). The probe-backed tests drive real solves with an armed
// IterationProbe streaming JSONL, parse the stream back with the JSON
// reader, and check the residual trajectories: a connected-NEP and a
// standalone-GNEP class fixed point both produce monotone (running-min)
// decreasing residual series ending below the solver tolerance.
#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "core/sp.hpp"
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

/// Runs one follower solve with the probe armed and streaming to a temp
/// JSONL file, returns the parsed per-iteration records (header skipped).
std::vector<support::json::Value> probe_records(const Scenario& scenario,
                                                const Prices& prices,
                                                const std::string& tag) {
  const std::string path =
      testing::TempDir() + "/hecmine_iterlog_" + tag + ".jsonl";
  {
    // Scoped so the probe's stream is closed (and flushed) before the
    // file is read back.
    support::Telemetry telemetry;
    telemetry.probe.stream_to(path);
    SolveContext context;
    context.telemetry = &telemetry;
    const auto oracle = make_follower_oracle(
        scenario.params, scenario.budgets, scenario.mode, context);
    const EquilibriumProfile profile = oracle->solve(prices);
    EXPECT_TRUE(profile.converged);
    EXPECT_GT(telemetry.probe.total(), 0u);
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  auto lines = support::json::parse_lines(buffer.str());
  EXPECT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front().at("schema").as_string(), "hecmine.iterlog.v1");
  lines.erase(lines.begin());
  return lines;
}

/// Residual series for one solver label. Solvers that run several nested
/// solves (the GNEP's surcharge search re-solves the class fixed point per
/// mu)
/// contribute one series per solve id; the longest one is the cold-start
/// trajectory whose shape the acceptance criterion describes — warm
/// restarts near the fixed point may converge in a single sweep.
std::vector<double> longest_solve_residuals(
    const std::vector<support::json::Value>& records,
    const std::string& solver) {
  std::map<double, std::vector<double>> by_solve;
  for (const auto& record : records) {
    if (record.at("solver").as_string() != solver) continue;
    by_solve[record.at("solve").as_number()].push_back(
        record.at("residual").as_number());
  }
  std::vector<double> longest;
  for (const auto& [solve, series] : by_solve)
    if (series.size() > longest.size()) longest = series;
  return longest;
}

/// The series must be monotone non-increasing (tiny relative slack for
/// floating-point ties) and end strictly below the solver tolerance.
void expect_decreasing_below(const std::vector<double>& residuals,
                             double tolerance) {
  ASSERT_GE(residuals.size(), 2u);
  for (std::size_t i = 1; i < residuals.size(); ++i) {
    EXPECT_LE(residuals[i], residuals[i - 1] * (1.0 + 1e-12))
        << "residual rose at iteration " << i;
  }
  EXPECT_LT(residuals.back(), tolerance);
  EXPECT_LT(residuals.back(), residuals.front());
}

TEST(IterationLog, ConnectedNepResidualsDecreaseBelowTolerance) {
  // Heterogeneous budgets force the class fixed point (not the one-class
  // solve, which does not iterate).
  const Scenario scenario =
      make_scenario({25.0, 35.0, 45.0}, EdgeMode::kConnected);
  const auto records = probe_records(scenario, {2.0, 1.0}, "nep");
  const auto residuals =
      longest_solve_residuals(records, "aggregate.fixed_point");
  // MinerSolveOptions.nash tolerance is 1e-9; the recorded residual of the
  // converging iteration sits below it.
  expect_decreasing_below(residuals, 1e-9);
}

TEST(IterationLog, StandaloneGnepInnerResidualsDecreaseBelowTolerance) {
  const Scenario scenario =
      make_scenario({25.0, 35.0, 45.0}, EdgeMode::kStandalone);
  const auto records = probe_records(scenario, {2.2, 1.0}, "gnep");
  const auto residuals =
      longest_solve_residuals(records, "aggregate.fixed_point");
  expect_decreasing_below(residuals, 1e-9);
  // The surcharge bisection also reported its trajectory: each probe's
  // records carry the probed surcharge as their step.
  bool saw_bisection = false;
  for (const auto& record : records)
    if (record.at("step").as_number() > 0.0) saw_bisection = true;
  EXPECT_TRUE(saw_bisection);
}

TEST(IterationLog, RecordsCarryPricesAndAggregates) {
  const Scenario scenario =
      make_scenario({25.0, 35.0, 45.0}, EdgeMode::kConnected);
  const auto records = probe_records(scenario, {2.0, 1.0}, "fields");
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    EXPECT_DOUBLE_EQ(record.at("price_edge").as_number(), 2.0);
    EXPECT_DOUBLE_EQ(record.at("price_cloud").as_number(), 1.0);
    EXPECT_GE(record.at("total_edge").as_number(), 0.0);
    EXPECT_GE(record.at("total_cloud").as_number(), 0.0);
    EXPECT_GE(record.at("iteration").as_number(), 0.0);
    EXPECT_TRUE(record.at("cap_active").is_bool());
  }
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
  // near-zero gap at the scanned optimum — is covered by the CLI smoke
  // and the bench ledger, which audit the SP-stage solution.)
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
// on one homogeneous and one heterogeneous pool in each edge mode, then
// the auditor on each answer with its gauges exported. A metric that
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
    "oracle.aggregate.solves",
    "oracle.iterations",
    "oracle.nonconverged",
    "oracle.solve_ms",
    "oracle.solves",
    "sp.best_response_rounds",
    "sp.leader_solves",
    "sp.sequential_fallbacks",
};

TEST(MetricCatalog, CanonicalRunEmitsTheCheckedInNames) {
  support::Telemetry telemetry;
  SpSolveOptions options;
  options.grid_points = 8;
  options.context.threads = 1;
  options.context.telemetry = &telemetry;
  AuditOptions audit_options;
  audit_options.context = options.context;
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    for (const std::vector<double>& budgets :
         {std::vector<double>(4, 200.0), std::vector<double>{200.0, 220.0}}) {
      const Scenario scenario = make_scenario(budgets, mode);
      const LeaderStageResult result =
          solve_leader_stage(scenario.params, budgets, mode, options);
      record_audit(telemetry,
                   audit_equilibrium(scenario, result.prices, result.followers,
                                     audit_options));
    }
  }

  const support::MetricsSnapshot snapshot = telemetry.metrics.snapshot();
  std::set<std::string> emitted;
  for (const auto& counter : snapshot.counters) emitted.insert(counter.name);
  for (const auto& gauge : snapshot.gauges) emitted.insert(gauge.name);
  for (const auto& histogram : snapshot.histograms)
    emitted.insert(histogram.name);
  const std::set<std::string> expected(kMetricCatalog.begin(),
                                       kMetricCatalog.end());
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

}  // namespace
}  // namespace hecmine::core

// Tests for core/closed_forms: Theorem 3, Corollary 1, Table II and their
// agreement with the numerical solvers.
#include "core/closed_forms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/equilibrium.hpp"
#include "core/miner.hpp"
#include "core/oracle.hpp"
#include "core/sp.hpp"
#include "numerics/optimize.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

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

TEST(MixedPriceBound, MatchesFormula) {
  const NetworkParams params = default_params();
  const double bound = mixed_strategy_cloud_price_bound(params, 2.0);
  EXPECT_NEAR(bound, (1.0 - 0.2) * 2.0 / (1.0 - 0.2 + 0.9 * 0.2), 1e-14);
}

TEST(BudgetThreshold, MatchesSpendAtUnconstrainedNe) {
  // The threshold is the per-miner spend at the Corollary-1 point, so a
  // miner given exactly that budget is on the boundary of both branches.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const int n = 5;
  const double threshold = homogeneous_budget_threshold(params, n);
  const MinerRequest sufficient = homogeneous_sufficient_request(params, prices, n);
  EXPECT_NEAR(request_cost(sufficient, prices), threshold, 1e-9);
}

TEST(Theorem3, BindingRequestExhaustsBudgetExactly) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  for (double budget : {5.0, 10.0, 12.0}) {
    const MinerRequest request =
        homogeneous_binding_request(params, prices, budget, 5);
    EXPECT_NEAR(request_cost(request, prices), budget, 1e-10);
    EXPECT_GT(request.edge, 0.0);
    EXPECT_GT(request.cloud, 0.0);
  }
}

TEST(Theorem3, BindingRequestIsBestResponseFixedPoint) {
  // Each miner's closed-form strategy must be a best response to n-1
  // copies of itself.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const int n = 5;
  const double budget = 10.0;
  ASSERT_LT(budget, homogeneous_budget_threshold(params, n));
  const MinerRequest ne = homogeneous_binding_request(params, prices, budget, n);
  MinerEnv env;
  env.reward = params.reward;
  env.fork_rate = params.fork_rate;
  env.edge_success = params.edge_success;
  env.prices = prices;
  env.budget = budget;
  env.others = {(n - 1.0) * ne.edge, (n - 1.0) * ne.cloud};
  const MinerRequest response = miner_best_response(env);
  EXPECT_NEAR(response.edge, ne.edge, 1e-6);
  EXPECT_NEAR(response.cloud, ne.cloud, 1e-6);
}

TEST(Theorem3, MatchesSymmetricSolver) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const double budget = 8.0;
  const int n = 5;
  const auto numeric = solve_followers_symmetric(params, prices, budget, n,
                                                 EdgeMode::kConnected);
  ASSERT_TRUE(numeric.converged);
  const MinerRequest closed =
      homogeneous_binding_request(params, prices, budget, n);
  EXPECT_NEAR(numeric.request().edge, closed.edge, 1e-6);
  EXPECT_NEAR(numeric.request().cloud, closed.cloud, 1e-6);
}

TEST(Theorem3, RequiresMixedPriceCondition) {
  const NetworkParams params = default_params();
  // P_c above the bound: the closed form must refuse.
  const double pe = 2.0;
  const double bad_pc = mixed_strategy_cloud_price_bound(params, pe) * 1.01;
  EXPECT_THROW(
      (void)homogeneous_binding_request(params, {pe, bad_pc}, 10.0, 5),
      support::PreconditionError);
  EXPECT_THROW((void)homogeneous_binding_request(params, {1.0, 2.0}, 10.0, 5),
               support::PreconditionError);
}

TEST(Corollary1, SufficientRequestSatisfiesFoc) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const int n = 5;
  const MinerRequest ne = homogeneous_sufficient_request(params, prices, n);
  MinerEnv env;
  env.reward = params.reward;
  env.fork_rate = params.fork_rate;
  env.edge_success = params.edge_success;
  env.prices = prices;
  env.budget = 1e9;
  env.others = {(n - 1.0) * ne.edge, (n - 1.0) * ne.cloud};
  const auto [du_de, du_dc] = miner_utility_gradient(env, ne);
  EXPECT_NEAR(du_de, 0.0, 1e-9);
  EXPECT_NEAR(du_dc, 0.0, 1e-9);
}

TEST(Corollary1, MatchesSymmetricSolverWithLargeBudget) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const int n = 5;
  const auto numeric = solve_followers_symmetric(params, prices, 1e5, n,
                                                 EdgeMode::kConnected);
  ASSERT_TRUE(numeric.converged);
  const MinerRequest closed = homogeneous_sufficient_request(params, prices, n);
  EXPECT_NEAR(numeric.request().edge, closed.edge, 1e-5);
  EXPECT_NEAR(numeric.request().cloud, closed.cloud, 1e-5);
}

TEST(Corollary1, PaperPrintedFormIsTheHEqualOneCase) {
  NetworkParams params = default_params();
  params.edge_success = 1.0;
  const Prices prices{2.0, 1.0};
  const int n = 5;
  const MinerRequest ne = homogeneous_sufficient_request(params, prices, n);
  const double beta = params.fork_rate, r = params.reward;
  const double dn = n;
  EXPECT_NEAR(ne.edge, beta * r * (dn - 1.0) / (dn * dn * (2.0 - 1.0)), 1e-12);
  // c* = R(n-1)[(1-beta) P_e - P_c] / (n^2 P_c (P_e - P_c)).
  EXPECT_NEAR(ne.cloud,
              r * (dn - 1.0) * ((1.0 - beta) * 2.0 - 1.0) /
                  (dn * dn * 1.0 * (2.0 - 1.0)),
              1e-12);
}

TEST(ConnectedSelector, PicksBranchByThreshold) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const int n = 5;
  const double threshold = homogeneous_budget_threshold(params, n);
  const MinerRequest below =
      homogeneous_connected_request(params, prices, 0.5 * threshold, n);
  const MinerRequest binding =
      homogeneous_binding_request(params, prices, 0.5 * threshold, n);
  EXPECT_NEAR(below.edge, binding.edge, 1e-12);
  const MinerRequest above =
      homogeneous_connected_request(params, prices, 2.0 * threshold, n);
  const MinerRequest sufficient = homogeneous_sufficient_request(params, prices, n);
  EXPECT_NEAR(above.edge, sufficient.edge, 1e-12);
}

TEST(EdgeOnly, TullockContestCappedByBudget) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 5.0};
  const int n = 5;
  const MinerRequest rich =
      homogeneous_edge_only_request(params, prices, 1e6, n);
  const double prize = params.reward * (1.0 - 0.2 + 0.9 * 0.2);
  EXPECT_NEAR(rich.edge, prize * 4.0 / (25.0 * 2.0), 1e-12);
  EXPECT_DOUBLE_EQ(rich.cloud, 0.0);
  const MinerRequest poor =
      homogeneous_edge_only_request(params, prices, 1.0, n);
  EXPECT_NEAR(poor.edge, 0.5, 1e-12);  // budget / P_e
}

TEST(StandaloneClosedForm, SlackCapMatchesCorollary1AtHEqualOne) {
  NetworkParams params = default_params();
  params.edge_capacity = 1e6;
  const Prices prices{2.0, 1.0};
  const int n = 5;
  const auto standalone = standalone_sufficient_request(params, prices, n);
  EXPECT_FALSE(standalone.cap_active);
  NetworkParams h1 = params;
  h1.edge_success = 1.0;
  const MinerRequest expectation = homogeneous_sufficient_request(h1, prices, n);
  EXPECT_NEAR(standalone.request.edge, expectation.edge, 1e-10);
  EXPECT_NEAR(standalone.request.cloud, expectation.cloud, 1e-10);
}

TEST(StandaloneClosedForm, BindingCapMatchesGnepSolver) {
  const NetworkParams params = default_params();  // E_max = 8
  const Prices prices{2.0, 1.0};
  const int n = 5;
  const auto closed = standalone_sufficient_request(params, prices, n);
  ASSERT_TRUE(closed.cap_active);
  const auto numeric = solve_followers_symmetric(params, prices, 1e5, n,
                                                 EdgeMode::kStandalone);
  ASSERT_TRUE(numeric.converged);
  EXPECT_NEAR(closed.request.edge, numeric.request().edge, 1e-4);
  EXPECT_NEAR(closed.request.cloud, numeric.request().cloud, 1e-3);
  EXPECT_NEAR(closed.surcharge, numeric.surcharge, 1e-3);
  // Total edge demand hits the cap exactly.
  EXPECT_NEAR(5.0 * closed.request.edge, params.edge_capacity, 1e-10);
}

TEST(StandaloneClosedForm, GrandTotalIndependentOfCap) {
  // S depends only on P_c (paper: standalone changes the edge/cloud split,
  // not the total), so tightening the cap must keep e + c constant.
  const Prices prices{2.0, 1.0};
  const int n = 5;
  NetworkParams loose = default_params();
  loose.edge_capacity = 1e6;
  NetworkParams tight = default_params();
  tight.edge_capacity = 5.0;
  const auto a = standalone_sufficient_request(loose, prices, n);
  const auto b = standalone_sufficient_request(tight, prices, n);
  EXPECT_NEAR(a.request.total(), b.request.total(), 1e-9);
  EXPECT_GT(a.request.edge, b.request.edge);
}

TEST(StandaloneSpClosedForm, MatchesDerivedExpressions) {
  const NetworkParams params = default_params();
  const int n = 5;
  const auto sp = standalone_sp_closed_form(params, n);
  const double beta = params.fork_rate;
  const double scale = params.reward * 4.0 / 5.0;
  EXPECT_NEAR(sp.prices.cloud,
              std::sqrt(params.cost_cloud * (1.0 - beta) * scale /
                        params.edge_capacity),
              1e-12);
  EXPECT_NEAR(sp.prices.edge,
              sp.prices.cloud + beta * scale / params.edge_capacity, 1e-12);
  EXPECT_TRUE(sp.valid);
  EXPECT_GT(sp.profit_edge, 0.0);
  EXPECT_GT(sp.profit_cloud, 0.0);
}

TEST(StandaloneSpClosedForm, CspPriceIsOptimalAgainstDemandCurve) {
  // V_c(P_c) = (P_c - C_c)(S(P_c) - E_max) with S = (1-beta)R(n-1)/(n P_c):
  // probe prices around P_c* must not beat it.
  const NetworkParams params = default_params();
  const int n = 5;
  const auto sp = standalone_sp_closed_form(params, n);
  const double scale = (1.0 - params.fork_rate) * params.reward * 4.0 / 5.0;
  const auto profit = [&](double pc) {
    return (pc - params.cost_cloud) * (scale / pc - params.edge_capacity);
  };
  const double best = profit(sp.prices.cloud);
  for (double factor : {0.8, 0.9, 1.1, 1.25}) {
    EXPECT_LE(profit(sp.prices.cloud * factor), best + 1e-10);
  }
}

// --- CSP reaction closed forms vs an independent scan ---------------------

/// V_c through the symmetric follower solve (uncapped by default).
double csp_profit(const NetworkParams& params, const Prices& prices,
                  double budget, int n, EdgeMode mode,
                  const SolveContext& context = {}) {
  const auto eq =
      solve_followers_symmetric(params, prices, budget, n, mode, context);
  return (prices.cloud - params.cost_cloud) * eq.totals.cloud;
}

/// Independent reference: the best V_c a fine scan of the cloud price box
/// finds at the given edge price.
double scanned_best_profit(const NetworkParams& params, double budget, int n,
                           EdgeMode mode, double price_edge, double lo,
                           double hi) {
  num::Maximize1DOptions scan;
  scan.grid_points = 1500;
  scan.tolerance = 1e-12;
  return num::maximize_scan(
             [&](double pc) {
               return csp_profit(params, {price_edge, pc}, budget, n, mode);
             },
             lo, hi, scan)
      .value;
}

/// The leader stage's cloud price box at default SpSolveOptions.
struct CloudBox {
  double lo = 0.0;
  double hi = 0.0;
};

CloudBox default_cloud_box(const NetworkParams& params) {
  const SpSolveOptions options;
  return {params.cost_cloud * (1.0 + options.price_margin) + 1e-9,
          2.0 * std::max(params.cost_edge, params.cost_cloud) +
              0.5 * params.reward};
}

/// The numeric reaction csp_reaction_homogeneous falls back to: the
/// default 1-D scan of V_c with the leader stage's capped follower solve.
double numeric_reaction(const NetworkParams& params, double budget, int n,
                        EdgeMode mode, double price_edge) {
  const SpSolveOptions options;
  SolveContext scan_context;
  scan_context.follower.max_iterations = 600;
  num::Maximize1DOptions scan;
  scan.grid_points = options.grid_points;
  scan.tolerance = 1e-8;
  const CloudBox box = default_cloud_box(params);
  return num::maximize_scan(
             [&](double pc) {
               return csp_profit(params, {price_edge, pc}, budget, n, mode,
                                 scan_context);
             },
             box.lo, box.hi, scan)
      .argmax;
}

TEST(CspReactionParity, ConnectedRootBeatsAnIndependentScan) {
  // h < 1, binding and sufficient budgets: one root serves both regimes.
  support::Rng rng(2019);
  int binding = 0;
  for (int k = 0; k < 60; ++k) {
    NetworkParams params;
    params.fork_rate = rng.uniform(0.1, 0.35);
    params.edge_success = rng.uniform(0.5, 0.95);
    params.reward = rng.uniform(80.0, 120.0);
    const int n = 2 + static_cast<int>(rng.uniform_index(39));
    const double threshold = homogeneous_budget_threshold(params, n);
    const bool binds = k % 2 == 0;
    const double budget =
        threshold * (binds ? rng.uniform(0.3, 0.9) : rng.uniform(1.1, 5.0));
    const double pe = rng.uniform(1.2, 8.0);
    const CloudBox box = default_cloud_box(params);
    const double root = csp_reaction_sufficient_closed(params, pe);
    ASSERT_GE(root, box.lo) << "case " << k;
    ASSERT_LE(root, box.hi) << "case " << k;
    EXPECT_EQ(csp_reaction_homogeneous(params, budget, n,
                                       EdgeMode::kConnected, pe),
              root)
        << "case " << k;
    const double closed =
        csp_profit(params, {pe, root}, budget, n, EdgeMode::kConnected);
    const double scanned = scanned_best_profit(
        params, budget, n, EdgeMode::kConnected, pe, box.lo, box.hi);
    EXPECT_GE(closed, scanned * (1.0 - 1e-12)) << "case " << k;
    binding += binds ? 1 : 0;
  }
  EXPECT_EQ(binding, 30);
}

TEST(CspReactionParity, StandaloneCandidatesBeatAnIndependentScan) {
  // Sufficient budgets, edge prices straddling the cap kink so both the
  // undercut (cap slack) and the sell-out side (cap binding) win cases.
  support::Rng rng(7919);
  int slack = 0;
  int binding = 0;
  for (int k = 0; k < 80; ++k) {
    NetworkParams params;
    params.fork_rate = rng.uniform(0.1, 0.35);
    params.reward = rng.uniform(80.0, 120.0);
    params.edge_capacity = rng.uniform(2.0, 30.0);
    const int n = 2 + static_cast<int>(rng.uniform_index(39));
    const double dn = static_cast<double>(n);
    const double demand = params.reward * (dn - 1.0) / dn;
    const double budget = demand / dn * rng.uniform(1.0, 5.0);
    // The sell-out price of Table II's cloud price, scaled around 1.
    const double total = (1.0 - params.fork_rate) * demand;
    const double sellout =
        std::sqrt(total * params.cost_cloud / params.edge_capacity) +
        params.fork_rate * demand / params.edge_capacity;
    const double pe = std::max(1.2, sellout * rng.uniform(0.6, 1.4));
    const CloudBox box = default_cloud_box(params);
    const auto candidates = csp_reaction_standalone_closed(
        params, budget, n, pe, box.lo, box.hi);
    ASSERT_TRUE(candidates.slack > 0.0 || candidates.binding > 0.0)
        << "case " << k;
    const double pc = csp_reaction_homogeneous(params, budget, n,
                                               EdgeMode::kStandalone, pe);
    ASSERT_TRUE(pc == candidates.slack || pc == candidates.binding)
        << "case " << k;
    (pc == candidates.slack ? slack : binding) += 1;
    const double closed =
        csp_profit(params, {pe, pc}, budget, n, EdgeMode::kStandalone);
    const double scanned = scanned_best_profit(
        params, budget, n, EdgeMode::kStandalone, pe, box.lo, box.hi);
    EXPECT_GE(closed, scanned * (1.0 - 1e-12)) << "case " << k;
  }
  EXPECT_GE(slack, 10);
  EXPECT_GE(binding, 10);
}

TEST(CspReactionParity, FallsBackToTheNumericScanWithoutAClosedForm) {
  // Standalone budgets below R(n-1)/n^2 can bind, so Table II does not
  // apply.
  const NetworkParams params = default_params();
  const int n = 5;
  const double low_budget = 0.9 * params.reward * (n - 1.0) / (n * n);
  const CloudBox box = default_cloud_box(params);
  const auto none = csp_reaction_standalone_closed(params, low_budget, n, 3.0,
                                                   box.lo, box.hi);
  EXPECT_LT(none.slack, 0.0);
  EXPECT_LT(none.binding, 0.0);
  EXPECT_EQ(csp_reaction_homogeneous(params, low_budget, n,
                                     EdgeMode::kStandalone, 3.0),
            numeric_reaction(params, low_budget, n, EdgeMode::kStandalone,
                             3.0));
  // No admissible connected root: the cloud cost sits above the
  // mixed-strategy bound, so miners never buy cloud units at a profit.
  NetworkParams costly = default_params();
  costly.cost_cloud = 0.95;
  ASSERT_LT(mixed_strategy_cloud_price_bound(costly, 1.05),
            costly.cost_cloud);
  EXPECT_LT(csp_reaction_sufficient_closed(costly, 1.05), 0.0);
  EXPECT_EQ(csp_reaction_homogeneous(costly, 40.0, n, EdgeMode::kConnected,
                                     1.05),
            numeric_reaction(costly, 40.0, n, EdgeMode::kConnected, 1.05));
}

TEST(ClosedForms, ValidateArguments) {
  const NetworkParams params = default_params();
  EXPECT_THROW((void)homogeneous_budget_threshold(params, 1),
               support::PreconditionError);
  EXPECT_THROW(
      (void)homogeneous_sufficient_request(params, {2.0, 1.0}, 1),
      support::PreconditionError);
  EXPECT_THROW(
      (void)homogeneous_binding_request(params, {2.0, 1.0}, 0.0, 5),
      support::PreconditionError);
  EXPECT_THROW((void)standalone_sufficient_request(params, {1.0, 2.0}, 5),
               support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::core

// Tests for core/sp: SP profits, the leader-stage equilibria (Algorithms 1
// and 2), the CSP reaction curve (Theorem 4 structure), and the paper's
// cross-mode claims.
#include "core/sp.hpp"

#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/closed_forms.hpp"
#include "support/error.hpp"

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

SpSolveOptions fast_options() {
  SpSolveOptions options;
  options.grid_points = 28;
  options.max_rounds = 40;
  options.tolerance = 1e-4;
  options.context.follower.tolerance = 1e-8;
  return options;
}

TEST(SpProfits, MatchesDefinition) {
  const NetworkParams params = default_params();
  const SpProfits profits = sp_profits(params, {2.0, 1.0}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(profits.edge, (2.0 - 1.0) * 10.0);
  EXPECT_DOUBLE_EQ(profits.cloud, (1.0 - 0.4) * 20.0);
}

TEST(HomogeneousStackelberg, ConnectedEquilibriumIsSane) {
  const NetworkParams params = default_params();
  const auto result = solve_leader_stage_homogeneous(
      params, 40.0, 5, EdgeMode::kConnected, fast_options());
  EXPECT_TRUE(result.converged);
  // Prices above cost (otherwise an SP would be better off at cost).
  EXPECT_GT(result.prices.edge, params.cost_edge);
  EXPECT_GT(result.prices.cloud, params.cost_cloud);
  // The ESP has no delay penalty: it must command the premium price.
  EXPECT_GT(result.prices.edge, result.prices.cloud);
  EXPECT_GE(result.profits.edge, 0.0);
  EXPECT_GE(result.profits.cloud, 0.0);
  // Miners actually buy at the equilibrium.
  EXPECT_GT(result.followers.request().total(), 0.0);
}

TEST(HomogeneousStackelberg, EquilibriumPricesAreStable) {
  // At the computed solution: the CSP's price is a best response to P_e*
  // (it is the Stackelberg follower among leaders per Theorem 4), and the
  // ESP cannot gain by deviating along the CSP's reaction curve.
  const NetworkParams params = default_params();
  const auto options = fast_options();
  const auto result = solve_leader_stage_homogeneous(
      params, 40.0, 5, EdgeMode::kConnected, options);
  const auto cloud_payoff = [&](const Prices& prices) {
    const auto eq =
        solve_followers_symmetric(params, prices, 40.0, 5,
                                  EdgeMode::kConnected,
                                  options.context);
    return sp_profits(params, prices, eq.totals).cloud;
  };
  const auto composite_edge_payoff = [&](double pe) {
    const double pc = csp_reaction_homogeneous(params, 40.0, 5,
                                               EdgeMode::kConnected, pe,
                                               options);
    const auto eq =
        solve_followers_symmetric(params, {pe, pc}, 40.0, 5,
                                  EdgeMode::kConnected,
                                  options.context);
    return sp_profits(params, {pe, pc}, eq.totals).edge;
  };
  const double base_cloud = cloud_payoff(result.prices);
  const double base_edge = composite_edge_payoff(result.prices.edge);
  for (double factor : {0.9, 0.97, 1.03, 1.1}) {
    Prices probe_c = result.prices;
    probe_c.cloud *= factor;
    if (probe_c.cloud > params.cost_cloud) {
      EXPECT_LE(cloud_payoff(probe_c), base_cloud * 1.01 + 1e-6);
    }
    const double probe_pe = result.prices.edge * factor;
    if (probe_pe > params.cost_edge) {
      EXPECT_LE(composite_edge_payoff(probe_pe), base_edge * 1.01 + 1e-6);
    }
  }
}

TEST(HomogeneousStackelberg, StandaloneSellsOutTheEdge) {
  // Paper Problem 2c: at the standalone SP equilibrium the ESP sells its
  // whole capacity (with sufficient miner budgets).
  const NetworkParams params = default_params();
  const auto result = solve_leader_stage_homogeneous(
      params, 500.0, 5, EdgeMode::kStandalone, fast_options());
  EXPECT_NEAR(5.0 * result.followers.request().edge, params.edge_capacity,
              0.05 * params.edge_capacity);
}

TEST(HomogeneousStackelberg, StandaloneEspChargesMoreAndEarnsMore) {
  // Paper Sec. IV-C.3 & Fig. 8: with scarce edge capacity (the paper's
  // premise: "limited and expensive edge resources"), the standalone mode
  // lets the ESP charge a higher price and extract more profit than the
  // connected mode, while the CSP's profit does not improve.
  NetworkParams params = default_params();
  params.edge_capacity = 4.0;
  const auto connected = solve_leader_stage_homogeneous(
      params, 500.0, 5, EdgeMode::kConnected, fast_options());
  const auto standalone =
      solve_leader_stage_sellout(params, 500.0, 5, fast_options());
  EXPECT_GT(standalone.prices.edge, connected.prices.edge);
  EXPECT_GT(standalone.profits.edge, connected.profits.edge);
  EXPECT_LT(standalone.profits.cloud, connected.profits.cloud * 1.05);
}

TEST(HomogeneousStackelberg, StandaloneSelloutMatchesTableIIClosedForm) {
  const NetworkParams params = default_params();
  const auto closed = standalone_sp_closed_form(params, 5);
  ASSERT_TRUE(closed.valid);
  SpSolveOptions options = fast_options();
  options.grid_points = 80;
  const auto numeric = solve_leader_stage_sellout(params, 1e4, 5, options);
  EXPECT_NEAR(numeric.prices.cloud, closed.prices.cloud,
              0.02 * closed.prices.cloud);
  EXPECT_NEAR(numeric.prices.edge, closed.prices.edge,
              0.02 * closed.prices.edge);
  EXPECT_NEAR(numeric.profits.edge, closed.profit_edge,
              0.02 * closed.profit_edge);
}

TEST(HomogeneousStackelberg, UnconstrainedStandaloneLetsCspUndercut) {
  // Observed refinement of the paper's Problem 2c (documented in
  // EXPERIMENTS.md): without the imposed sell-out constraint, the CSP
  // undercuts just below the ESP's sell-out price, so the free equilibrium
  // yields the ESP weakly less profit than the Table II point.
  const NetworkParams params = default_params();
  const auto sellout =
      solve_leader_stage_sellout(params, 1e4, 5, fast_options());
  const auto free_game = solve_leader_stage_homogeneous(
      params, 1e4, 5, EdgeMode::kStandalone, fast_options());
  EXPECT_LE(free_game.profits.edge, sellout.profits.edge * 1.01);
}

TEST(CspReaction, LiesBelowMixedBoundAndAboveCost) {
  const NetworkParams params = default_params();
  for (double pe : {1.8, 2.5, 3.5}) {
    const double pc = csp_reaction_homogeneous(params, 40.0, 5,
                                               EdgeMode::kConnected, pe,
                                               fast_options());
    EXPECT_GT(pc, params.cost_cloud);
    EXPECT_LT(pc, pe);
  }
}

TEST(CspReaction, HigherEdgePriceAllowsHigherCloudPrice) {
  // Strategic complements: the CSP's best response rises with P_e.
  const NetworkParams params = default_params();
  const double low = csp_reaction_homogeneous(params, 40.0, 5,
                                              EdgeMode::kConnected, 2.0,
                                              fast_options());
  const double high = csp_reaction_homogeneous(params, 40.0, 5,
                                               EdgeMode::kConnected, 4.0,
                                               fast_options());
  EXPECT_GE(high, low - 1e-3);
}

/// V_c at the given prices with the uncapped symmetric follower solve.
double csp_profit(const NetworkParams& params, const Prices& prices,
                  double budget, int n, EdgeMode mode) {
  const auto eq = solve_followers_symmetric(params, prices, budget, n, mode);
  return sp_profits(params, prices, eq.totals).cloud;
}

TEST(CspReaction, StandaloneTakesTheUndercutNextToTheSelloutPrice) {
  // At P_e = 3.04 Table II's sell-out reaction P_c = sqrt(K C_c/E_max) =
  // 1.6 earns V_c = 36.000, but dropping below the cap kink
  // x_k = P_e - beta D/E_max = 1.44 earns more: the undercut peaks near
  // 1.3307 with V_c ~ 36.050. A 40-point scan over the price box misses
  // that narrow peak; the closed-form candidates do not.
  NetworkParams params;
  params.edge_capacity = 10.0;
  const double pe = 3.04;
  const double pc = csp_reaction_homogeneous(params, 100.0, 5,
                                             EdgeMode::kStandalone, pe);
  EXPECT_NEAR(pc, 1.3307, 1e-4);
  const double undercut =
      csp_profit(params, {pe, pc}, 100.0, 5, EdgeMode::kStandalone);
  const double sellout =
      csp_profit(params, {pe, 1.6}, 100.0, 5, EdgeMode::kStandalone);
  EXPECT_NEAR(sellout, 36.0, 1e-9);
  EXPECT_NEAR(undercut, 36.050, 1e-3);
}

TEST(HomogeneousStackelberg, StandaloneCspCannotUndercutTheLeaderOptimum) {
  // With E_max = 5 the numeric reaction let the leader stage settle at
  // P_e ~ 5.28, where the CSP gained 0.13% by undercutting to ~1.92. At
  // the returned prices no cloud price on a fine grid of the box may beat
  // the returned one.
  NetworkParams params;
  params.edge_capacity = 5.0;
  const std::vector<double> budgets(5, 100.0);
  const SpSolveOptions options;
  const auto result =
      solve_leader_stage(params, budgets, EdgeMode::kStandalone, options);
  ASSERT_TRUE(result.converged);
  const double best = csp_profit(params, result.prices, 100.0, 5,
                                 EdgeMode::kStandalone);
  EXPECT_NEAR(best, result.profits.cloud, 1e-12 * best);
  const double lo = params.cost_cloud * (1.0 + options.price_margin) + 1e-9;
  const double hi = 2.0 * params.cost_edge + 0.5 * params.reward;
  constexpr int kGrid = 20000;
  for (int i = 0; i <= kGrid; ++i) {
    const double pc = lo + (hi - lo) * i / kGrid;
    ASSERT_LE(csp_profit(params, {result.prices.edge, pc}, 100.0, 5,
                         EdgeMode::kStandalone),
              best * (1.0 + 1e-7))
        << "P_c = " << pc;
  }
}

TEST(SequentialSolve, AgreesWithSimultaneousOnProfits) {
  // Theorem 4's sequential construction should give (approximately) the
  // same outcome as asynchronous best response when the latter converges.
  const NetworkParams params = default_params();
  const auto simultaneous = solve_leader_stage_homogeneous(
      params, 40.0, 5, EdgeMode::kConnected, fast_options());
  const auto sequential = solve_leader_stage_sequential(
      params, 40.0, 5, EdgeMode::kConnected, fast_options());
  EXPECT_NEAR(sequential.profits.edge, simultaneous.profits.edge,
              0.1 * std::abs(simultaneous.profits.edge) + 0.5);
}

TEST(FullProfileStackelberg, HeterogeneousBudgetsSolve) {
  const NetworkParams params = default_params();
  SpSolveOptions options = fast_options();
  options.grid_points = 16;
  options.max_rounds = 15;
  options.tolerance = 1e-3;
  const std::vector<double> budgets{20.0, 30.0, 40.0};
  const auto result =
      solve_leader_stage(params, budgets, EdgeMode::kConnected, options);
  EXPECT_GT(result.prices.edge, params.cost_edge);
  EXPECT_GT(result.prices.cloud, params.cost_cloud);
  EXPECT_GT(result.followers.totals.grand(), 0.0);
  // Richer miners buy more at the equilibrium prices.
  EXPECT_GE(result.followers.request(2).total(),
            result.followers.request(0).total() - 1e-6);
}

TEST(LeaderStage, BindingStandaloneBudgetsMatchTheForcedProfileRun) {
  // n = 10 miners of budget 5 in standalone mode: every budget binds. The
  // homogeneous stage (closed-form CSP reactions) and the general stage
  // (numeric reactions) must agree, on an exact follower equilibrium.
  const NetworkParams params;
  const std::vector<double> budgets(10, 5.0);
  SpSolveOptions options;
  options.context.threads = 1;
  const auto homogeneous =
      solve_leader_stage(params, budgets, EdgeMode::kStandalone, options);
  options.force_profile_oracle = true;
  const auto forced =
      solve_leader_stage(params, budgets, EdgeMode::kStandalone, options);
  for (const LeaderStageResult* result : {&homogeneous, &forced}) {
    EXPECT_TRUE(result->converged);
    EXPECT_TRUE(result->followers.converged);
    EXPECT_NEAR(result->profits.edge, 12.79518, 1e-6);
  }
  EXPECT_NEAR(homogeneous.profits.edge, forced.profits.edge, 1e-6);
  EXPECT_NEAR(homogeneous.prices.edge, forced.prices.edge, 1e-6);
  EXPECT_NEAR(homogeneous.prices.cloud, forced.prices.cloud, 1e-6);
}

TEST(LeaderStage, UnconvergedFollowersMakeTheResultUnconverged) {
  // A three-class pool whose follower fixed point gets two sweeps: neither
  // the sweep movement nor the class certificate can pass, so the leader
  // stage must not call its answer converged, whichever leader step ran.
  const NetworkParams params = default_params();
  SpSolveOptions options = fast_options();
  options.grid_points = 8;
  options.max_rounds = 4;
  options.context.follower.max_iterations = 2;
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    const auto result =
        solve_leader_stage(params, {50.0, 120.0, 200.0}, mode, options);
    EXPECT_FALSE(result.followers.converged);
    EXPECT_FALSE(result.converged);
  }
}

TEST(SpSolve, ValidatesInputs) {
  const NetworkParams params = default_params();
  EXPECT_THROW((void)solve_leader_stage_homogeneous(
                   params, 0.0, 5, EdgeMode::kConnected),
               support::PreconditionError);
  EXPECT_THROW((void)solve_leader_stage_homogeneous(
                   params, 10.0, 1, EdgeMode::kConnected),
               support::PreconditionError);
  EXPECT_THROW((void)solve_leader_stage(params, {}, EdgeMode::kConnected),
               support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::core

// Tests for core/sp: SP profits, the leader-stage equilibria (Algorithms 1
// and 2), the CSP reaction curve (Theorem 4 structure), and the paper's
// cross-mode claims.
#include "core/sp.hpp"

#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/closed_forms.hpp"
#include "core/scenario.hpp"
#include "game/stackelberg.hpp"
#include "support/error.hpp"
#include "support/prof.hpp"
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

SpSolveOptions fast_options() {
  SpSolveOptions options;
  options.grid_points = 28;
  options.max_rounds = 40;
  options.tolerance = 1e-4;
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

TEST(HomogeneousStackelberg, SpPriceBestResponseCyclesAsDocumented) {
  // Algorithm 1's simultaneous price dynamics on the sufficient-budget
  // homogeneous game: each SP best-responds to the other's last price. The
  // scan must not settle (the simultaneous game lacks a pure NE here); it
  // stops at an exact cycle. Theorem 4's test rules the pure NE out in
  // closed form, so the leader stage runs the sequential construction
  // without the scan.
  NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 8.0;
  const std::vector<double> budgets(5, 40.0);
  const SpSolveOptions options;
  const auto oracle = make_follower_oracle(params, budgets,
                                           EdgeMode::kConnected,
                                           options.context);
  const game::LeaderPayoffFn payoff = [&](const std::vector<double>& actions,
                                          std::size_t leader) {
    const Prices prices{actions[0], actions[1]};
    const SpProfits profits =
        sp_profits(params, prices, oracle->solve(prices).totals);
    return leader == 0 ? profits.edge : profits.cloud;
  };
  // The price box and start of the leader stage (core/sp.cpp).
  const double ceiling =
      2.0 * std::max(params.cost_edge, params.cost_cloud) +
      0.5 * params.reward;
  const std::vector<game::ActionBounds> box{
      {params.cost_edge * (1.0 + options.price_margin) + 1e-9, ceiling},
      {params.cost_cloud * (1.0 + options.price_margin) + 1e-9, ceiling}};
  game::StackelbergOptions driver;
  driver.tolerance = options.tolerance;
  driver.max_rounds = options.max_rounds;
  driver.grid_points = options.grid_points;
  driver.context = options.context;
  const game::StackelbergResult scan = game::solve_stackelberg(
      payoff,
      {std::min(ceiling, 2.0 * params.cost_edge + 1.0),
       std::min(ceiling, 2.0 * params.cost_cloud + 0.5)},
      box, driver);
  EXPECT_FALSE(scan.converged);
  EXPECT_GE(scan.cycle_period, 2);

  const LeaderStageResult result =
      solve_leader_stage(params, budgets, EdgeMode::kConnected, options);
  EXPECT_EQ(result.method, SpSolveMethod::kSequential);
  EXPECT_EQ(result.rounds, 1);
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
  // n = 10 miners of budget 5 in standalone mode: every budget binds.
  // Table II's candidates need B >= R(n-1)/n^2 = 9, so even this one-class
  // pool takes the numeric CSP reaction. The leader stage must land on the
  // pinned V_e, on an exact (converged) follower equilibrium. An
  // independent fine scan of the sequential construction puts the optimum
  // at V_e = 12.7951810 (to 1e-8, the numeric reaction's resolution).
  const NetworkParams params;
  const std::vector<double> budgets(10, 5.0);
  SpSolveOptions options;
  options.context.threads = 1;
  const auto result =
      solve_leader_stage(params, budgets, EdgeMode::kStandalone, options);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.followers.converged);
  EXPECT_NEAR(result.profits.edge, 12.795181, 1e-6);
}

TEST(LeaderStage, EqualBudgetsMatchTheHomogeneousEntryBitwise) {
  // solve_leader_stage builds its oracle from the budget vector,
  // solve_leader_stage_homogeneous from (B, n); both run the one driver
  // with the closed-form CSP reaction, so the answers are bitwise equal.
  const NetworkParams params = default_params();
  SpSolveOptions options = fast_options();
  options.grid_points = 16;
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    const auto general =
        solve_leader_stage(params, std::vector<double>(4, 35.0), mode, options);
    const auto homogeneous =
        solve_leader_stage_homogeneous(params, 35.0, 4, mode, options);
    EXPECT_EQ(general.prices.edge, homogeneous.prices.edge);
    EXPECT_EQ(general.prices.cloud, homogeneous.prices.cloud);
    EXPECT_EQ(general.profits.edge, homogeneous.profits.edge);
    EXPECT_EQ(general.profits.cloud, homogeneous.profits.cloud);
    EXPECT_EQ(general.rounds, homogeneous.rounds);
    EXPECT_EQ(general.method, homogeneous.method);
    EXPECT_EQ(general.converged, homogeneous.converged);
  }
}

TEST(LeaderStage, ConnectedOneClassPricesDependOnNeitherNNorB) {
  // Along the closed-form reaction the connected stage picks the ESP's
  // price on V_e/(1 - u), a function of the prices alone, so every n and B
  // gives the same prices bit for bit (the composite scan agreed to ~2e-7).
  for (const NetworkParams& params : {default_params(), NetworkParams{}}) {
    const SpSolveOptions options;
    const auto reference = solve_leader_stage_homogeneous(
        params, 1.0, 2, EdgeMode::kConnected, options);
    for (const int n : {2, 5, 50}) {
      for (const double budget : {1.0, 200.0, 1e6}) {
        const auto result = solve_leader_stage_homogeneous(
            params, budget, n, EdgeMode::kConnected, options);
        EXPECT_EQ(result.method, SpSolveMethod::kSequential);
        EXPECT_EQ(result.rounds, 1);
        EXPECT_TRUE(result.converged);
        EXPECT_EQ(result.prices.edge, reference.prices.edge) << n << " " << budget;
        EXPECT_EQ(result.prices.cloud, reference.prices.cloud)
            << n << " " << budget;
      }
    }
  }
}

TEST(LeaderStage, OneClassStagesMakeAtMostSixtyLeaderEvaluations) {
  // The ESP's optimum comes from a few closed-form candidates, not from a
  // 160-point composite scan and its refines (543 utility evaluations
  // connected, 570 standalone), so a one-class stage stays within 60.
  for (const NetworkParams& params : {default_params(), NetworkParams{}}) {
    for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
      support::Telemetry telemetry;
      SpSolveOptions options;
      options.context.telemetry = &telemetry;
      const auto result =
          solve_leader_stage_homogeneous(params, 200.0, 10, mode, options);
      EXPECT_EQ(result.method, SpSolveMethod::kSequential);
      EXPECT_TRUE(result.converged);
      const std::uint64_t evals =
          telemetry.work.total()[support::prof::WorkField::kUtilityEvals];
      EXPECT_GT(evals, 0u);
      EXPECT_LE(evals, 60u);
    }
  }
}

TEST(LeaderStage, GateRowsKeepTheirWorkAndRounds) {
  // Two connected stages at R = 100, beta = 0.2, h = 0.9 and the default
  // costs, on an 8-point grid: 4 miners of budget 200, and the pool
  // {200, 220}. C_e = 1 lies above the cloud floor, so Theorem 4's test
  // rules out a pure price equilibrium: both skip the price scan and run
  // the sequential construction alone. The one-class stage takes the
  // closed-form candidates; the two-class stage scans the composite with
  // the numeric CSP reaction (41,421 follower solves). Neither may do more
  // than 10% more work than pinned here, and both answers pass the audit.
  const NetworkParams params;
  SpSolveOptions options;
  options.grid_points = 8;
  const auto check = [&](const std::vector<double>& budgets,
                         const LeaderStageResult& result,
                         support::Telemetry& telemetry,
                         std::uint64_t best_response_evals,
                         std::uint64_t utility_evals) {
    SCOPED_TRACE(std::to_string(budgets.size()) + " miners");
    EXPECT_EQ(result.rounds, 1);
    EXPECT_EQ(result.method, SpSolveMethod::kSequential);
    EXPECT_TRUE(result.converged);
    EXPECT_GE(telemetry.metrics.counter("oracle.solves").value(), 1u);
    const support::prof::WorkCounters work = telemetry.work.total();
    EXPECT_LE(10 * work[support::prof::WorkField::kBestResponseEvals],
              11 * best_response_evals);
    EXPECT_LE(10 * work[support::prof::WorkField::kUtilityEvals],
              11 * utility_evals);
    Scenario scenario;
    scenario.params = params;
    scenario.mode = EdgeMode::kConnected;
    scenario.budgets = budgets;
    const AuditReport audit =
        audit_equilibrium(scenario, result.prices, result.followers);
    EXPECT_LE(audit.best_response_gap, 1e-6);
    EXPECT_LE(audit.capacity_violation, 1e-6);
  };
  support::Telemetry one_class_sink;
  options.context.telemetry = &one_class_sink;
  const auto one_class = solve_leader_stage_homogeneous(
      params, 200.0, 4, EdgeMode::kConnected, options);
  check(std::vector<double>(4, 200.0), one_class, one_class_sink, 1, 1);

  support::Telemetry two_class_sink;
  options.context.telemetry = &two_class_sink;
  const std::vector<double> two_classes{200.0, 220.0};
  const auto two_class =
      solve_leader_stage(params, two_classes, EdgeMode::kConnected, options);
  check(two_classes, two_class, two_class_sink, 82842, 124262);
}

TEST(LeaderStage, UnconvergedFollowersMakeTheResultUnconverged) {
  // A standalone three-class pool whose poorest class cannot afford the
  // symmetric cap request: at the answer's prices the cap of 2 binds, so
  // the follower solve runs the cap root, here with two steps per level.
  // The certificate cannot pass, so the leader stage must not call its
  // answer converged, whichever leader step ran.
  NetworkParams params = default_params();
  params.edge_capacity = 2.0;
  SpSolveOptions options = fast_options();
  options.grid_points = 8;
  options.max_rounds = 4;
  options.context.follower.max_iterations = 2;
  const auto result = solve_leader_stage(params, {10.0, 120.0, 200.0},
                                         EdgeMode::kStandalone, options);
  EXPECT_TRUE(result.followers.cap_active);
  EXPECT_GT(result.followers.iterations, 0);
  EXPECT_FALSE(result.followers.converged);
  EXPECT_FALSE(result.converged);
}

TEST(LeaderStage, AllSlackFollowersConvergeWithinTwoSweeps) {
  // Every budget of {50, 120, 200} affords the pool's symmetric request
  // (and, in standalone mode, the symmetric cap request), so every
  // follower solve is closed form: the same two-step budget converges.
  const NetworkParams params = default_params();
  SpSolveOptions options = fast_options();
  options.grid_points = 8;
  options.max_rounds = 4;
  options.context.follower.max_iterations = 2;
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    const auto result =
        solve_leader_stage(params, {50.0, 120.0, 200.0}, mode, options);
    EXPECT_TRUE(result.followers.converged);
    EXPECT_TRUE(result.converged);
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

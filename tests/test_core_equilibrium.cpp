// Tests for the follower solver in both edge modes: the connected-mode NEP
// (Theorem 2), the standalone-mode GNEP (Theorem 5) by the class solver's
// shared-surcharge decomposition and by the VI/extragradient reference
// (core/equilibrium.hpp), and the homogeneous (one-class) solves.
#include "core/equilibrium.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/audit.hpp"
#include "core/closed_forms.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
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

TEST(ConnectedNep, ConvergesAndIsUnexploitable) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{20.0, 30.0, 40.0, 50.0, 60.0};
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  ASSERT_TRUE(eq.converged);
  EXPECT_NEAR(
      miner_exploitability(params, prices, budgets, eq.expanded(), true), 0.0,
      1e-5);
  // Totals are the sums of the individual requests.
  const Totals manual = aggregate(eq.expanded());
  EXPECT_NEAR(manual.edge, eq.totals.edge, 1e-12);
  EXPECT_NEAR(manual.cloud, eq.totals.cloud, 1e-12);
}

TEST(ConnectedNep, UniqueAcrossSolvers) {
  // Theorem 2: the NE is unique, so the class solver's share equation and
  // the VI reference's extragradient dynamics find the same point.
  const NetworkParams params = default_params();
  const Prices prices{2.5, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};
  const auto eq_classes =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  const auto eq_vi =
      solve_followers_vi(params, prices, budgets, EdgeMode::kConnected);
  ASSERT_TRUE(eq_classes.converged);
  ASSERT_TRUE(eq_vi.converged);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(eq_classes.request(i).edge, eq_vi.request(i).edge, 1e-6);
    EXPECT_NEAR(eq_classes.request(i).cloud, eq_vi.request(i).cloud, 1e-6);
  }
}

TEST(ConnectedNep, RicherMinersRequestMore) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{10.0, 20.0, 40.0, 80.0, 160.0};
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  ASSERT_TRUE(eq.converged);
  for (std::size_t i = 1; i < budgets.size(); ++i) {
    EXPECT_GE(eq.request(i).total(), eq.request(i - 1).total() - 1e-6);
  }
}

TEST(ConnectedNep, BudgetsAreRespected) {
  const NetworkParams params = default_params();
  const Prices prices{3.0, 1.2};
  const std::vector<double> budgets{5.0, 15.0, 25.0};
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  for (std::size_t i = 0; i < budgets.size(); ++i)
    EXPECT_LE(request_cost(eq.request(i), prices), budgets[i] + 1e-6);
}

TEST(ConnectedNep, UtilitiesAreIndividuallyRational) {
  // Playing (0,0) yields utility 0, so NE utilities must be >= 0.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{20.0, 30.0, 40.0};
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  for (double u : eq.utilities) EXPECT_GE(u, -1e-8);
}

TEST(ConnectedNep, ValidatesInputs) {
  const NetworkParams params = default_params();
  const EdgeMode mode = EdgeMode::kConnected;
  EXPECT_THROW((void)solve_followers(params, {0.0, 1.0}, {10.0}, mode),
               support::PreconditionError);
  EXPECT_THROW((void)solve_followers(params, {2.0, 1.0}, {}, mode),
               support::PreconditionError);
  EXPECT_THROW((void)solve_followers(params, {2.0, 1.0}, {-1.0}, mode),
               support::PreconditionError);
}

TEST(SymmetricConnected, MatchesFullProfileSolverOnHomogeneousMiners) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const double budget = 40.0;
  const int n = 5;
  const auto symmetric = solve_followers_symmetric(params, prices, budget, n,
                                                   EdgeMode::kConnected);
  ASSERT_TRUE(symmetric.converged);
  // The full profile comes from the independent VI reference.
  const auto full = solve_followers_vi(params, prices,
                                       std::vector<double>(n, budget),
                                       EdgeMode::kConnected);
  ASSERT_TRUE(full.converged);
  for (const auto& request : full.requests) {
    EXPECT_NEAR(request.edge, symmetric.request().edge, 1e-5);
    EXPECT_NEAR(request.cloud, symmetric.request().cloud, 1e-5);
  }
}

TEST(StandaloneGnep, SlackCapacityReducesToPlainNep) {
  NetworkParams params = default_params();
  params.edge_capacity = 1e6;
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{20.0, 30.0, 40.0};
  const auto gnep =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  ASSERT_TRUE(gnep.converged);
  EXPECT_FALSE(gnep.cap_active);
  EXPECT_DOUBLE_EQ(gnep.surcharge, 0.0);
  // h = 1 connected solve is the same game.
  NetworkParams h1 = params;
  h1.edge_success = 1.0;
  const auto nep = solve_followers(h1, prices, budgets, EdgeMode::kConnected);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(gnep.request(i).edge, nep.request(i).edge, 1e-5);
    EXPECT_NEAR(gnep.request(i).cloud, nep.request(i).cloud, 1e-5);
  }
}

TEST(StandaloneGnep, BindingCapacityReachesComplementarity) {
  const NetworkParams params = default_params();  // E_max = 8
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{30.0, 40.0, 50.0, 60.0};
  const auto gnep =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  ASSERT_TRUE(gnep.converged);
  EXPECT_TRUE(gnep.cap_active);
  EXPECT_GT(gnep.surcharge, 0.0);
  EXPECT_NEAR(gnep.totals.edge, params.edge_capacity,
              1e-5 * params.edge_capacity);
  // At the variational equilibrium no miner can gain in the mu-penalized
  // game (the KKT-equivalent decoupled game).
  EXPECT_NEAR(miner_exploitability(params, prices, budgets, gnep.expanded(),
                                   false, gnep.surcharge),
              0.0, 1e-5);
}

TEST(StandaloneGnep, AgreesWithExtragradientVi) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{30.0, 45.0, 60.0};
  const auto decomposition =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  MinerSolveOptions vi_options;
  vi_options.vi_tolerance = 1e-9;
  vi_options.max_iterations = 8000;
  const auto vi = solve_followers_vi(params, prices, budgets,
                                     EdgeMode::kStandalone, vi_options);
  ASSERT_TRUE(decomposition.converged);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(decomposition.request(i).edge, vi.request(i).edge, 5e-3);
    EXPECT_NEAR(decomposition.request(i).cloud, vi.request(i).cloud, 5e-3);
  }
  EXPECT_NEAR(decomposition.totals.edge, vi.totals.edge, 5e-3);
}

TEST(SymmetricStandalone, MatchesFullGnepOnHomogeneousMiners) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const double budget = 50.0;
  const int n = 4;
  const auto symmetric = solve_followers_symmetric(params, prices, budget, n,
                                                   EdgeMode::kStandalone);
  // The full profile comes from the independent VI reference.
  const auto full = solve_followers_vi(
      params, prices, std::vector<double>(n, budget), EdgeMode::kStandalone);
  ASSERT_TRUE(symmetric.converged);
  ASSERT_TRUE(full.converged);
  EXPECT_EQ(symmetric.cap_active, full.cap_active);
  for (const auto& request : full.requests) {
    EXPECT_NEAR(request.edge, symmetric.request().edge, 2e-4);
    EXPECT_NEAR(request.cloud, symmetric.request().cloud, 2e-4);
  }
  EXPECT_NEAR(symmetric.surcharge, full.surcharge, 2e-3);
}

TEST(SymmetricStandalone, CapScalesEdgeDemand) {
  // Tightening E_max must not increase per-miner edge requests.
  const Prices prices{2.0, 1.0};
  double previous_edge = 1e18;
  for (double cap : {50.0, 20.0, 10.0, 5.0, 2.0}) {
    NetworkParams params = default_params();
    params.edge_capacity = cap;
    const auto eq = solve_followers_symmetric(params, prices, 60.0, 5,
                                              EdgeMode::kStandalone);
    EXPECT_LE(eq.request().edge, previous_edge + 1e-7);
    EXPECT_LE(5.0 * eq.request().edge, cap + 1e-5);
    previous_edge = eq.request().edge;
  }
}

TEST(StandaloneGnep, StandaloneBuysMoreEdgeThanConnected) {
  // Paper Sec. IV-C.3 / Table II: with the cap slack, standalone (h = 1)
  // encourages strictly more edge purchases than connected (h < 1).
  NetworkParams params = default_params();
  params.edge_capacity = 1e6;
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{40.0, 40.0, 40.0, 40.0};
  const auto standalone =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  const auto connected =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  EXPECT_GT(standalone.totals.edge, connected.totals.edge);
}

// --- the follower grid: every pool shape, both modes ----------------------

// 150 homogeneous points with the default network: budgets from binding to
// sufficient, prices across the mixed regime.
struct GridPoint {
  int n = 0;
  double budget = 0.0;
  Prices prices;
};

std::vector<GridPoint> follower_grid() {
  std::vector<GridPoint> grid;
  for (const int n : {3, 5, 10, 20, 50})
    for (const double budget : {1.0, 3.0, 5.0, 10.0, 30.0})
      for (const double price_edge : {3.0, 6.5, 9.5})
        for (const double price_cloud : {1.0, 2.2})
          grid.push_back({n, budget, {price_edge, price_cloud}});
  return grid;
}

/// The grid's pool: n equal budgets, or budgets cycling through B, 2B, 3B.
std::vector<double> grid_budgets(const GridPoint& point, bool mixed) {
  std::vector<double> budgets(static_cast<std::size_t>(point.n), point.budget);
  if (mixed)
    for (std::size_t i = 0; i < budgets.size(); ++i)
      budgets[i] *= 1.0 + static_cast<double>(i % 3);
  return budgets;
}

/// On every grid point the one solver converges, passes the certificate at
/// 1e-9 R, agrees with the VI reference to 1e-6 wherever the VI converges
/// (it stalls at the E = 0 corner, and on some mixed pools runs into its
/// iteration cap), and matches the closed forms where they apply.
void check_follower_grid(EdgeMode mode, bool mixed) {
  const NetworkParams params;
  MinerSolveOptions vi_options;
  vi_options.vi_tolerance = 1e-9;
  vi_options.max_iterations = 1000;
  int vi_compared = 0;
  for (const GridPoint& point : follower_grid()) {
    const std::vector<double> budgets = grid_budgets(point, mixed);
    SCOPED_TRACE(testing::Message()
                 << "n=" << point.n << " B=" << point.budget
                 << " P_e=" << point.prices.edge
                 << " P_c=" << point.prices.cloud);
    const auto eq = solve_followers(params, point.prices, budgets, mode);
    ASSERT_TRUE(eq.converged);
    EXPECT_LE(miner_exploitability(params, point.prices, budgets, eq, mode),
              1e-9 * params.reward);

    // The extragradient needs ~10^4 steps on mixed 50-miner pools, so the
    // mixed variant consults it on the smaller pools only.
    if (mixed && point.n > 20) continue;
    const auto vi =
        solve_followers_vi(params, point.prices, budgets, mode, vi_options);
    if (vi.converged) {
      ++vi_compared;
      for (std::size_t i = 0; i < budgets.size(); ++i) {
        EXPECT_NEAR(eq.request(i).edge, vi.request(i).edge, 1e-6);
        EXPECT_NEAR(eq.request(i).cloud, vi.request(i).cloud, 1e-6);
      }
    }

    if (mixed) continue;
    const double scale = 1.0 + eq.request().total();
    if (mode == EdgeMode::kConnected) {
      // Theorem 3 / Corollary 1 (every grid price is in the mixed regime).
      const MinerRequest closed = homogeneous_connected_request(
          params, point.prices, point.budget, point.n);
      EXPECT_NEAR(eq.request().edge, closed.edge, 1e-9 * scale);
      EXPECT_NEAR(eq.request().cloud, closed.cloud, 1e-9 * scale);
    } else {
      NetworkParams h1 = params;
      h1.edge_success = 1.0;
      if (point.budget >= homogeneous_budget_threshold(h1, point.n)) {
        // Table II, cap-aware: a sufficient budget never binds.
        const auto closed =
            standalone_sufficient_request(params, point.prices, point.n);
        EXPECT_NEAR(eq.request().edge, closed.request.edge, 1e-9 * scale);
        EXPECT_NEAR(eq.request().cloud, closed.request.cloud, 1e-9 * scale);
        EXPECT_NEAR(eq.surcharge, closed.surcharge, 1e-9 * scale);
        EXPECT_EQ(eq.cap_active, closed.cap_active);
      }
    }
  }
  EXPECT_GE(vi_compared, 90);
}

TEST(FollowerGrid, HomogeneousConnected) {
  check_follower_grid(EdgeMode::kConnected, false);
}

TEST(FollowerGrid, HomogeneousStandalone) {
  check_follower_grid(EdgeMode::kStandalone, false);
}

TEST(FollowerGrid, MixedBudgetsConnected) {
  check_follower_grid(EdgeMode::kConnected, true);
}

TEST(FollowerGrid, MixedBudgetsStandalone) {
  check_follower_grid(EdgeMode::kStandalone, true);
}

TEST(FollowerVi, NeverConvergesAtTheZeroEdgeCorner) {
  // The extragradient iterate collapses to E = 0 here, where the edge
  // term's marginal is unbounded; the class solver finds E = 2.235.
  const NetworkParams params;
  const Prices prices{9.5, 1.0};
  const std::vector<double> budgets(20, 30.0);
  const auto vi =
      solve_followers_vi(params, prices, budgets, EdgeMode::kStandalone);
  EXPECT_EQ(vi.totals.edge, 0.0);
  EXPECT_FALSE(vi.converged);
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  ASSERT_TRUE(eq.converged);
  EXPECT_NEAR(eq.totals.edge, 2.235, 1e-3);
}

TEST(FollowerStress, BindingPoolsWithCheapEdgePassTheSampledAudit) {
  // 1000 miners in K budget classes, every budget <= 5, with edge units
  // cheaper than cloud units: the regime where class-by-class updates
  // stall unless the affordable classes move as one block.
  const NetworkParams params;
  const Prices prices{2.0, 2.2};
  for (const int classes : {2, 8}) {
    std::vector<double> budgets(1000);
    for (std::size_t i = 0; i < budgets.size(); ++i)
      budgets[i] = 5.0 *
                   static_cast<double>((i * 7919) %
                                           static_cast<std::size_t>(classes) +
                                       1) /
                   classes;
    for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
      SCOPED_TRACE(testing::Message()
                   << "K=" << classes << " standalone="
                   << (mode == EdgeMode::kStandalone));
      const FollowerOracle oracle(params, budgets, mode);
      ASSERT_EQ(oracle.class_count(), classes);
      const auto eq = oracle.solve(prices);
      EXPECT_TRUE(eq.converged);
      Scenario scenario;
      scenario.params = params;
      scenario.mode = mode;
      scenario.budgets = budgets;
      AuditOptions audit;
      audit.max_audited_miners = 16;
      EXPECT_LE(worst_violation(
                    audit_equilibrium(scenario, prices, eq, audit)),
                1e-6);
    }
  }
}

}  // namespace
}  // namespace hecmine::core

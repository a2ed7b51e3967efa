// Tests for the FollowerOracle layer (core/oracle.hpp): the one follower
// solver must agree with the VI reference, and the factories must build it
// for every pool. Registered
// under the `oracle` ctest label so `ctest -L oracle` runs exactly the
// equivalence suite.
#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/aggregate_oracle.hpp"
#include "core/equilibrium.hpp"
#include "core/sp.hpp"
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
  options.grid_points = 12;
  options.max_rounds = 8;
  options.tolerance = 1e-3;
  return options;
}

TEST(EquilibriumProfileShape, SymmetricAccessorsMapEveryIndexToTheFront) {
  const NetworkParams params = default_params();
  const auto eq = ClassAggregateOracle(params, 40.0, 5, EdgeMode::kConnected)
                      .solve({2.0, 1.0});
  ASSERT_TRUE(eq.converged);
  EXPECT_TRUE(eq.class_shaped());
  EXPECT_EQ(eq.miner_count, 5);
  ASSERT_EQ(eq.requests.size(), 1u);
  // Any miner index resolves to the shared entry.
  EXPECT_EQ(eq.request(0).edge, eq.request(4).edge);
  EXPECT_EQ(eq.utility(0), eq.utility(4));
  const auto profile = eq.expanded();
  ASSERT_EQ(profile.size(), 5u);
  EXPECT_EQ(profile.front().edge, profile.back().edge);
  // Totals are the n-fold replication of the shared request.
  EXPECT_NEAR(eq.totals.edge, 5.0 * eq.request().edge, 1e-12);
  EXPECT_NEAR(eq.totals.cloud, 5.0 * eq.request().cloud, 1e-12);
}

TEST(EquilibriumProfileShape, HeterogeneousAccessorsIndexPerMiner) {
  const NetworkParams params = default_params();
  const std::vector<double> budgets{20.0, 30.0, 40.0};
  const auto eq = ClassAggregateOracle(params, budgets, EdgeMode::kConnected)
                      .solve({2.0, 1.0});
  ASSERT_TRUE(eq.converged);
  ASSERT_EQ(eq.requests.size(), 3u);
  ASSERT_EQ(eq.utilities.size(), 3u);
  EXPECT_EQ(eq.expanded().size(), 3u);
  // Richer miners buy more, so indexing is meaningful.
  EXPECT_GE(eq.request(2).total(), eq.request(0).total() - 1e-9);
  EXPECT_THROW((void)eq.request(3), support::PreconditionError);
}

TEST(OracleParity, SymmetricFastPathMatchesTheFullProfileNep) {
  // Homogeneous budgets: the O(1) one-class solve and the O(n) VI
  // reference must land on the same equilibrium.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets(5, 40.0);
  const auto fast = ClassAggregateOracle(params, 40.0, 5, EdgeMode::kConnected)
                        .solve(prices);
  const auto full =
      solve_followers_vi(params, prices, budgets, EdgeMode::kConnected);
  ASSERT_TRUE(fast.converged);
  ASSERT_TRUE(full.converged);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(full.request(i).edge, fast.request().edge, 1e-3);
    EXPECT_NEAR(full.request(i).cloud, fast.request().cloud, 1e-3);
  }
  EXPECT_NEAR(full.totals.edge, fast.totals.edge, 5e-3);
  EXPECT_NEAR(full.totals.cloud, fast.totals.cloud, 5e-3);
  EXPECT_NEAR(full.utility(0), fast.utility(), 1e-3 * std::abs(fast.utility()) + 1e-4);
}

TEST(OracleParity, GnepSharedPriceAndViAgree) {
  // The class solver's shared-surcharge decomposition and the VI are
  // independent routes to the same variational equilibrium (Theorem 5).
  const NetworkParams params = default_params();
  const Prices prices{2.2, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};
  const auto shared =
      ClassAggregateOracle(params, budgets, EdgeMode::kStandalone)
          .solve(prices);
  const auto vi =
      solve_followers_vi(params, prices, budgets, EdgeMode::kStandalone);
  ASSERT_TRUE(shared.converged);
  ASSERT_TRUE(vi.converged);
  EXPECT_EQ(shared.cap_active, vi.cap_active);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(vi.request(i).edge, shared.request(i).edge, 2e-2);
    EXPECT_NEAR(vi.request(i).cloud, shared.request(i).cloud, 2e-2);
  }
  EXPECT_NEAR(vi.totals.edge, shared.totals.edge, 3e-2);
  EXPECT_NEAR(vi.surcharge, shared.surcharge, 5e-2);
}

TEST(MakeFollowerOracle, DispatchesTheDocumentedFastPaths) {
  const NetworkParams params = default_params();
  // One solver for every pool: equal budgets (one class), heterogeneous
  // pools in both modes, a single miner and degenerate zero budgets.
  const auto class_count = [&](const std::vector<double>& budgets,
                               EdgeMode mode) {
    const auto oracle = make_follower_oracle(params, budgets, mode);
    const auto* solver = dynamic_cast<const ClassAggregateOracle*>(oracle.get());
    return solver == nullptr ? -1 : solver->class_count();
  };
  EXPECT_EQ(class_count({40.0, 40.0, 40.0}, EdgeMode::kConnected), 1);
  EXPECT_EQ(class_count({20.0, 30.0}, EdgeMode::kConnected), 2);
  EXPECT_EQ(class_count({20.0, 30.0}, EdgeMode::kStandalone), 2);
  EXPECT_EQ(class_count({40.0}, EdgeMode::kConnected), 1);
  EXPECT_EQ(class_count({0.0, 0.0}, EdgeMode::kConnected), 1);
  // The degenerate pools still solve: the lone miner plays the epsilon
  // probe, zero budgets buy nothing.
  const auto zero = solve_followers(params, {2.0, 1.0}, {0.0, 0.0},
                                    EdgeMode::kConnected);
  EXPECT_TRUE(zero.converged);
  EXPECT_EQ(zero.totals.grand(), 0.0);
}

TEST(SolveFollowers, AutoDispatchMatchesTheExplicitSymmetricCall) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const auto dispatched =
      solve_followers(params, prices, {40.0, 40.0, 40.0, 40.0, 40.0},
                      EdgeMode::kConnected);
  const auto explicit_symmetric =
      solve_followers_symmetric(params, prices, 40.0, 5, EdgeMode::kConnected);
  EXPECT_EQ(dispatched.requests.size(), 1u);
  EXPECT_EQ(dispatched.request().edge, explicit_symmetric.request().edge);
  EXPECT_EQ(dispatched.request().cloud, explicit_symmetric.request().cloud);
  EXPECT_EQ(dispatched.totals.edge, explicit_symmetric.totals.edge);
}

TEST(LeaderStage, AutoDispatchAgreesWithTheForcedProfileOracle) {
  // solve_leader_stage on equal budgets takes the homogeneous stage (closed
  // form CSP reactions); the force_profile_oracle hook pins the general
  // stage (numeric reactions). Both must find the same leader equilibrium.
  const NetworkParams params = default_params();
  const std::vector<double> budgets(3, 30.0);
  SpSolveOptions options = fast_options();
  // The parity claim is about the equilibrium, not the last digit of the
  // follower fixed point; a loose inner tolerance keeps the profile-oracle
  // reaction scans affordable.
  options.context.follower.tolerance = 1e-6;
  options.context.follower.max_iterations = 800;
  const auto fast =
      solve_leader_stage(params, budgets, EdgeMode::kConnected, options);
  options.force_profile_oracle = true;
  const auto full =
      solve_leader_stage(params, budgets, EdgeMode::kConnected, options);
  // Both paths must converge — here via the shared Theorem 4 sequential
  // fallback, because this price game cycles under simultaneous moves.
  ASSERT_TRUE(fast.converged);
  ASSERT_TRUE(full.converged);
  EXPECT_EQ(fast.method, full.method);
  EXPECT_EQ(fast.followers.requests.size(), 1u);
  EXPECT_EQ(full.followers.requests.size(), 1u);
  EXPECT_NEAR(full.prices.edge, fast.prices.edge,
              0.05 * fast.prices.edge + 1e-3);
  EXPECT_NEAR(full.prices.cloud, fast.prices.cloud,
              0.05 * fast.prices.cloud + 1e-3);
  const double fast_welfare = fast.profits.edge + fast.profits.cloud;
  const double full_welfare = full.profits.edge + full.profits.cloud;
  EXPECT_NEAR(full_welfare, fast_welfare, 0.03 * std::abs(fast_welfare));
  EXPECT_NEAR(full.followers.totals.grand(), fast.followers.totals.grand(),
              0.05 * fast.followers.totals.grand());
}

TEST(Exploitability, ProfileOverloadCertifiesOracleEquilibria) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};
  const auto connected =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  EXPECT_LT(miner_exploitability(params, prices, budgets, connected,
                                 EdgeMode::kConnected),
            1e-4);
  const auto standalone =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  EXPECT_LT(miner_exploitability(params, prices, budgets, standalone,
                                 EdgeMode::kStandalone),
            1e-3);
  // The one-class shape accepts a single shared budget entry.
  const auto symmetric =
      solve_followers_symmetric(params, prices, 40.0, 5, EdgeMode::kConnected);
  EXPECT_LT(miner_exploitability(params, prices, {40.0}, symmetric,
                                 EdgeMode::kConnected),
            1e-4);
}

TEST(PopulationOracle, IsDeterministicInTheContextRngRoot) {
  const NetworkParams params = default_params();
  const PopulationModel population = PopulationModel::around(10.0, 2.0);
  SolveContext context;
  context.rng_root = 42;
  const PopulationExpectationOracle oracle(params, 12.0, population,
                                           EdgeMode::kConnected, 64, context);
  const auto first = oracle.solve({2.0, 1.0});
  const auto second = oracle.solve({2.0, 1.0});
  EXPECT_EQ(first.request().edge, second.request().edge);  // bitwise
  EXPECT_EQ(first.totals.edge, second.totals.edge);
  EXPECT_EQ(first.utility(), second.utility());
  EXPECT_EQ(first.requests.size(), 1u);
  EXPECT_GE(oracle.miner_count(), 2);
}

}  // namespace
}  // namespace hecmine::core

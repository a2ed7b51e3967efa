// Tests for the FollowerOracle layer (core/oracle.hpp): every oracle must
// agree with its underlying solver, and the dispatch helpers must pick the
// documented fast paths. Registered
// under the `oracle` ctest label so `ctest -L oracle` runs exactly the
// equivalence suite.
#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

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
  const auto eq = SymmetricFollowerOracle(params, 40.0, 5,
                                          EdgeMode::kConnected)
                      .solve({2.0, 1.0});
  ASSERT_TRUE(eq.converged);
  EXPECT_TRUE(eq.symmetric);
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
  const auto eq = ConnectedNepOracle(params, budgets).solve({2.0, 1.0});
  ASSERT_TRUE(eq.converged);
  EXPECT_FALSE(eq.symmetric);
  ASSERT_EQ(eq.requests.size(), 3u);
  ASSERT_EQ(eq.utilities.size(), 3u);
  EXPECT_EQ(eq.expanded().size(), 3u);
  // Richer miners buy more, so indexing is meaningful.
  EXPECT_GE(eq.request(2).total(), eq.request(0).total() - 1e-9);
  EXPECT_THROW((void)eq.request(3), support::PreconditionError);
}

TEST(OracleParity, SymmetricFastPathMatchesTheFullProfileNep) {
  // Homogeneous budgets: the O(1) symmetric fixed point and the O(n)
  // best-response NEP must land on the same equilibrium.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets(5, 40.0);
  const auto fast =
      SymmetricFollowerOracle(params, 40.0, 5, EdgeMode::kConnected)
          .solve(prices);
  const auto full = ConnectedNepOracle(params, budgets).solve(prices);
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
  // The two standalone algorithms are independent routes to the same
  // variational equilibrium (Theorem 5).
  const NetworkParams params = default_params();
  const Prices prices{2.2, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};
  const auto shared =
      StandaloneGnepOracle(params, budgets, GnepAlgorithm::kSharedPrice)
          .solve(prices);
  const auto vi =
      StandaloneGnepOracle(params, budgets, GnepAlgorithm::kVi).solve(prices);
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
  // Equal budgets: symmetric fast path.
  EXPECT_TRUE(dynamic_cast<SymmetricFollowerOracle*>(
      make_follower_oracle(params, {40.0, 40.0, 40.0}, EdgeMode::kConnected)
          .get()));
  // Heterogeneous: the mode picks the profile oracle.
  EXPECT_TRUE(dynamic_cast<ConnectedNepOracle*>(
      make_follower_oracle(params, {20.0, 30.0}, EdgeMode::kConnected).get()));
  EXPECT_TRUE(dynamic_cast<StandaloneGnepOracle*>(
      make_follower_oracle(params, {20.0, 30.0}, EdgeMode::kStandalone)
          .get()));
  // A single miner cannot play the symmetric game.
  EXPECT_TRUE(dynamic_cast<ConnectedNepOracle*>(
      make_follower_oracle(params, {40.0}, EdgeMode::kConnected).get()));
  // Degenerate zero budgets skip the fast path (it needs budget > 0).
  EXPECT_TRUE(dynamic_cast<ConnectedNepOracle*>(
      make_follower_oracle(params, {0.0, 0.0}, EdgeMode::kConnected).get()));
}

TEST(SolveFollowers, AutoDispatchMatchesTheExplicitSymmetricCall) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const auto dispatched =
      solve_followers(params, prices, {40.0, 40.0, 40.0, 40.0, 40.0},
                      EdgeMode::kConnected);
  const auto explicit_symmetric =
      solve_followers_symmetric(params, prices, 40.0, 5, EdgeMode::kConnected);
  EXPECT_TRUE(dispatched.symmetric);
  EXPECT_EQ(dispatched.request().edge, explicit_symmetric.request().edge);
  EXPECT_EQ(dispatched.request().cloud, explicit_symmetric.request().cloud);
  EXPECT_EQ(dispatched.totals.edge, explicit_symmetric.totals.edge);
}

TEST(LeaderStage, AutoDispatchAgreesWithTheForcedProfileOracle) {
  // solve_leader_stage on equal budgets takes the symmetric fast path; the
  // force_profile_oracle hook pins the full NEP. Both must find the same
  // leader equilibrium (this is the refactor's core parity claim).
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
  EXPECT_TRUE(fast.followers.symmetric);
  EXPECT_FALSE(full.followers.symmetric);
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
  const auto connected = ConnectedNepOracle(params, budgets).solve(prices);
  EXPECT_LT(miner_exploitability(params, prices, budgets, connected,
                                 EdgeMode::kConnected),
            1e-4);
  const auto standalone = StandaloneGnepOracle(params, budgets).solve(prices);
  EXPECT_LT(miner_exploitability(params, prices, budgets, standalone,
                                 EdgeMode::kStandalone),
            1e-3);
  // The symmetric shape accepts a single shared budget entry.
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
  EXPECT_TRUE(first.symmetric);
  EXPECT_GE(oracle.miner_count(), 2);
}

}  // namespace
}  // namespace hecmine::core

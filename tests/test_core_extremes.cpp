// Extreme-parameter and invariance tests: limits of the model (no forks,
// heavy forks, near-degenerate prices, large n) and scaling symmetries
// the equilibrium must respect.
#include <gtest/gtest.h>

#include <cmath>

#include "core/closed_forms.hpp"
#include "core/oracle.hpp"
#include "core/winning.hpp"
#include "support/error.hpp"

namespace hecmine::core {
namespace {

NetworkParams base_params() {
  NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 50.0;
  return params;
}

TEST(Extremes, NoForksMakesEdgeWorthless) {
  // beta = 0: the edge has no latency advantage, so with P_e > P_c nobody
  // buys edge units.
  NetworkParams params = base_params();
  params.fork_rate = 0.0;
  const auto eq = solve_followers_symmetric(params, {2.0, 1.0}, 100.0, 5,
                                            EdgeMode::kConnected);
  ASSERT_TRUE(eq.converged);
  EXPECT_NEAR(eq.request().edge, 0.0, 1e-7);
  EXPECT_GT(eq.request().cloud, 0.0);
}

TEST(Extremes, HeavyForksPushEverythingToTheEdge) {
  // beta near 1: cloud blocks are almost always orphaned, so cloud demand
  // stays a small share even at a large price gap.
  NetworkParams params = base_params();
  params.fork_rate = 0.95;
  const auto eq = solve_followers_symmetric(params, {4.0, 1.0}, 1e5, 5,
                                            EdgeMode::kConnected);
  ASSERT_TRUE(eq.converged);
  EXPECT_GT(eq.request().edge, 0.0);
  const double cloud_share =
      eq.request().cloud / std::max(eq.request().total(), 1e-12);
  EXPECT_LT(cloud_share, 0.35);
}

TEST(Extremes, NearEqualPricesAreEdgeOnly) {
  // P_e barely above P_c: the beta h bonus makes edge strictly better.
  const NetworkParams params = base_params();
  const auto eq = solve_followers_symmetric(params, {1.0 + 1e-6, 1.0}, 100.0,
                                            5, EdgeMode::kConnected);
  ASSERT_TRUE(eq.converged);
  EXPECT_NEAR(eq.request().cloud, 0.0, 1e-6);
}

TEST(Extremes, LargeNApproachesFullDissipation) {
  // Tullock limit: per-miner spend ~ R(n-1)(1-beta+h beta)/n^2 -> total
  // spend -> R(1-beta+h beta).
  const NetworkParams params = base_params();
  const Prices prices{2.0, 1.0};
  const int n = 60;
  const auto eq =
      solve_followers_symmetric(params, prices, 1e6, n, EdgeMode::kConnected);
  ASSERT_TRUE(eq.converged);
  const double total_spend =
      n * request_cost(eq.request(), prices);
  const double limit =
      params.reward * (1.0 - 0.2 + 0.9 * 0.2) * (n - 1.0) / n;
  EXPECT_NEAR(total_spend, limit, 1e-3 * limit);
}

TEST(Extremes, TwoMinersMatchClosedForm) {
  const NetworkParams params = base_params();
  const Prices prices{2.0, 1.0};
  const auto eq =
      solve_followers_symmetric(params, prices, 1e6, 2, EdgeMode::kConnected);
  const auto closed = homogeneous_sufficient_request(params, prices, 2);
  EXPECT_NEAR(eq.request().edge, closed.edge, 1e-7);
  EXPECT_NEAR(eq.request().cloud, closed.cloud, 1e-7);
}

TEST(Invariance, RewardScalesSufficientRequestsLinearly) {
  const Prices prices{2.0, 1.0};
  NetworkParams params = base_params();
  const auto base = homogeneous_sufficient_request(params, prices, 5);
  params.reward *= 3.0;
  const auto scaled = homogeneous_sufficient_request(params, prices, 5);
  EXPECT_NEAR(scaled.edge, 3.0 * base.edge, 1e-10);
  EXPECT_NEAR(scaled.cloud, 3.0 * base.cloud, 1e-10);
}

TEST(Invariance, JointPriceBudgetScalingLeavesRequestsUnchanged) {
  // (P_e, P_c, B) -> (k P_e, k P_c, k B) is a pure unit change of money:
  // the binding equilibrium requests are invariant.
  const NetworkParams params = base_params();
  const double k = 3.7;
  const auto base =
      homogeneous_binding_request(params, {2.0, 1.0}, 8.0, 5);
  const auto scaled =
      homogeneous_binding_request(params, {2.0 * k, 1.0 * k}, 8.0 * k, 5);
  EXPECT_NEAR(scaled.edge, base.edge, 1e-10);
  EXPECT_NEAR(scaled.cloud, base.cloud, 1e-10);
}

TEST(Invariance, JointRewardPriceScalingLeavesSufficientRequestsUnchanged) {
  // Scaling R and both prices by k cancels in the FOCs.
  NetworkParams params = base_params();
  const auto base = homogeneous_sufficient_request(params, {2.0, 1.0}, 5);
  params.reward *= 2.5;
  const auto scaled =
      homogeneous_sufficient_request(params, {5.0, 2.5}, 5);
  EXPECT_NEAR(scaled.edge, base.edge, 1e-10);
  EXPECT_NEAR(scaled.cloud, base.cloud, 1e-10);
}

TEST(Invariance, MinerPermutationLeavesEquilibriumSetUnchanged) {
  const NetworkParams params = base_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{7.0, 11.0, 15.0};
  const std::vector<double> permuted{15.0, 7.0, 11.0};
  const auto eq_a =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  const auto eq_b =
      solve_followers(params, prices, permuted, EdgeMode::kConnected);
  ASSERT_TRUE(eq_a.converged);
  ASSERT_TRUE(eq_b.converged);
  // Same budgets -> same requests, wherever they sit in the vector.
  EXPECT_NEAR(eq_a.request(0).edge, eq_b.request(1).edge, 1e-6);
  EXPECT_NEAR(eq_a.request(1).cloud, eq_b.request(2).cloud, 1e-6);
  EXPECT_NEAR(eq_a.request(2).total(), eq_b.request(0).total(), 1e-6);
}

TEST(Extremes, TinyCapacityStillYieldsAValidGnep) {
  NetworkParams params = base_params();
  params.edge_capacity = 0.05;
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{30.0, 40.0};
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  ASSERT_TRUE(eq.converged);
  EXPECT_TRUE(eq.cap_active);
  EXPECT_LE(eq.totals.edge, params.edge_capacity * (1.0 + 1e-6));
  EXPECT_GT(eq.surcharge, 0.0);
  EXPECT_GT(eq.totals.cloud, 0.0);
}

TEST(Extremes, WinningProbabilityStableUnderHugeAsymmetry) {
  // One whale vs a dust miner: probabilities remain valid and ordered.
  const std::vector<MinerRequest> profile{{1e6, 1e6}, {1e-6, 1e-6}};
  const Totals totals = aggregate(profile);
  const double w_whale = win_prob_full(profile[0], totals, 0.3);
  const double w_dust = win_prob_full(profile[1], totals, 0.3);
  EXPECT_NEAR(w_whale + w_dust, 1.0, 1e-9);
  EXPECT_GT(w_whale, 0.999);
  EXPECT_GT(w_dust, 0.0);
}

}  // namespace
}  // namespace hecmine::core

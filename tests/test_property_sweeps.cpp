// Property-style sweeps: equilibrium invariants over a broad grid of
// (beta, h, n, price, budget) configurations. Each property must hold at
// *every* grid point — these tests are the library's wide-net safety
// check behind the targeted unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/closed_forms.hpp"
#include "core/oracle.hpp"
#include "core/welfare.hpp"
#include "core/winning.hpp"
#include "support/rng.hpp"

namespace hecmine::core {
namespace {

struct SweepCase {
  double beta;
  double h;
  int n;
  double price_edge;
  double price_cloud;
  double budget;
};

std::vector<SweepCase> sweep_grid() {
  std::vector<SweepCase> cases;
  for (double beta : {0.05, 0.2, 0.45}) {
    for (double h : {0.5, 0.9}) {
      for (int n : {2, 5, 9}) {
        for (double budget : {6.0, 40.0, 5000.0}) {
          cases.push_back({beta, h, n, 2.0, 1.0, budget});
        }
      }
    }
  }
  // A few off-grid price configurations.
  cases.push_back({0.2, 0.9, 5, 1.2, 1.0, 50.0});   // small price gap
  cases.push_back({0.2, 0.9, 5, 8.0, 0.5, 50.0});   // large price gap
  cases.push_back({0.2, 0.9, 5, 1.0, 1.5, 50.0});   // cloud pricier
  return cases;
}

NetworkParams params_of(const SweepCase& c) {
  NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = c.beta;
  params.edge_success = c.h;
  params.edge_capacity = 10.0;
  return params;
}

class EquilibriumSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EquilibriumSweep, ConnectedNepInvariants) {
  const SweepCase c = sweep_grid()[GetParam()];
  const NetworkParams params = params_of(c);
  const Prices prices{c.price_edge, c.price_cloud};
  const std::vector<double> budgets(static_cast<std::size_t>(c.n), c.budget);
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  ASSERT_TRUE(eq.converged) << "beta=" << c.beta << " h=" << c.h;

  // (1) feasibility: budgets and non-negativity.
  for (const auto& request : eq.expanded()) {
    EXPECT_GE(request.edge, -1e-12);
    EXPECT_GE(request.cloud, -1e-12);
    EXPECT_LE(request_cost(request, prices), c.budget + 1e-6);
  }
  // (2) epsilon-Nash: no unilateral improvement.
  EXPECT_NEAR(
      miner_exploitability(params, prices, budgets, eq, EdgeMode::kConnected),
      0.0, 2e-4);
  // (3) symmetry: homogeneous miners play identically (unique NE).
  for (const auto& request : eq.expanded()) {
    EXPECT_NEAR(request.edge, eq.request(0).edge, 1e-5);
    EXPECT_NEAR(request.cloud, eq.request(0).cloud, 1e-5);
  }
  // (4) individual rationality.
  for (std::size_t i = 0; i < budgets.size(); ++i)
    EXPECT_GE(eq.utility(i), -1e-7);
  // (5) welfare identity at h = 1 (no conditional-model leak).
  if (c.h == 1.0) {
    double sum = 0.0;
    for (std::size_t i = 0; i < budgets.size(); ++i) sum += eq.utility(i);
    const auto report = welfare_report(params, prices, eq.totals);
    EXPECT_NEAR(sum, report.miner_surplus, 1e-5);
  }
  // (6) the one-class entry point agrees with the budget-vector oracle.
  const auto symmetric = solve_followers_symmetric(params, prices, c.budget,
                                                   c.n, EdgeMode::kConnected);
  EXPECT_NEAR(symmetric.request().edge, eq.request(0).edge, 2e-4);
  EXPECT_NEAR(symmetric.request().cloud, eq.request(0).cloud, 2e-3);
}

TEST_P(EquilibriumSweep, StandaloneGnepInvariants) {
  const SweepCase c = sweep_grid()[GetParam()];
  const NetworkParams params = params_of(c);
  const Prices prices{c.price_edge, c.price_cloud};
  const std::vector<double> budgets(static_cast<std::size_t>(c.n), c.budget);
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  ASSERT_TRUE(eq.converged) << "beta=" << c.beta << " h=" << c.h;

  // (1) the shared constraint holds with complementary surcharge.
  EXPECT_LE(eq.totals.edge, params.edge_capacity * (1.0 + 1e-6));
  if (eq.surcharge > 1e-9) {
    EXPECT_NEAR(eq.totals.edge, params.edge_capacity,
                1e-4 * params.edge_capacity);
  }
  EXPECT_GE(eq.surcharge, 0.0);
  // (2) feasibility.
  for (const auto& request : eq.expanded()) {
    EXPECT_GE(request.edge, -1e-12);
    EXPECT_GE(request.cloud, -1e-12);
    EXPECT_LE(request_cost(request, prices), c.budget + 1e-6);
  }
  // (3) epsilon-Nash of the mu-penalized decoupled game (variational KKT).
  EXPECT_NEAR(
      miner_exploitability(params, prices, budgets, eq, EdgeMode::kStandalone),
      0.0, 2e-4);
}

TEST_P(EquilibriumSweep, WinningProbabilitiesSumToOneAtEquilibrium) {
  const SweepCase c = sweep_grid()[GetParam()];
  const NetworkParams params = params_of(c);
  const Prices prices{c.price_edge, c.price_cloud};
  const std::vector<double> budgets(static_cast<std::size_t>(c.n), c.budget);
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  if (eq.totals.grand() <= 0.0) GTEST_SKIP();
  EXPECT_NEAR(total_win_probability(eq.expanded(), params.fork_rate), 1.0,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, EquilibriumSweep,
                         ::testing::Range<std::size_t>(0, 57));

class ClosedFormSweep
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(ClosedFormSweep, Theorem3AndCorollary1MatchTheSolver) {
  const auto [beta, h, n] = GetParam();
  NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = beta;
  params.edge_success = h;
  const Prices prices{2.0, 1.0};
  const double bound = mixed_strategy_cloud_price_bound(params, prices.edge);
  if (prices.cloud >= bound * (1.0 - 1e-6)) GTEST_SKIP();

  const double threshold = homogeneous_budget_threshold(params, n);
  // Binding branch.
  const double binding_budget = 0.6 * threshold;
  const auto numeric_binding = solve_followers_symmetric(
      params, prices, binding_budget, n, EdgeMode::kConnected);
  const auto closed_binding =
      homogeneous_binding_request(params, prices, binding_budget, n);
  EXPECT_NEAR(numeric_binding.request().edge, closed_binding.edge, 1e-6);
  EXPECT_NEAR(numeric_binding.request().cloud, closed_binding.cloud, 1e-6);
  // Sufficient branch.
  const auto numeric_sufficient = solve_followers_symmetric(
      params, prices, 10.0 * threshold, n, EdgeMode::kConnected);
  const auto closed_sufficient =
      homogeneous_sufficient_request(params, prices, n);
  EXPECT_NEAR(numeric_sufficient.request().edge, closed_sufficient.edge, 1e-6);
  EXPECT_NEAR(numeric_sufficient.request().cloud, closed_sufficient.cloud,
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClosedFormSweep,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.4),
                       ::testing::Values(0.5, 0.75, 1.0),
                       ::testing::Values(2, 5, 12)));

}  // namespace
}  // namespace hecmine::core

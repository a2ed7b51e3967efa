// Tests for core/welfare: the rent-dissipation decomposition and its
// consistency with the equilibrium solvers.
#include "core/welfare.hpp"

#include <gtest/gtest.h>

#include "core/oracle.hpp"
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

TEST(Welfare, DecompositionOnHandExample) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const Totals totals{10.0, 20.0};
  const auto report = welfare_report(params, prices, totals);
  EXPECT_DOUBLE_EQ(report.miner_spend, 40.0);
  EXPECT_DOUBLE_EQ(report.miner_surplus, 60.0);
  EXPECT_DOUBLE_EQ(report.sp_profit_edge, 10.0);
  EXPECT_DOUBLE_EQ(report.sp_profit_cloud, 12.0);
  EXPECT_DOUBLE_EQ(report.resource_cost, 18.0);
  EXPECT_DOUBLE_EQ(report.social_welfare, 82.0);
  EXPECT_DOUBLE_EQ(report.dissipation, 0.4);
}

TEST(Welfare, IdentitiesHoldByConstruction) {
  const NetworkParams params = default_params();
  const Prices prices{2.5, 1.1};
  const Totals totals{4.0, 12.0};
  const auto report = welfare_report(params, prices, totals);
  EXPECT_NEAR(report.miner_surplus + report.sp_profit() +
                  report.resource_cost,
              params.reward, 1e-12);
  EXPECT_NEAR(report.social_welfare,
              report.miner_surplus + report.sp_profit(), 1e-12);
}

TEST(Welfare, AggregateUtilityMatchesIdentity) {
  // Theorem 1 makes aggregate income exactly R, so sum U_i = R - spend.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<MinerRequest> requests{{2.0, 1.0}, {1.0, 3.0}, {0.5, 2.0}};
  const Totals totals = aggregate(requests);
  const double spend =
      prices.edge * totals.edge + prices.cloud * totals.cloud;
  EXPECT_NEAR(aggregate_utility(params, prices, requests),
              params.reward - spend, 1e-9);
}

TEST(Welfare, EquilibriumUtilitiesSumToTheReport) {
  // The NEP's per-miner utilities must aggregate to the welfare report's
  // miner surplus (h = 1 so the conditional model has no leak).
  NetworkParams params = default_params();
  params.edge_success = 1.0;
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{20.0, 30.0, 40.0};
  const auto eq =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  ASSERT_TRUE(eq.converged);
  const auto report = welfare_report(params, prices, eq);
  double sum = 0.0;
  for (double u : eq.utilities) sum += u;
  EXPECT_NEAR(sum, report.miner_surplus, 1e-6);
}

TEST(Welfare, DissipationRisesWithCompetition) {
  // More miners dissipate more of the prize (classic Tullock result:
  // spend -> R as n grows).
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  double previous = 0.0;
  for (int n : {2, 3, 5, 10, 20}) {
    const auto eq = solve_followers_symmetric(params, prices, 1e6, n,
                                              EdgeMode::kConnected);
    const auto report = welfare_report(params, prices, eq);
    EXPECT_GT(report.dissipation, previous);
    EXPECT_LT(report.dissipation, 1.0);  // never exceeds the prize
    previous = report.dissipation;
  }
}

TEST(Welfare, SocialWelfareHigherWhenCapacityRestrainsCompetition) {
  // The standalone cap is a welfare-improving commitment device: it limits
  // rent dissipation on the (costlier) edge resource.
  const NetworkParams params = default_params();  // E_max = 8 binds below
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{40.0, 40.0, 40.0, 40.0, 40.0};
  const auto connected =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  const auto standalone =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  ASSERT_TRUE(standalone.cap_active);
  const auto report_connected = welfare_report(params, prices, connected);
  const auto report_standalone = welfare_report(params, prices, standalone);
  EXPECT_GT(report_standalone.miner_surplus, report_connected.miner_surplus);
}

TEST(Welfare, ValidatesInputs) {
  const NetworkParams params = default_params();
  EXPECT_THROW((void)welfare_report(params, {0.0, 1.0}, Totals{1.0, 1.0}),
               support::PreconditionError);
  EXPECT_THROW((void)welfare_report(params, {1.0, 1.0}, Totals{-1.0, 1.0}),
               support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::core

// Tests for FollowerOracle's class solver (core/aggregate_oracle.hpp): the
// K-dimensional class fixed point must land on the same equilibrium as the
// dense per-miner VI reference (Theorem 2's uniqueness makes the NE
// symmetric within budget classes), lazy per-miner expansion must be
// transparent to every consumer, and make_follower_oracle must bucket
// every pool. Registered under the `aggregate` ctest label.
#include "core/aggregate_oracle.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/audit.hpp"
#include "core/closed_forms.hpp"
#include "core/equilibrium.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "core/sp.hpp"
#include "core/welfare.hpp"
#include "support/error.hpp"

namespace hecmine::core {
namespace {

// Documented parity tolerance between the aggregate solver and the dense
// VI reference: both stop within ~1e-9 of the unique equilibrium, so
// per-miner requests agree to ~1e-6 resource units at reward scale 100.
constexpr double kParityTol = 1e-5;

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

// Three budget classes over five miners, with duplicates in arbitrary order.
std::vector<double> few_class_budgets() { return {120.0, 50.0, 120.0, 50.0, 200.0}; }

TEST(ClassPartition, ExactKeysBucketDuplicatesAndSortAscending) {
  const auto partition = partition_budget_classes(few_class_budgets());
  ASSERT_EQ(partition.classes.size(), 3u);
  EXPECT_EQ(partition.classes[0].budget, 50.0);
  EXPECT_EQ(partition.classes[0].count, 2);
  EXPECT_EQ(partition.classes[1].budget, 120.0);
  EXPECT_EQ(partition.classes[1].count, 2);
  EXPECT_EQ(partition.classes[2].budget, 200.0);
  EXPECT_EQ(partition.classes[2].count, 1);
  const std::vector<std::uint32_t> expected{1, 0, 1, 0, 2};
  EXPECT_EQ(partition.class_of, expected);
}

TEST(ClassPartition, RejectsNegativeInputs) {
  EXPECT_THROW((void)partition_budget_classes({-1.0}),
               support::PreconditionError);
}

TEST(ClassAggregateOracleParity, ConnectedMatchesDenseNepPerMiner) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets = few_class_budgets();
  const auto dense =
      solve_followers_vi(params, prices, budgets, EdgeMode::kConnected);
  const auto aggregate =
      FollowerOracle(params, budgets, EdgeMode::kConnected)
          .solve(prices);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(aggregate.converged);
  EXPECT_TRUE(aggregate.class_shaped());
  EXPECT_EQ(aggregate.miner_count, dense.miner_count);
  EXPECT_NEAR(aggregate.totals.edge, dense.totals.edge, kParityTol);
  EXPECT_NEAR(aggregate.totals.cloud, dense.totals.cloud, kParityTol);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(aggregate.request(i).edge, dense.request(i).edge, kParityTol);
    EXPECT_NEAR(aggregate.request(i).cloud, dense.request(i).cloud,
                kParityTol);
    EXPECT_NEAR(aggregate.utility(i), dense.utility(i), kParityTol);
  }
}

TEST(ClassAggregateOracleParity, StandaloneMatchesDenseGnepWithActiveCap) {
  NetworkParams params = default_params();
  params.edge_capacity = 4.0;  // small cap so the shared constraint binds
  const Prices prices{1.5, 1.0};
  const std::vector<double> budgets = few_class_budgets();
  const auto dense =
      solve_followers_vi(params, prices, budgets, EdgeMode::kStandalone);
  const auto aggregate =
      FollowerOracle(params, budgets, EdgeMode::kStandalone)
          .solve(prices);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(aggregate.converged);
  EXPECT_EQ(aggregate.cap_active, dense.cap_active);
  EXPECT_NEAR(aggregate.totals.edge, dense.totals.edge, 1e-4);
  EXPECT_NEAR(aggregate.surcharge, dense.surcharge, 1e-3);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(aggregate.request(i).edge, dense.request(i).edge, 1e-4);
    EXPECT_NEAR(aggregate.request(i).cloud, dense.request(i).cloud, 1e-4);
    EXPECT_NEAR(aggregate.utility(i), dense.utility(i), 1e-3);
  }
}

TEST(ClassAggregateOracleParity, HomogeneousPoolMatchesSymmetricOracle) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets(6, 40.0);
  const auto symmetric = solve_followers_symmetric(params, prices, 40.0, 6,
                                                   EdgeMode::kConnected);
  const auto aggregate =
      FollowerOracle(params, budgets, EdgeMode::kConnected)
          .solve(prices);
  ASSERT_TRUE(aggregate.converged);
  EXPECT_EQ(FollowerOracle(params, budgets, EdgeMode::kConnected)
                .class_count(),
            1);
  EXPECT_NEAR(aggregate.request(0).edge, symmetric.request().edge, kParityTol);
  EXPECT_NEAR(aggregate.request(0).cloud, symmetric.request().cloud,
              kParityTol);
  // Both are Corollary 1 / Theorem 3's closed form.
  const MinerRequest closed =
      homogeneous_connected_request(params, prices, 40.0, 6);
  EXPECT_NEAR(aggregate.request(0).edge, closed.edge, kParityTol);
  EXPECT_NEAR(aggregate.request(0).cloud, closed.cloud, kParityTol);
}

TEST(ClassAggregateOracle, ExpansionIsExactlyClassSymmetric) {
  const NetworkParams params = default_params();
  const auto profile =
      FollowerOracle(params, few_class_budgets(), EdgeMode::kConnected)
          .solve({2.0, 1.0});
  // Miners 1 and 3 share budget 50, miners 0 and 2 share budget 120: their
  // lazily expanded requests are the same object, hence bitwise equal.
  EXPECT_EQ(profile.request(1).edge, profile.request(3).edge);
  EXPECT_EQ(profile.request(0).cloud, profile.request(2).cloud);
  EXPECT_EQ(profile.utility(1), profile.utility(3));
  const auto expanded = profile.expanded();
  ASSERT_EQ(expanded.size(), 5u);
  EXPECT_EQ(expanded[0].edge, expanded[2].edge);
  EXPECT_THROW((void)profile.request(5), support::PreconditionError);
  // Totals equal the count-weighted class sum.
  double edge = 0.0;
  for (const auto& request : expanded) edge += request.edge;
  EXPECT_NEAR(profile.totals.edge, edge, 1e-9);
}

TEST(ClassAggregateOracle, SolveIsBitwiseIdenticalAcrossThreadCounts) {
  const NetworkParams params = default_params();
  const std::vector<double> budgets = few_class_budgets();
  for (EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    SolveContext serial;
    serial.threads = 1;
    SolveContext parallel;
    parallel.threads = 4;
    const auto a =
        FollowerOracle(params, budgets, mode, serial).solve({2.0, 1.0});
    const auto b =
        FollowerOracle(params, budgets, mode, parallel).solve({2.0, 1.0});
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t k = 0; k < a.requests.size(); ++k) {
      EXPECT_EQ(a.requests[k].edge, b.requests[k].edge);
      EXPECT_EQ(a.requests[k].cloud, b.requests[k].cloud);
      EXPECT_EQ(a.utilities[k], b.utilities[k]);
    }
    EXPECT_EQ(a.totals.edge, b.totals.edge);
    EXPECT_EQ(a.surcharge, b.surcharge);
  }
}

TEST(ProfileOracleDispatch, MakeFollowerOracleRoutesHeterogeneousPools) {
  const NetworkParams params = default_params();
  // The factory buckets the pool: three budget classes over five miners.
  const auto oracle = make_follower_oracle(params, few_class_budgets(),
                                           EdgeMode::kConnected, {});
  EXPECT_EQ(oracle->class_count(), 3);
  EXPECT_EQ(oracle->miner_count(), 5);
}

TEST(ClassAggregateOracle, LeaderStageAndConsumersAcceptClassProfiles) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets = few_class_budgets();
  SolveContext context;
  const auto profile =
      make_follower_oracle(params, budgets, EdgeMode::kConnected, context)
          ->solve(prices);
  ASSERT_TRUE(profile.class_shaped());
  // welfare: the O(K) class path equals the expanded per-miner sum.
  const double class_sum = aggregate_utility(params, prices, profile);
  EquilibriumProfile dense_view = profile;
  dense_view.requests = profile.expanded();
  dense_view.utilities.clear();
  for (std::size_t i = 0; i < budgets.size(); ++i)
    dense_view.utilities.push_back(profile.utility(i));
  dense_view.classes.reset();
  EXPECT_NEAR(class_sum, aggregate_utility(params, prices, dense_view), 1e-9);
  // audit: full and sampled certificates accept the class shape.
  Scenario scenario;
  scenario.params = params;
  scenario.mode = EdgeMode::kConnected;
  scenario.budgets = budgets;
  AuditOptions audit_options;
  audit_options.context = context;
  const AuditReport full = audit_equilibrium(scenario, prices, profile,
                                             audit_options);
  EXPECT_LE(full.best_response_gap, 1e-6 * params.reward);
  audit_options.max_audited_miners = 3;
  const AuditReport sampled = audit_equilibrium(scenario, prices, profile,
                                                audit_options);
  EXPECT_EQ(sampled.budget_slack.size(), 3u);
  EXPECT_LE(sampled.best_response_gap, full.best_response_gap + 1e-12);
}

}  // namespace
}  // namespace hecmine::core

// Tests for core/population and core/dynamic (paper Section V): the
// truncated Gaussian miner-count law, the symmetric and the typed dynamic
// equilibria, including the paper's headline findings on population
// uncertainty, and the share solution against the gradient reference.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/closed_forms.hpp"
#include "core/dynamic.hpp"
#include "core/miner.hpp"
#include "core/oracle.hpp"
#include "core/population.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hecmine::core {
namespace {

TEST(PopulationModel, PmfSumsToOne) {
  const PopulationModel model(10.0, 2.0, 1, 25);
  double total = 0.0;
  for (int k = model.min_miners(); k <= model.max_miners(); ++k)
    total += model.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(model.pmf(0), 0.0);
  EXPECT_DOUBLE_EQ(model.pmf(26), 0.0);
}

TEST(PopulationModel, MomentsApproximateTheGaussian) {
  // Paper Fig. 3 toy: mu = 10, sigma^2 = 4. Centered bins keep the mean.
  const PopulationModel model = PopulationModel::around(10.0, 2.0);
  EXPECT_NEAR(model.mean(), 10.0, 0.02);
  EXPECT_NEAR(model.variance(), 4.0, 0.15);
}

TEST(PopulationModel, DegenerateStddevConcentrates) {
  const PopulationModel model(7.0, 0.0, 1, 20);
  EXPECT_NEAR(model.pmf(7), 1.0, 1e-12);
  EXPECT_NEAR(model.mean(), 7.0, 1e-12);
}

TEST(PopulationModel, SampleMatchesPmf) {
  const PopulationModel model = PopulationModel::around(10.0, 2.0);
  support::Rng rng{41};
  std::vector<int> counts(40, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[static_cast<std::size_t>(model.sample(rng))];
  for (int k = model.min_miners(); k <= model.max_miners(); ++k) {
    const double empirical =
        static_cast<double>(counts[static_cast<std::size_t>(k)]) / draws;
    EXPECT_NEAR(empirical, model.pmf(k), 0.01);
  }
}

TEST(PopulationModel, ValidatesArguments) {
  EXPECT_THROW(PopulationModel(5.0, 1.0, 0, 10), support::PreconditionError);
  EXPECT_THROW(PopulationModel(5.0, 1.0, 10, 5), support::PreconditionError);
  EXPECT_THROW(PopulationModel(5.0, -1.0, 1, 10), support::PreconditionError);
  // All the mass far outside the support.
  EXPECT_THROW(PopulationModel(1000.0, 0.0, 1, 10),
               support::PreconditionError);
}

DynamicGameConfig default_config() {
  DynamicGameConfig config;
  config.params.reward = 100.0;
  config.params.fork_rate = 0.2;
  config.params.edge_capacity = 8.0;
  config.prices = {2.0, 1.0};
  config.budget = 100.0;
  config.params.edge_success = 0.5;  // the paper's Eq. (26) instance
  return config;
}

TEST(DynamicUtility, DegeneratePopulationMatchesStaticGame) {
  // With N fixed at n, the dynamic utility is the connected-mode utility.
  DynamicGameConfig config = default_config();
  const PopulationModel fixed(5.0, 0.0, 1, 10);
  const MinerRequest own{2.0, 3.0};
  const MinerRequest others{1.5, 2.5};
  MinerEnv env;
  env.reward = config.params.reward;
  env.fork_rate = config.params.fork_rate;
  env.edge_success = config.params.edge_success;
  env.prices = config.prices;
  env.budget = config.budget;
  env.others = {4.0 * others.edge, 4.0 * others.cloud};
  EXPECT_NEAR(dynamic_miner_utility(config, fixed, own, others),
              miner_utility(env, own), 1e-10);
}

TEST(DynamicGradient, MatchesFiniteDifferences) {
  const DynamicGameConfig config = default_config();
  const PopulationModel population = PopulationModel::around(8.0, 2.0);
  support::Rng rng{42};
  for (int trial = 0; trial < 50; ++trial) {
    const MinerRequest own{rng.uniform(0.2, 10.0), rng.uniform(0.2, 10.0)};
    const MinerRequest others{rng.uniform(0.2, 10.0), rng.uniform(0.2, 10.0)};
    const auto [du_de, du_dc] =
        dynamic_miner_gradient(config, population, own, others);
    const double step = 1e-6;
    const double fd_e =
        (dynamic_miner_utility(config, population, {own.edge + step, own.cloud}, others) -
         dynamic_miner_utility(config, population, {own.edge - step, own.cloud}, others)) /
        (2.0 * step);
    const double fd_c =
        (dynamic_miner_utility(config, population, {own.edge, own.cloud + step}, others) -
         dynamic_miner_utility(config, population, {own.edge, own.cloud - step}, others)) /
        (2.0 * step);
    EXPECT_NEAR(du_de, fd_e, 1e-4 * (1.0 + std::abs(fd_e)));
    EXPECT_NEAR(du_dc, fd_c, 1e-4 * (1.0 + std::abs(fd_c)));
  }
}

TEST(DynamicBestResponse, StaysWithinBudget) {
  const DynamicGameConfig config = default_config();
  const PopulationModel population = PopulationModel::around(8.0, 2.0);
  const MinerRequest response =
      dynamic_best_response(config, population, {1.0, 5.0});
  EXPECT_GE(response.edge, 0.0);
  EXPECT_GE(response.cloud, 0.0);
  EXPECT_LE(request_cost(response, config.prices), config.budget + 1e-6);
}

TEST(DynamicEquilibrium, DegeneratePopulationMatchesFixedNSolver) {
  // N = 5 surely: the dynamic game is the fixed-N game, to rounding, on
  // the mixed face (P_e = 2), the edge-only face (P_e = 1.05 and 0.8 fail
  // Theorem 3's price condition at P_c = 1), with slack and binding
  // budgets (the symmetric spend is 14.4 at n = 5).
  DynamicGameConfig config = default_config();
  const PopulationModel fixed(5.0, 0.0, 1, 10);
  const NetworkParams params = config.params;
  for (double budget : {3.0, 12.0, 200.0}) {
    for (double price_edge : {2.0, 1.05, 0.8}) {
      config.budget = budget;
      config.prices = {price_edge, 1.0};
      const auto dynamic = solve_dynamic_symmetric(config, fixed);
      ASSERT_TRUE(dynamic.converged) << budget << " " << price_edge;
      const auto static_eq = solve_followers_symmetric(
          params, config.prices, budget, 5, EdgeMode::kConnected);
      ASSERT_TRUE(static_eq.converged);
      const MinerRequest expected = static_eq.request();
      EXPECT_NEAR(dynamic.request.edge, expected.edge, 1e-12 * expected.edge)
          << budget << " " << price_edge;
      EXPECT_NEAR(dynamic.request.cloud, expected.cloud,
                  1e-12 * expected.cloud)
          << budget << " " << price_edge;
    }
  }
}

TEST(DynamicEquilibrium, UncertaintyInflatesEdgeDemand) {
  // Paper Sec. V / Fig. 9a: population uncertainty renders miners more
  // aggressive at the ESP than the fixed-N benchmark. (The effect is a
  // Jensen gap of E[(N-1)/N^2] over the fixed value; it requires the
  // population to stay clear of the N = 1 boundary, as in the paper's
  // mu = 10, sigma^2 = 4 toy.)
  const DynamicGameConfig config = default_config();
  const PopulationModel uncertain = PopulationModel::around(10.0, 2.0);
  const auto dynamic = solve_dynamic_symmetric(config, uncertain);
  ASSERT_TRUE(dynamic.converged);
  const MinerRequest fixed = fixed_population_benchmark(config, uncertain);
  EXPECT_GT(dynamic.request.edge, fixed.edge);
}

TEST(DynamicEquilibrium, LargerVarianceMoreEspProne) {
  // Paper Fig. 9b: the edge request grows with the population variance.
  const DynamicGameConfig config = default_config();
  double previous = 0.0;
  for (double stddev : {0.5, 1.5, 3.0}) {
    const PopulationModel population = PopulationModel::around(10.0, stddev);
    const auto eq = solve_dynamic_symmetric(config, population);
    ASSERT_TRUE(eq.converged);
    EXPECT_GT(eq.request.edge, previous);
    previous = eq.request.edge;
  }
}

TEST(DynamicEquilibrium, CanExceedStandaloneCapacity) {
  // Paper Sec. V: expected total edge demand can exceed E_max because no
  // shared-constraint coordination is possible under population
  // uncertainty.
  DynamicGameConfig config = default_config();
  config.params.edge_capacity = 4.0;
  const PopulationModel population = PopulationModel::around(6.0, 2.5);
  const auto eq = solve_dynamic_symmetric(config, population);
  ASSERT_TRUE(eq.converged);
  EXPECT_NEAR(eq.expected_total_edge, population.mean() * eq.request.edge,
              1e-9);
  EXPECT_TRUE(eq.exceeds_capacity);
}

TEST(DynamicEquilibrium, EdgeRequestFollowsTheNetworkEdgeSuccess) {
  // h lives in config.params alone. On the mixed face with slack budgets
  // e* = R beta h G/(P_e - P_c) is linear in h, and the fixed-N benchmark
  // moves with h too.
  DynamicGameConfig low = default_config();
  DynamicGameConfig high = low;
  high.params.edge_success = 0.9;
  const PopulationModel population = PopulationModel::around(10.0, 2.0);
  const auto low_eq = solve_dynamic_symmetric(low, population);
  const auto high_eq = solve_dynamic_symmetric(high, population);
  ASSERT_TRUE(low_eq.converged);
  ASSERT_TRUE(high_eq.converged);
  EXPECT_NEAR(high_eq.request.edge / low_eq.request.edge, 0.9 / 0.5, 1e-12);
  EXPECT_NE(fixed_population_benchmark(high, population).edge,
            fixed_population_benchmark(low, population).edge);
}

TEST(DynamicSolve, ValidatesConfig) {
  DynamicGameConfig config = default_config();
  config.budget = 0.0;
  const PopulationModel population = PopulationModel::around(5.0, 1.0);
  EXPECT_THROW((void)solve_dynamic_symmetric(config, population),
               support::PreconditionError);
}

TEST(DynamicSolve, LoneMinerPopulationHasNoEquilibrium) {
  // With no mass on k >= 2 a miner is always alone and wins with any
  // positive request, so no request is a best response: the solve returns
  // zero requests and no certificate.
  const DynamicGameConfig config = default_config();
  const PopulationModel alone(1.0, 0.0, 1, 10);
  const auto symmetric = solve_dynamic_symmetric(config, alone);
  EXPECT_FALSE(symmetric.converged);
  EXPECT_EQ(symmetric.residual, std::numeric_limits<double>::infinity());
  EXPECT_EQ(symmetric.request.edge, 0.0);
  EXPECT_EQ(symmetric.request.cloud, 0.0);
  EXPECT_EQ(symmetric.expected_total_edge, 0.0);
  const auto typed =
      solve_dynamic_types(config, alone, {{3.0, 0.5}, {30.0, 0.5}});
  EXPECT_FALSE(typed.converged);
  EXPECT_EQ(typed.residual, std::numeric_limits<double>::infinity());
  ASSERT_EQ(typed.requests.size(), 2u);
  EXPECT_EQ(typed.requests[1].edge, 0.0);
  EXPECT_EQ(typed.mixture.edge, 0.0);
}

TEST(DynamicShareSolve, EveryTypePlaysABestResponseToTheMixture) {
  // The share solution against the projected-gradient reference: on both
  // faces (at P_c = 1 Theorem 3's price condition holds for P_e > 1.125;
  // P_e = 1.5 at P_c = 2 is edge-only too) and for one to three types, no
  // type gains by the reference's reply, and a type whose budget binds
  // plays Theorem 3's request (B/P_e on the edge-only face). Edge-only
  // pools with slack budgets are included on purpose: damped best-response
  // iteration does not settle on them.
  DynamicGameConfig config = default_config();
  const NetworkParams params = config.params;
  const std::vector<PopulationModel> populations{
      PopulationModel(5.0, 0.0, 1, 10), PopulationModel::around(6.0, 2.0),
      PopulationModel::around(10.0, 0.5), PopulationModel::around(20.0, 4.0),
      PopulationModel::poisson_around(8.0)};
  const std::vector<Prices> price_grid{{0.8, 1.0}, {1.1, 1.0}, {1.5, 1.0},
                                       {2.0, 1.0}, {4.0, 1.0}, {1.5, 2.0}};
  const std::vector<std::vector<MinerType>> mixes{
      {{12.0, 1.0}},
      {{50.0, 1.0}},
      {{0.5, 1.0}},
      {{3.0, 0.5}, {40.0, 0.5}},
      {{1.0, 0.2}, {5.0, 0.3}, {50.0, 0.5}},
  };
  int solves = 0, binding = 0, edge_only_slack = 0;
  for (const auto& population : populations) {
    for (const Prices& prices : price_grid) {
      config.prices = prices;
      const bool mixed_face =
          prices.cloud < mixed_strategy_cloud_price_bound(params, prices.edge);
      for (const auto& types : mixes) {
        ++solves;
        const auto eq = solve_dynamic_types(config, population, types);
        ASSERT_TRUE(eq.converged) << solves << " residual " << eq.residual;
        EXPECT_LE(eq.residual, 1e-9);
        for (std::size_t t = 0; t < types.size(); ++t) {
          DynamicGameConfig typed = config;
          typed.budget = types[t].budget;
          const MinerRequest& share = eq.requests[t];
          const double at_share =
              dynamic_miner_utility(typed, population, share, eq.mixture);
          const MinerRequest reference =
              dynamic_best_response(typed, population, eq.mixture);
          const double at_reference =
              dynamic_miner_utility(typed, population, reference, eq.mixture);
          EXPECT_LE(at_reference - at_share, 1e-9 * std::abs(at_share))
              << solves << " type " << t;
          if (request_cost(share, prices) < typed.budget * (1.0 - 1e-12)) {
            if (!mixed_face) ++edge_only_slack;
            continue;
          }
          ++binding;
          // n does not enter Theorem 3's request.
          const MinerRequest theorem3 =
              mixed_face ? homogeneous_binding_request(params, prices,
                                                       typed.budget, 2)
                         : MinerRequest{typed.budget / prices.edge, 0.0};
          EXPECT_NEAR(share.edge, theorem3.edge, 1e-12 * theorem3.edge);
          EXPECT_NEAR(share.cloud, theorem3.cloud, 1e-12 * theorem3.cloud);
        }
      }
    }
  }
  EXPECT_GE(solves, 100);
  EXPECT_GT(binding, 50);
  EXPECT_GT(edge_only_slack, 20);
}

DynamicGameConfig typed_config() {
  DynamicGameConfig config = default_config();
  config.budget = 0.0;  // ignored by the typed solver
  return config;
}

TEST(DynamicTypes, SingleTypeReducesToTheSymmetricSolver) {
  DynamicGameConfig config = typed_config();
  const PopulationModel population = PopulationModel::around(10.0, 2.0);
  const auto typed = solve_dynamic_types(config, population,
                                         {{12.0, 1.0}});
  ASSERT_TRUE(typed.converged);
  config.budget = 12.0;
  const auto symmetric = solve_dynamic_symmetric(config, population);
  ASSERT_TRUE(symmetric.converged);
  EXPECT_NEAR(typed.requests[0].edge, symmetric.request.edge, 2e-4);
  EXPECT_NEAR(typed.requests[0].cloud, symmetric.request.cloud, 2e-3);
  EXPECT_NEAR(typed.expected_total_edge, symmetric.expected_total_edge, 2e-3);
}

TEST(DynamicTypes, RicherTypeRequestsWeaklyMore) {
  const DynamicGameConfig config = typed_config();
  const PopulationModel population = PopulationModel::around(8.0, 2.0);
  const auto typed = solve_dynamic_types(
      config, population, {{3.0, 0.5}, {40.0, 0.5}});
  ASSERT_TRUE(typed.converged);
  // The poor type is budget-limited; the rich type plays the unconstrained
  // best response against the mixture.
  EXPECT_LT(request_cost(typed.requests[0], config.prices), 3.0 + 1e-7);
  EXPECT_GE(typed.requests[1].total(), typed.requests[0].total() - 1e-9);
}

TEST(DynamicTypes, EqualBudgetsCollapseTypeDistinctions) {
  const DynamicGameConfig config = typed_config();
  const PopulationModel population = PopulationModel::around(8.0, 1.5);
  const auto typed = solve_dynamic_types(
      config, population, {{12.0, 0.3}, {12.0, 0.7}});
  ASSERT_TRUE(typed.converged);
  EXPECT_NEAR(typed.requests[0].edge, typed.requests[1].edge, 1e-5);
  EXPECT_NEAR(typed.requests[0].cloud, typed.requests[1].cloud, 1e-4);
}

TEST(DynamicTypes, MixtureIsTheFractionWeightedAverage) {
  const DynamicGameConfig config = typed_config();
  const PopulationModel population = PopulationModel::around(8.0, 1.5);
  const auto typed = solve_dynamic_types(
      config, population, {{5.0, 0.25}, {30.0, 0.75}});
  ASSERT_TRUE(typed.converged);
  EXPECT_NEAR(typed.mixture.edge,
              0.25 * typed.requests[0].edge + 0.75 * typed.requests[1].edge,
              1e-12);
}

TEST(DynamicTypes, PoorMajorityDampensAggregateEdgeDemand) {
  const DynamicGameConfig config = typed_config();
  const PopulationModel population = PopulationModel::around(10.0, 2.0);
  const auto rich_heavy = solve_dynamic_types(
      config, population, {{3.0, 0.2}, {30.0, 0.8}});
  const auto poor_heavy = solve_dynamic_types(
      config, population, {{3.0, 0.8}, {30.0, 0.2}});
  ASSERT_TRUE(rich_heavy.converged);
  ASSERT_TRUE(poor_heavy.converged);
  EXPECT_LT(poor_heavy.expected_total_edge, rich_heavy.expected_total_edge);
}

TEST(DynamicTypes, Validates) {
  const DynamicGameConfig config = typed_config();
  const PopulationModel population = PopulationModel::around(8.0, 1.0);
  EXPECT_THROW((void)solve_dynamic_types(config, population, {}),
               support::PreconditionError);
  EXPECT_THROW((void)solve_dynamic_types(config, population,
                                         {{10.0, 0.5}, {10.0, 0.6}}),
               support::PreconditionError);
  EXPECT_THROW((void)solve_dynamic_types(config, population, {{0.0, 1.0}}),
               support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::core

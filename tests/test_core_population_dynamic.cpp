// Tests for core/population and core/dynamic (paper Section V): the
// truncated Gaussian miner-count law and the symmetric dynamic equilibrium,
// including the paper's headline findings on population uncertainty.
#include <gtest/gtest.h>

#include <cmath>

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
  config.edge_success = 0.5;  // the paper's Eq. (26) instance
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
  env.edge_success = config.edge_success;
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
  DynamicGameConfig config = default_config();
  const PopulationModel fixed(5.0, 0.0, 1, 10);
  const auto dynamic = solve_dynamic_symmetric(config, fixed);
  ASSERT_TRUE(dynamic.converged);
  NetworkParams params = config.params;
  params.edge_success = config.edge_success;
  const auto static_eq = solve_followers_symmetric(
      params, config.prices, config.budget, 5, EdgeMode::kConnected);
  ASSERT_TRUE(static_eq.converged);
  EXPECT_NEAR(dynamic.request.edge, static_eq.request().edge, 2e-3);
  EXPECT_NEAR(dynamic.request.cloud, static_eq.request().cloud, 2e-2);
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

TEST(DynamicSolve, ValidatesConfig) {
  DynamicGameConfig config = default_config();
  config.budget = 0.0;
  const PopulationModel population = PopulationModel::around(5.0, 1.0);
  EXPECT_THROW((void)solve_dynamic_symmetric(config, population),
               support::PreconditionError);
  config = default_config();
  EXPECT_THROW((void)solve_dynamic_symmetric(config, population, 1.5),
               support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::core

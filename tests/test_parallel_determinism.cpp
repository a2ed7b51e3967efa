// Bitwise determinism of the parallelized hot paths: the same inputs must
// produce the same bits for every thread count. The suite compares
// threads=1 against threads=4 on the Stackelberg leader iteration, the SP
// leader stage, and the Monte-Carlo population sweep, and checks the MC
// estimator against the exact pmf expectation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/dynamic.hpp"
#include "core/population.hpp"
#include "core/sp.hpp"
#include "game/stackelberg.hpp"
#include "numerics/optimize.hpp"

namespace hecmine {
namespace {

core::NetworkParams test_params() {
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  return params;
}

TEST(ParallelDeterminism, MaximizeScanIsBitwiseStableAcrossThreadCounts) {
  const auto f = [](double x) {
    return std::sin(3.0 * x) - 0.2 * (x - 1.0) * (x - 1.0);
  };
  num::Maximize1DOptions options;
  options.grid_points = 37;
  const auto serial = num::maximize_scan_parallel(f, 0.0, 4.0, options, 1);
  for (int threads : {2, 4, 7}) {
    const auto parallel =
        num::maximize_scan_parallel(f, 0.0, 4.0, options, threads);
    EXPECT_EQ(parallel.argmax, serial.argmax) << "threads=" << threads;
    EXPECT_EQ(parallel.value, serial.value) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, StackelbergLeaderIterationMatchesSerialBitwise) {
  // Two leaders with coupled concave payoffs (a pricing-style duopoly).
  const game::LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                         std::size_t leader) {
    const double own = actions[leader];
    const double other = actions[1 - leader];
    return own * (10.0 - 2.0 * own + 0.5 * other);
  };
  const std::vector<game::ActionBounds> bounds{{0.1, 8.0}, {0.1, 8.0}};
  game::StackelbergOptions options;
  options.grid_points = 24;
  options.context.threads = 1;
  const auto serial =
      game::solve_stackelberg(payoff, {1.0, 1.0}, bounds, options);
  options.context.threads = 4;
  const auto parallel =
      game::solve_stackelberg(payoff, {1.0, 1.0}, bounds, options);
  ASSERT_TRUE(serial.converged);
  EXPECT_EQ(parallel.actions, serial.actions);  // bitwise
  EXPECT_EQ(parallel.payoffs, serial.payoffs);
  EXPECT_EQ(parallel.rounds, serial.rounds);
}

TEST(ParallelDeterminism, StackelbergPayoffsAreReusedFromTheFinalScan) {
  const game::LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                         std::size_t leader) {
    const double own = actions[leader];
    const double other = actions[1 - leader];
    return own * (10.0 - 2.0 * own + 0.5 * other);
  };
  const std::vector<game::ActionBounds> bounds{{0.1, 8.0}, {0.1, 8.0}};
  game::StackelbergOptions options;
  options.grid_points = 24;
  options.context.threads = 1;
  const auto result =
      game::solve_stackelberg(payoff, {1.0, 1.0}, bounds, options);
  ASSERT_TRUE(result.converged);
  // At convergence the reused scan values must agree with a fresh
  // evaluation at the final profile to within the residual scale.
  for (std::size_t leader = 0; leader < 2; ++leader) {
    EXPECT_NEAR(result.payoffs[leader], payoff(result.actions, leader),
                1e-5 + 10.0 * result.residual);
  }
}

TEST(ParallelDeterminism, SpLeaderStageMatchesSerialBitwise) {
  const core::NetworkParams params = test_params();
  core::SpSolveOptions options;
  options.grid_points = 12;
  options.max_rounds = 6;  // bounded: determinism needs no convergence
  options.context.threads = 1;
  const auto serial = core::solve_leader_stage_homogeneous(
      params, 200.0, 5, core::EdgeMode::kConnected, options);
  options.context.threads = 4;
  const auto parallel = core::solve_leader_stage_homogeneous(
      params, 200.0, 5, core::EdgeMode::kConnected, options);
  EXPECT_EQ(parallel.prices.edge, serial.prices.edge);  // bitwise
  EXPECT_EQ(parallel.prices.cloud, serial.prices.cloud);
  EXPECT_EQ(parallel.profits.edge, serial.profits.edge);
  EXPECT_EQ(parallel.profits.cloud, serial.profits.cloud);
  EXPECT_EQ(parallel.rounds, serial.rounds);
}

core::DynamicGameConfig dynamic_config() {
  core::DynamicGameConfig config;
  config.params = test_params();
  config.params.edge_capacity = 8.0;
  config.prices = {2.0, 1.0};
  config.budget = 12.0;
  config.edge_success = 0.5;
  return config;
}

TEST(ParallelDeterminism, MonteCarloSweepMatchesSerialBitwise) {
  const auto config = dynamic_config();
  const auto population = core::PopulationModel::around(10.0, 2.0);
  const core::MinerRequest own{2.0, 3.0};
  const core::MinerRequest others{1.8, 3.2};
  const auto serial = core::dynamic_miner_utility_monte_carlo(
      config, population, own, others, 20000, 777, 1);
  for (int threads : {2, 4}) {
    const auto parallel = core::dynamic_miner_utility_monte_carlo(
        config, population, own, others, 20000, 777, threads);
    EXPECT_EQ(parallel.estimate, serial.estimate) << "threads=" << threads;
    EXPECT_EQ(parallel.std_error, serial.std_error) << "threads=" << threads;
    EXPECT_EQ(parallel.samples, serial.samples);
  }
}

TEST(ParallelDeterminism, MonteCarloAgreesWithThePmfExpectation) {
  const auto config = dynamic_config();
  const auto population = core::PopulationModel::around(10.0, 2.0);
  const core::MinerRequest own{2.0, 3.0};
  const core::MinerRequest others{1.8, 3.2};
  const double exact =
      core::dynamic_miner_utility(config, population, own, others);
  const auto mc = core::dynamic_miner_utility_monte_carlo(
      config, population, own, others, 200000, 2024, 0);
  ASSERT_GT(mc.std_error, 0.0);
  EXPECT_NEAR(mc.estimate, exact, 4.0 * mc.std_error + 1e-9);
}

TEST(ParallelDeterminism, MonteCarloSeedChangesTheDraws) {
  const auto config = dynamic_config();
  const auto population = core::PopulationModel::around(10.0, 2.0);
  const core::MinerRequest own{2.0, 3.0};
  const auto a = core::dynamic_miner_utility_monte_carlo(
      config, population, own, own, 5000, 1, 0);
  const auto b = core::dynamic_miner_utility_monte_carlo(
      config, population, own, own, 5000, 2, 0);
  EXPECT_NE(a.estimate, b.estimate);
}

}  // namespace
}  // namespace hecmine

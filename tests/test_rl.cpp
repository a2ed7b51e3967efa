// Tests for the RL framework (paper Sec. VI-C): learners find optimal arms,
// trained strategies track the analytic equilibria, and the adaptive
// pricing loop moves prices toward profitability.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dynamic.hpp"
#include "core/oracle.hpp"
#include "core/sp.hpp"
#include "rl/fictitious.hpp"
#include "rl/learner.hpp"
#include "rl/trainer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hecmine::rl {
namespace {

core::NetworkParams default_params() {
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 20.0;
  params.cost_edge = 1.0;
  params.cost_cloud = 0.4;
  return params;
}

TEST(ActionGrid, CoversBudgetPolytope) {
  const auto grid = ActionGrid::budget_grid({2.0, 1.0}, 10.0, 5, 5);
  EXPECT_EQ(grid.size(), 25u);
  for (const auto& action : grid.actions) {
    EXPECT_GE(action.edge, 0.0);
    EXPECT_GE(action.cloud, 0.0);
    EXPECT_LE(core::request_cost(action, {2.0, 1.0}), 10.0 + 1e-9);
  }
  // The extremes are present: all-edge and all-cloud.
  bool has_all_edge = false, has_all_cloud = false;
  for (const auto& action : grid.actions) {
    if (action.edge > 4.99 && action.cloud < 1e-9) has_all_edge = true;
    if (action.cloud > 9.99 && action.edge < 1e-9) has_all_cloud = true;
  }
  EXPECT_TRUE(has_all_edge);
  EXPECT_TRUE(has_all_cloud);
}

TEST(ActionGrid, ValidatesInput) {
  EXPECT_THROW((void)ActionGrid::budget_grid({0.0, 1.0}, 10.0, 5, 5),
               support::PreconditionError);
  EXPECT_THROW((void)ActionGrid::budget_grid({1.0, 1.0}, 0.0, 5, 5),
               support::PreconditionError);
  EXPECT_THROW((void)ActionGrid::budget_grid({1.0, 1.0}, 10.0, 1, 5),
               support::PreconditionError);
}

TEST(BanditLearner, FindsBestArmOnStationaryBandit) {
  support::Rng rng{91};
  const std::vector<double> means{1.0, 3.0, 2.0, -1.0};
  BanditLearner learner(means.size(), 0.3, 0.1);
  for (int step = 0; step < 5000; ++step) {
    const std::size_t arm = learner.select(rng);
    learner.update(arm, means[arm] + rng.normal(0.0, 0.5));
    learner.decay_epsilon(0.999, 0.01);
  }
  EXPECT_EQ(learner.best_action(), 1u);
}

TEST(BanditLearner, FirstSampleInitializesValue) {
  BanditLearner learner(2, 0.0, 0.1);
  learner.update(0, 10.0);
  EXPECT_DOUBLE_EQ(learner.values()[0], 10.0);
  learner.update(0, 0.0);
  EXPECT_DOUBLE_EQ(learner.values()[0], 9.0);  // 10 + 0.1 (0 - 10)
}

TEST(BanditLearner, EpsilonDecayRespectsFloor) {
  BanditLearner learner(2, 0.5, 0.1);
  for (int i = 0; i < 1000; ++i) learner.decay_epsilon(0.5, 0.07);
  EXPECT_DOUBLE_EQ(learner.epsilon(), 0.07);
}

TEST(BanditLearner, ValidatesArguments) {
  EXPECT_THROW(BanditLearner(0, 0.1, 0.1), support::PreconditionError);
  EXPECT_THROW(BanditLearner(2, 1.5, 0.1), support::PreconditionError);
  EXPECT_THROW(BanditLearner(2, 0.1, 0.0), support::PreconditionError);
  BanditLearner learner(2, 0.1, 0.1);
  EXPECT_THROW(learner.update(5, 1.0), support::PreconditionError);
}

TEST(TrainMiners, FixedPopulationConvergesNearSymmetricNe) {
  // Degenerate population at n = 5: the learned strategies should land
  // within about one grid step of the analytic symmetric NE.
  const core::NetworkParams params = default_params();
  const core::Prices prices{2.0, 1.0};
  const double budget = 60.0;
  const core::PopulationModel fixed(5.0, 0.0, 1, 5);
  TrainerConfig config;
  config.blocks = 4000;
  config.edge_steps = 21;
  config.cloud_steps = 21;
  config.edge_success = params.edge_success;
  config.feedback = FeedbackMode::kExpected;
  const auto trained = train_miners(params, prices, budget, fixed, config, 92);

  core::NetworkParams h_params = params;
  const auto analytic = core::solve_followers_symmetric(
      h_params, prices, budget, 5, core::EdgeMode::kConnected);
  ASSERT_TRUE(analytic.converged);
  const double edge_step = (budget / prices.edge) / 20.0;
  const double cloud_step = (budget / prices.cloud) / 20.0;
  EXPECT_NEAR(trained.mean.edge, analytic.request().edge, 1.5 * edge_step);
  EXPECT_NEAR(trained.mean.cloud, analytic.request().cloud, 2.5 * cloud_step);
}

TEST(TrainMiners, UncertainPopulationTracksDynamicEquilibrium) {
  // The RL counterpart of Fig. 9: learners facing a random miner count
  // converge near the analytic dynamic symmetric equilibrium (Sec. V).
  // (The uncertain-vs-fixed *gap* itself is a few percent — below any
  // reasonable action-grid resolution — so the ordering claim is verified
  // at model level in test_core_population_dynamic; here we check the RL
  // framework tracks the model, which is what the paper's Fig. 9 shows.)
  const core::NetworkParams params = default_params();
  const core::Prices prices{2.0, 1.0};
  const double budget = 12.0;
  TrainerConfig config;
  config.blocks = 8000;
  config.edge_steps = 13;
  config.cloud_steps = 13;
  config.epsilon_decay = 0.9995;
  config.epsilon_floor = 0.05;
  config.edge_success = 0.5;
  const core::PopulationModel uncertain =
      core::PopulationModel::around(10.0, 2.0);
  const auto learned =
      train_miners(params, prices, budget, uncertain, config, 93);

  core::DynamicGameConfig dyn;
  dyn.params = params;
  dyn.prices = prices;
  dyn.budget = budget;
  dyn.params.edge_success = 0.5;
  const auto analytic = core::solve_dynamic_symmetric(dyn, uncertain);
  ASSERT_TRUE(analytic.converged);
  const double edge_step = (budget / prices.edge) / 12.0;
  EXPECT_NEAR(learned.mean.edge, analytic.request.edge, 2.0 * edge_step);
  // The utility surface is nearly flat in the cloud direction, so the
  // greedy arm wanders inside a wide near-optimal band; assert epsilon-
  // equilibrium quality instead of coordinates: no profitable deviation
  // beyond a few percent of the achievable utility.
  const double at_learned =
      core::dynamic_miner_utility(dyn, uncertain, learned.mean, learned.mean);
  const core::MinerRequest best =
      core::dynamic_best_response(dyn, uncertain, learned.mean);
  const double at_best =
      core::dynamic_miner_utility(dyn, uncertain, best, learned.mean);
  // Threshold reflects the action-grid granularity: even the best grid
  // point is an epsilon-best response against a continuum deviation.
  EXPECT_LE(at_best - at_learned, 0.1 * std::abs(at_best) + 0.3);
}

TEST(TrainMiners, RealizedFeedbackStaysInTheSameRegion) {
  // Realized (race-sampled) rewards are noisy; the learned strategy should
  // still land in the neighbourhood of the expected-feedback result.
  const core::NetworkParams params = default_params();
  const core::Prices prices{2.0, 1.0};
  const double budget = 60.0;
  const core::PopulationModel fixed(4.0, 0.0, 1, 4);
  TrainerConfig expected_config;
  expected_config.blocks = 3000;
  expected_config.edge_success = 0.9;
  TrainerConfig realized_config = expected_config;
  realized_config.blocks = 30000;
  realized_config.feedback = FeedbackMode::kRealized;
  realized_config.learning_rate = 0.05;
  const auto expected =
      train_miners(params, prices, budget, fixed, expected_config, 94);
  const auto realized =
      train_miners(params, prices, budget, fixed, realized_config, 94);
  const double scale = budget / prices.cloud;
  EXPECT_NEAR(realized.mean.total(), expected.mean.total(), 0.35 * scale);
}

TEST(TrainMiners, ValidatesArguments) {
  const core::NetworkParams params = default_params();
  const core::PopulationModel fixed(3.0, 0.0, 1, 3);
  TrainerConfig config;
  config.blocks = 0;
  EXPECT_THROW(
      (void)train_miners(params, {2.0, 1.0}, 10.0, fixed, config, 1),
      support::PreconditionError);
  config = TrainerConfig{};
  EXPECT_THROW(
      (void)train_miners(params, {0.0, 1.0}, 10.0, fixed, config, 1),
      support::PreconditionError);
}

TEST(AdaptivePricing, FictitiousPlayDemandRecoversTheCspReaction) {
  // The Sec. VI-C fixed point, tested with learned-but-continuous demand:
  // holding the ESP at its analytic equilibrium price, the CSP's profit
  // hill over *fictitious-play* demand peaks near the analytic reaction.
  // (Grid bandits cannot support this test — their action grid rescales
  // with 1/price, quantizing demand differently at every probe; the
  // aggregate-belief learner has continuous actions.)
  const core::NetworkParams params = default_params();
  const core::PopulationModel population(5.0, 0.0, 1, 5);
  const double budget = 40.0;

  core::SpSolveOptions sp_options;
  sp_options.grid_points = 24;
  sp_options.max_rounds = 25;
  const auto analytic = core::solve_leader_stage_homogeneous(
      params, budget, 5, core::EdgeMode::kConnected, sp_options);

  const auto learned_cloud_profit = [&](double pc) {
    FictitiousPlayConfig fp;
    fp.blocks = 400;
    fp.edge_success = params.edge_success;
    const auto played = run_fictitious_play(
        params, {analytic.prices.edge, pc}, budget, population, fp, 321);
    return (pc - params.cost_cloud) * 5.0 * played.mean.cloud;
  };
  double best_pc = 0.0, best_profit = -1e18;
  for (double pc = 0.6; pc <= 3.4; pc += 0.2) {
    const double profit = learned_cloud_profit(pc);
    if (profit > best_profit) {
      best_profit = profit;
      best_pc = pc;
    }
  }
  EXPECT_NEAR(best_pc, analytic.prices.cloud,
              0.25 * analytic.prices.cloud + 0.2);
}

TEST(AdaptivePricing, MovesTowardProfitablePrices) {
  // Starting from near-cost prices, both SPs should raise prices and end
  // with positive profit estimates.
  const core::NetworkParams params = default_params();
  const core::PopulationModel population(4.0, 0.0, 1, 4);
  AdaptivePricingConfig config;
  config.trainer.blocks = 800;
  config.trainer.edge_steps = 13;
  config.trainer.cloud_steps = 13;
  config.trainer.edge_success = 0.9;
  config.max_periods = 12;
  const core::Prices start{params.cost_edge * 1.1, params.cost_cloud * 1.1};
  const auto result =
      adaptive_pricing_loop(params, start, 60.0, population, config, 95);
  EXPECT_GT(result.prices.edge, params.cost_edge);
  EXPECT_GT(result.prices.cloud, params.cost_cloud);
  EXPECT_GE(result.prices.edge, start.edge * 0.99);
  EXPECT_GT(result.miners.mean.total(), 0.0);
}

}  // namespace
}  // namespace hecmine::rl

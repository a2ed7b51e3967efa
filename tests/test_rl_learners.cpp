// Tests for the extended learner family (UCB1, Boltzmann) and the learner
// selection / learning-curve features of the trainer.
#include <gtest/gtest.h>

#include <cmath>

#include "core/oracle.hpp"
#include "rl/learner.hpp"
#include "rl/trainer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hecmine::rl {
namespace {

const std::vector<double> kArmMeans{1.0, 3.0, 2.0, -1.0};

template <typename L>
std::size_t run_bandit(L& learner, int steps, std::uint64_t seed) {
  support::Rng rng{seed};
  for (int step = 0; step < steps; ++step) {
    const std::size_t arm = learner.select(rng);
    learner.update(arm, kArmMeans[arm] + rng.normal(0.0, 0.5));
    learner.end_round();
  }
  return learner.best_action();
}

TEST(Ucb1, FindsBestArm) {
  Ucb1Learner learner(kArmMeans.size(), 1.0);
  EXPECT_EQ(run_bandit(learner, 3000, 11), 1u);
}

TEST(Ucb1, PlaysEveryArmFirst) {
  Ucb1Learner learner(3, 1.0);
  support::Rng rng{12};
  std::vector<bool> seen(3, false);
  for (int i = 0; i < 3; ++i) {
    const std::size_t arm = learner.select(rng);
    EXPECT_FALSE(seen[arm]);  // never repeats before covering all arms
    seen[arm] = true;
    learner.update(arm, 0.0);
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Ucb1, Validates) {
  EXPECT_THROW(Ucb1Learner(0, 1.0), support::PreconditionError);
  EXPECT_THROW(Ucb1Learner(2, -1.0), support::PreconditionError);
  Ucb1Learner learner(2, 1.0);
  EXPECT_THROW(learner.update(5, 0.0), support::PreconditionError);
}

TEST(Boltzmann, FindsBestArmAndCools) {
  BoltzmannLearner learner(kArmMeans.size(), 5.0, 0.2, 0.995, 0.01);
  EXPECT_EQ(run_bandit(learner, 4000, 13), 1u);
  EXPECT_NEAR(learner.temperature(), 0.01, 1e-12);  // hit the floor
}

TEST(Boltzmann, HighTemperatureIsNearUniform) {
  BoltzmannLearner learner(3, 1e6, 0.2, 1.0, 1e6);
  learner.update(0, 10.0);
  learner.update(1, -10.0);
  learner.update(2, 0.0);
  support::Rng rng{14};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[learner.select(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 800);
}

TEST(Boltzmann, Validates) {
  EXPECT_THROW(BoltzmannLearner(0, 1.0, 0.1, 0.9, 0.1),
               support::PreconditionError);
  EXPECT_THROW(BoltzmannLearner(2, 0.0, 0.1, 0.9, 0.1),
               support::PreconditionError);
  EXPECT_THROW(BoltzmannLearner(2, 1.0, 0.0, 0.9, 0.1),
               support::PreconditionError);
  EXPECT_THROW(BoltzmannLearner(2, 1.0, 0.1, 0.9, 0.0),
               support::PreconditionError);
}

TEST(LearnerInterface, PolymorphicUseThroughBasePointer) {
  std::vector<std::unique_ptr<Learner>> learners;
  learners.push_back(std::make_unique<BanditLearner>(4, 0.2, 0.1));
  learners.push_back(std::make_unique<Ucb1Learner>(4, 1.0));
  learners.push_back(std::make_unique<BoltzmannLearner>(4, 3.0, 0.2, 0.99, 0.05));
  support::Rng rng{15};
  for (auto& learner : learners) {
    for (int step = 0; step < 2000; ++step) {
      const std::size_t arm = learner->select(rng);
      learner->update(arm, kArmMeans[arm] + rng.normal(0.0, 0.3));
      learner->end_round();
    }
    EXPECT_EQ(learner->best_action(), 1u);
  }
}

core::NetworkParams trainer_params() {
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 20.0;
  return params;
}

class LearnerKindTest : public ::testing::TestWithParam<LearnerKind> {};

TEST_P(LearnerKindTest, AllLearnersConvergeNearTheSymmetricNe) {
  const core::NetworkParams params = trainer_params();
  const core::Prices prices{2.0, 1.0};
  const double budget = 12.0;
  const core::PopulationModel fixed(5.0, 0.0, 1, 5);
  TrainerConfig config;
  config.blocks = 12000;
  config.edge_steps = 13;
  config.cloud_steps = 13;
  config.learner = GetParam();
  config.epsilon_decay = 0.9995;
  config.epsilon_floor = 0.05;
  // UCB's bonus scales with the reward range; a small coefficient suits
  // the flat contest payoffs.
  config.ucb_exploration = 0.15;
  const auto trained =
      train_miners(params, prices, budget, fixed, config, 1234);
  const auto analytic = core::solve_followers_symmetric(
      params, prices, budget, 5, core::EdgeMode::kConnected);
  ASSERT_TRUE(analytic.converged);
  const double edge_step = (budget / prices.edge) / 12.0;
  EXPECT_NEAR(trained.mean.edge, analytic.request().edge, 2.0 * edge_step);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LearnerKindTest,
                         ::testing::Values(LearnerKind::kEpsilonGreedy,
                                           LearnerKind::kUcb1,
                                           LearnerKind::kBoltzmann));

TEST(LearningCurve, RecordedAtTheRequestedStride) {
  const core::NetworkParams params = trainer_params();
  const core::PopulationModel fixed(3.0, 0.0, 1, 3);
  TrainerConfig config;
  config.blocks = 100;
  config.curve_stride = 20;
  config.edge_steps = 5;
  config.cloud_steps = 5;
  const auto trained =
      train_miners(params, {2.0, 1.0}, 10.0, fixed, config, 77);
  ASSERT_EQ(trained.curve.size(), 5u);
  EXPECT_EQ(trained.curve.front().block, 20);
  EXPECT_EQ(trained.curve.back().block, 100);
  // The last curve point equals the final greedy mean.
  EXPECT_DOUBLE_EQ(trained.curve.back().mean_greedy.edge, trained.mean.edge);
}

TEST(LearningCurve, OffByDefault) {
  const core::NetworkParams params = trainer_params();
  const core::PopulationModel fixed(3.0, 0.0, 1, 3);
  TrainerConfig config;
  config.blocks = 50;
  config.edge_steps = 5;
  config.cloud_steps = 5;
  const auto trained =
      train_miners(params, {2.0, 1.0}, 10.0, fixed, config, 78);
  EXPECT_TRUE(trained.curve.empty());
}

}  // namespace
}  // namespace hecmine::rl

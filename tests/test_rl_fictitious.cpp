// Tests for fictitious play over published aggregates.
#include "rl/fictitious.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/dynamic.hpp"
#include "core/oracle.hpp"
#include "support/error.hpp"

namespace hecmine::rl {
namespace {

core::NetworkParams default_params() {
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 20.0;
  return params;
}

TEST(FictitiousPlay, FixedPopulationConvergesToTheNe) {
  const core::NetworkParams params = default_params();
  const core::Prices prices{2.0, 1.0};
  const double budget = 12.0;
  const core::PopulationModel fixed(5.0, 0.0, 1, 5);
  FictitiousPlayConfig config;
  config.blocks = 600;
  const auto played =
      run_fictitious_play(params, prices, budget, fixed, config, 51);
  const auto analytic = core::solve_followers_symmetric(
      params, prices, budget, 5, core::EdgeMode::kConnected);
  ASSERT_TRUE(analytic.converged);
  // Continuous actions: fictitious play converges far tighter than the
  // grid-based bandits.
  EXPECT_NEAR(played.mean.edge, analytic.request().edge, 0.02);
  EXPECT_NEAR(played.mean.cloud, analytic.request().cloud, 0.1);
  // The final belief matches (n-1) times the symmetric strategy.
  EXPECT_NEAR(played.belief_edge, 4.0 * analytic.request().edge, 0.1);
}

TEST(FictitiousPlay, UncertainPopulationTracksDynamicEquilibrium) {
  core::NetworkParams params = default_params();
  params.edge_success = 0.5;
  const core::Prices prices{2.0, 1.0};
  const double budget = 12.0;
  const core::PopulationModel uncertain =
      core::PopulationModel::around(10.0, 2.0);
  FictitiousPlayConfig config;
  config.blocks = 1500;
  const auto played =
      run_fictitious_play(params, prices, budget, uncertain, config, 52);

  core::DynamicGameConfig dyn;
  dyn.params = params;
  dyn.prices = prices;
  dyn.budget = budget;
  const auto analytic = core::solve_dynamic_symmetric(dyn, uncertain);
  ASSERT_TRUE(analytic.converged);
  // Fictitious play best-responds to the *mean* aggregate rather than the
  // full distribution, so it lands near — not exactly on — the dynamic
  // equilibrium (the gap is the value of distributional information).
  EXPECT_NEAR(played.mean.edge, analytic.request.edge,
              0.15 * analytic.request.edge + 0.05);
  EXPECT_NEAR(played.mean.cloud, analytic.request.cloud,
              0.15 * analytic.request.cloud + 0.1);
}

TEST(FictitiousPlay, ConvergesFromAnySeedStrategy) {
  // The belief dynamics wash out the initial strategies.
  const core::NetworkParams params = default_params();
  const core::Prices prices{2.0, 1.0};
  const core::PopulationModel fixed(4.0, 0.0, 1, 4);
  FictitiousPlayConfig config;
  config.blocks = 800;
  const auto run_a =
      run_fictitious_play(params, prices, 15.0, fixed, config, 53);
  const auto run_b =
      run_fictitious_play(params, prices, 15.0, fixed, config, 54);
  EXPECT_NEAR(run_a.mean.edge, run_b.mean.edge, 0.05);
  EXPECT_NEAR(run_a.mean.cloud, run_b.mean.cloud, 0.15);
}

TEST(FictitiousPlay, RespectsBudgets) {
  const core::NetworkParams params = default_params();
  const core::Prices prices{2.0, 1.0};
  const double budget = 5.0;
  const core::PopulationModel fixed(5.0, 0.0, 1, 5);
  FictitiousPlayConfig config;
  config.blocks = 300;
  const auto played =
      run_fictitious_play(params, prices, budget, fixed, config, 55);
  for (const auto& strategy : played.strategies) {
    EXPECT_LE(core::request_cost(strategy, prices), budget + 1e-7);
  }
}

TEST(FictitiousPlay, ValidatesInputs) {
  const core::NetworkParams params = default_params();
  const core::PopulationModel fixed(3.0, 0.0, 1, 3);
  FictitiousPlayConfig config;
  config.blocks = 0;
  EXPECT_THROW(
      (void)run_fictitious_play(params, {2.0, 1.0}, 10.0, fixed, config, 1),
      support::PreconditionError);
  config = FictitiousPlayConfig{};
  EXPECT_THROW(
      (void)run_fictitious_play(params, {2.0, 1.0}, 0.0, fixed, config, 1),
      support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::rl

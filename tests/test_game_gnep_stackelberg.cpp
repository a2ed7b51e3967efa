// Tests for game/stackelberg on toys with known solutions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "game/stackelberg.hpp"
#include "numerics/optimize.hpp"
#include "support/error.hpp"

namespace hecmine::game {
namespace {

// Differentiated-price duopoly: V_i = a_i (10 - a_i + 0.5 a_j).
// Best response a_i = (10 + 0.5 a_j)/2; symmetric NE at a* = 20/3.
TEST(Stackelberg, FindsPriceDuopolyEquilibrium) {
  const LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                   std::size_t leader) {
    const double own = actions[leader];
    const double rival = actions[1 - leader];
    return own * (10.0 - own + 0.5 * rival);
  };
  const std::vector<ActionBounds> bounds{{0.0, 20.0}, {0.0, 20.0}};
  const auto result = solve_stackelberg(payoff, {1.0, 1.0}, bounds);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.actions[0], 20.0 / 3.0, 1e-3);
  EXPECT_NEAR(result.actions[1], 20.0 / 3.0, 1e-3);
  // Payoffs are reported at the final action profile.
  const double expected_payoff =
      (20.0 / 3.0) * (10.0 - 20.0 / 3.0 + 0.5 * 20.0 / 3.0);
  EXPECT_NEAR(result.payoffs[0], expected_payoff, 1e-2);
}

TEST(Stackelberg, SingleLeaderReducesToMaximization) {
  const LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                   std::size_t) {
    return -(actions[0] - 7.0) * (actions[0] - 7.0);
  };
  const auto result = solve_stackelberg(payoff, {0.0}, {{0.0, 20.0}});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.actions[0], 7.0, 1e-4);
}

TEST(Stackelberg, ClampsStartAndFindsBoundaryOptimum) {
  const LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                   std::size_t) { return actions[0]; };
  const auto result = solve_stackelberg(payoff, {100.0}, {{0.0, 5.0}});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.actions[0], 5.0, 1e-6);
}

// Rotating targets on [0, 3]: leader 0 copies leader 1's unit cell,
// leader 1 moves one cell ahead of leader 0's (mod 3), each best response
// the centre of its target cell. Best responses depend on the rival's cell
// only, so the rounds revisit three states exactly: a period-3 cycle.
TEST(Stackelberg, StopsAtTheFirstExactRepeatOfACycle) {
  const auto cell = [](double action) {
    return std::min(2.0, std::floor(action));
  };
  const LeaderPayoffFn payoff = [&](const std::vector<double>& actions,
                                    std::size_t leader) {
    const double rival = cell(actions[1 - leader]);
    const double target =
        0.5 + (leader == 0 ? rival : std::fmod(rival + 1.0, 3.0));
    return -(actions[leader] - target) * (actions[leader] - target);
  };
  const std::vector<ActionBounds> bounds{{0.0, 3.0}, {0.0, 3.0}};
  StackelbergOptions options;
  options.max_rounds = 200;
  const auto result = solve_stackelberg(payoff, {0.5, 0.5}, bounds, options);
  // Round 1 lands in cells (0, 1), rounds 2-3 in (1, 2) and (2, 0), and
  // round 4 repeats round 1 bit for bit.
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.cycle_period, 3);
  EXPECT_EQ(result.rounds, 4);
  EXPECT_EQ(cell(result.actions[0]), 0.0);
  EXPECT_EQ(cell(result.actions[1]), 1.0);
  EXPECT_GT(result.residual, options.tolerance);
}

TEST(Stackelberg, ContractingPayoffRunsTheSameRoundsAsWithoutCycleExit) {
  // The duopoly above contracts to its NE, so no state repeats before the
  // tolerance is met: the driver must match a plain Gauss-Seidel loop of
  // the same scans bitwise, rounds included.
  const LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                   std::size_t leader) {
    const double own = actions[leader];
    const double rival = actions[1 - leader];
    return own * (10.0 - own + 0.5 * rival);
  };
  const std::vector<ActionBounds> bounds{{0.0, 20.0}, {0.0, 20.0}};
  const StackelbergOptions options;
  const auto result = solve_stackelberg(payoff, {1.0, 1.0}, bounds, options);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.cycle_period, 0);

  std::vector<double> actions{1.0, 1.0};
  num::Maximize1DOptions scan;
  scan.grid_points = options.grid_points;
  scan.tolerance = kRefineTolerance;
  int rounds = 0;
  for (double change = 1.0; change >= options.tolerance;) {
    ASSERT_LT(rounds++, options.max_rounds);
    change = 0.0;
    for (std::size_t leader = 0; leader < 2; ++leader) {
      const double best =
          num::maximize_scan(
              [&](double action) {
                auto candidate = actions;
                candidate[leader] = action;
                return payoff(candidate, leader);
              },
              bounds[leader].lo, bounds[leader].hi, scan)
              .argmax;
      change = std::max(change, std::abs(best - actions[leader]));
      actions[leader] = best;
    }
  }
  EXPECT_EQ(result.actions, actions);  // bitwise
  EXPECT_EQ(result.rounds, rounds);
}

TEST(Stackelberg, ValidatesBounds) {
  const LeaderPayoffFn payoff = [](const std::vector<double>&, std::size_t) {
    return 0.0;
  };
  EXPECT_THROW((void)solve_stackelberg(payoff, {0.0}, {{1.0, 1.0}}),
               support::PreconditionError);
  EXPECT_THROW((void)solve_stackelberg(payoff, {}, {}),
               support::PreconditionError);
  EXPECT_THROW((void)solve_stackelberg(payoff, {0.0}, {{0.0, 1.0}, {0.0, 1.0}}),
               support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::game

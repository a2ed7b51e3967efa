// Tests for numerics/poly and the closed-form CSP reaction curve built on
// it (Theorem 4 structure).
#include "numerics/poly.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/closed_forms.hpp"
#include "core/sp.hpp"

namespace hecmine::num {
namespace {

TEST(Quadratic, TwoRealRoots) {
  const auto roots = solve_quadratic(1.0, -5.0, 6.0);  // (x-2)(x-3)
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_NEAR(roots[0], 2.0, 1e-12);
  EXPECT_NEAR(roots[1], 3.0, 1e-12);
}

TEST(Quadratic, DoubleLinearAndNoRoots) {
  const auto twice = solve_quadratic(1.0, -4.0, 4.0);
  ASSERT_EQ(twice.size(), 1u);
  EXPECT_NEAR(twice[0], 2.0, 1e-12);
  const auto linear = solve_quadratic(0.0, 2.0, -8.0);
  ASSERT_EQ(linear.size(), 1u);
  EXPECT_NEAR(linear[0], 4.0, 1e-12);
  EXPECT_TRUE(solve_quadratic(1.0, 0.0, 1.0).empty());
  EXPECT_TRUE(solve_quadratic(0.0, 0.0, 1.0).empty());
}

TEST(Quadratic, NumericallyStableForSmallLeadingRoot) {
  // x^2 - 1e8 x + 1 = 0: roots ~1e8 and ~1e-8; the naive formula loses the
  // small one to cancellation.
  const auto roots = solve_quadratic(1.0, -1e8, 1.0);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_NEAR(roots[0], 1e-8, 1e-14);
  EXPECT_NEAR(roots[1], 1e8, 1.0);
}

TEST(CspReactionClosedForm, MatchesTheNumericReaction) {
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 1e6;  // connected mode: capacity irrelevant
  core::SpSolveOptions options;
  options.grid_points = 64;
  for (double pe : {1.8, 2.5, 4.0, 6.0}) {
    const double closed = core::csp_reaction_sufficient_closed(params, pe);
    ASSERT_GT(closed, 0.0) << "pe=" << pe;
    const double numeric = core::csp_reaction_homogeneous(
        params, 1e6, 5, core::EdgeMode::kConnected, pe, options);
    EXPECT_NEAR(closed, numeric, 5e-3 * numeric) << "pe=" << pe;
  }
}

TEST(CspReactionClosedForm, RootSatisfiesFirstOrderCondition) {
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.3;
  params.edge_success = 0.8;
  const double pe = 3.0;
  const double pc = core::csp_reaction_sufficient_closed(params, pe);
  ASSERT_GT(pc, 0.0);
  // V_c proportional form: (x - C)(a pe - (a+b)x) / (x (pe - x)).
  const double a = 0.7, b = 0.24, cost = params.cost_cloud;
  const auto v = [&](double x) {
    return (x - cost) * (a * pe - (a + b) * x) / (x * (pe - x));
  };
  const double step = 1e-6;
  EXPECT_NEAR((v(pc + step) - v(pc - step)) / (2.0 * step), 0.0, 1e-5);
  // And it is a maximum: neighbours are lower.
  EXPECT_LT(v(pc + 0.05), v(pc));
  EXPECT_LT(v(pc - 0.05), v(pc));
}

}  // namespace
}  // namespace hecmine::num

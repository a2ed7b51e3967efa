// Tests for numerics/pga and numerics/vi.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/pga.hpp"
#include "numerics/projection.hpp"
#include "numerics/vi.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hecmine::num {
namespace {

TEST(Pga, MaximizesConcaveQuadraticUnconstrained) {
  const auto objective = [](const std::vector<double>& x) {
    return -(x[0] - 1.0) * (x[0] - 1.0) - 2.0 * (x[1] + 0.5) * (x[1] + 0.5);
  };
  const auto project = [](const std::vector<double>& x) { return x; };
  const auto result =
      projected_gradient_ascent(objective, nullptr, project, {5.0, 5.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.point[0], 1.0, 1e-5);
  EXPECT_NEAR(result.point[1], -0.5, 1e-5);
}

TEST(Pga, RespectsBudgetConstraint) {
  // max x + y subject to x + y <= 1, x,y >= 0: any point on the line is
  // optimal with value 1.
  const auto objective = [](const std::vector<double>& x) {
    return x[0] + x[1];
  };
  const auto project = [](const std::vector<double>& x) {
    return project_budget_set(x, {1.0, 1.0}, 1.0);
  };
  const auto result =
      projected_gradient_ascent(objective, nullptr, project, {0.2, 0.1});
  EXPECT_NEAR(result.value, 1.0, 1e-6);
}

TEST(Pga, UsesAnalyticGradientWhenProvided) {
  const auto objective = [](const std::vector<double>& x) {
    return -x[0] * x[0];
  };
  const auto gradient = [](const std::vector<double>& x) {
    return std::vector<double>{-2.0 * x[0]};
  };
  const auto project = [](const std::vector<double>& x) { return x; };
  const auto result =
      projected_gradient_ascent(objective, gradient, project, {3.0});
  EXPECT_NEAR(result.point[0], 0.0, 1e-6);
}

TEST(Extragradient, SolvesStronglyMonotoneLinearVI) {
  // F(x) = A x - b with A symmetric positive definite: VI over R^2 solves
  // A x = b -> x = (1, 2) for A = [[2,0],[0,4]], b = (2, 8).
  VariationalInequality problem;
  problem.map = [](const std::vector<double>& x) {
    return std::vector<double>{2.0 * x[0] - 2.0, 4.0 * x[1] - 8.0};
  };
  problem.project = [](const std::vector<double>& x) { return x; };
  const auto result = solve_extragradient(problem, {0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.point[0], 1.0, 1e-6);
  EXPECT_NEAR(result.point[1], 2.0, 1e-6);
}

TEST(Extragradient, HandlesRotationalMonotoneMap) {
  // F(x) = [[0,1],[-1,0]] x is monotone (skew) — classic case where plain
  // projection fails but extragradient converges to the solution (0, 0)
  // of VI over the box [-1,1]^2.
  VariationalInequality problem;
  problem.map = [](const std::vector<double>& x) {
    return std::vector<double>{x[1], -x[0]};
  };
  problem.project = [](const std::vector<double>& x) {
    return project_box(x, {-1.0, -1.0}, {1.0, 1.0});
  };
  ExtragradientOptions options;
  options.tolerance = 1e-7;
  const auto result = solve_extragradient(problem, {0.9, -0.7}, options);
  EXPECT_NEAR(result.point[0], 0.0, 1e-4);
  EXPECT_NEAR(result.point[1], 0.0, 1e-4);
}

TEST(Extragradient, ConstrainedSolutionOnBoundary) {
  // F(x) = x - 5: unconstrained solution 5, but K = [0, 1] -> x* = 1.
  VariationalInequality problem;
  problem.map = [](const std::vector<double>& x) {
    return std::vector<double>{x[0] - 5.0};
  };
  problem.project = [](const std::vector<double>& x) {
    return project_box(x, {0.0}, {1.0});
  };
  const auto result = solve_extragradient(problem, {0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.point[0], 1.0, 1e-7);
}

TEST(NaturalResidual, ZeroAtSolutionPositiveElsewhere) {
  VariationalInequality problem;
  problem.map = [](const std::vector<double>& x) {
    return std::vector<double>{x[0] - 2.0};
  };
  problem.project = [](const std::vector<double>& x) { return x; };
  EXPECT_NEAR(natural_residual(problem, {2.0}), 0.0, 1e-12);
  EXPECT_GT(natural_residual(problem, {0.0}), 1.0);
}

TEST(MonotonicityQuotient, DistinguishesMonotoneFromNot) {
  support::Rng rng{31};
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 20; ++i)
    points.push_back({rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)});
  const auto monotone = [](const std::vector<double>& x) {
    return std::vector<double>{3.0 * x[0], 2.0 * x[1]};
  };
  EXPECT_GE(monotonicity_quotient(monotone, points), 2.0 - 1e-9);
  const auto antitone = [](const std::vector<double>& x) {
    return std::vector<double>{-x[0], -x[1]};
  };
  EXPECT_LE(monotonicity_quotient(antitone, points), -1.0 + 1e-9);
}

}  // namespace
}  // namespace hecmine::num

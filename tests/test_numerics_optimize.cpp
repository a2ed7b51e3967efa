// Tests for numerics/optimize and numerics/gradient.
#include "numerics/optimize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "numerics/gradient.hpp"
#include "support/error.hpp"

namespace hecmine::num {
namespace {

TEST(GoldenSection, FindsQuadraticMaximum) {
  const auto f = [](double x) { return -(x - 1.25) * (x - 1.25) + 3.0; };
  const auto result = golden_section_maximize(f, -10.0, 10.0);
  EXPECT_NEAR(result.argmax, 1.25, 1e-6);
  EXPECT_NEAR(result.value, 3.0, 1e-12);
}

TEST(GoldenSection, FindsBoundaryMaximumOfMonotone) {
  const auto increasing = [](double x) { return x; };
  const auto lo_result = golden_section_maximize(increasing, 0.0, 5.0);
  EXPECT_NEAR(lo_result.argmax, 5.0, 1e-8);
  const auto decreasing = [](double x) { return -x; };
  const auto hi_result = golden_section_maximize(decreasing, 0.0, 5.0);
  EXPECT_NEAR(hi_result.argmax, 0.0, 1e-8);
}

TEST(GoldenSection, RejectsBadInterval) {
  EXPECT_THROW(
      (void)golden_section_maximize([](double x) { return x; }, 1.0, 1.0),
      support::PreconditionError);
}

TEST(GoldenSection, HandlesFlatFunction) {
  const auto result =
      golden_section_maximize([](double) { return 2.0; }, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(result.value, 2.0);
}

TEST(MaximizeScan, FindsGlobalAmongMultipleModes) {
  // Two humps; the taller one is off-center at x = 4.
  const auto f = [](double x) {
    return std::exp(-(x - 1.0) * (x - 1.0)) +
           1.5 * std::exp(-4.0 * (x - 4.0) * (x - 4.0));
  };
  const auto result = maximize_scan(f, -2.0, 8.0);
  EXPECT_NEAR(result.argmax, 4.0, 1e-3);
}

TEST(MaximizeScan, AgreesWithGoldenOnUnimodal) {
  const auto f = [](double x) { return -(x - 2.0) * (x - 2.0); };
  const auto scanned = maximize_scan(f, 0.0, 10.0);
  const auto golden = golden_section_maximize(f, 0.0, 10.0);
  EXPECT_NEAR(scanned.argmax, golden.argmax, 1e-6);
}

TEST(MaximizeScan, RespectsGridOption) {
  Maximize1DOptions options;
  options.grid_points = 2;  // minimum — still must not crash
  const auto result =
      maximize_scan([](double x) { return x; }, 0.0, 1.0, options);
  EXPECT_NEAR(result.argmax, 1.0, 1e-6);
}

TEST(CentralGradient, MatchesAnalyticIn3D) {
  const auto f = [](const std::vector<double>& x) {
    return x[0] * x[0] + 3.0 * x[1] + x[2] * x[1];
  };
  const auto grad = central_gradient(f, {1.0, 2.0, 3.0});
  EXPECT_NEAR(grad[0], 2.0, 1e-7);
  EXPECT_NEAR(grad[1], 6.0, 1e-7);
  EXPECT_NEAR(grad[2], 2.0, 1e-7);
}

}  // namespace
}  // namespace hecmine::num

// Real roots of a quadratic (closed form).
//
// Used by the closed-form reaction curves: the CSP's first-order condition
// in the sufficient-budget connected game is a quadratic in P_c (the cubic
// terms cancel; core/closed_forms.cpp).
#pragma once

#include <cstddef>

namespace hecmine::num {

/// Up to two real roots, ascending, held by value so a solve never allocates.
struct QuadraticRoots {
  double roots[2] = {0.0, 0.0};
  std::size_t count = 0;

  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  [[nodiscard]] double operator[](std::size_t i) const noexcept {
    return roots[i];
  }
  [[nodiscard]] const double* begin() const noexcept { return roots; }
  [[nodiscard]] const double* end() const noexcept { return roots + count; }
};

/// Real roots of a x^2 + b x + c = 0, ascending; handles the degenerate
/// linear case (a == 0). A double root is returned once.
[[nodiscard]] QuadraticRoots solve_quadratic(double a, double b, double c);

}  // namespace hecmine::num

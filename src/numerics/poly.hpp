// Real roots of a quadratic (closed form).
//
// Used by the closed-form reaction curves: the CSP's first-order condition
// in the sufficient-budget connected game is a quadratic in P_c (the cubic
// terms cancel; core/closed_forms.cpp).
#pragma once

#include <vector>

namespace hecmine::num {

/// Real roots of a x^2 + b x + c = 0, ascending; handles the degenerate
/// linear case (a == 0). A double root is returned once.
[[nodiscard]] std::vector<double> solve_quadratic(double a, double b,
                                                  double c);

}  // namespace hecmine::num

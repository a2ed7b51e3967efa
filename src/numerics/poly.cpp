#include "numerics/poly.hpp"

#include <algorithm>
#include <cmath>

namespace hecmine::num {

std::vector<double> solve_quadratic(double a, double b, double c) {
  if (a == 0.0) {
    if (b == 0.0) return {};  // constant: no roots (or all x if c == 0)
    return {-c / b};
  }
  const double discriminant = b * b - 4.0 * a * c;
  if (discriminant < 0.0) return {};
  if (discriminant == 0.0) return {-b / (2.0 * a)};
  // Numerically stable form: compute the larger-magnitude root first.
  const double q =
      -0.5 * (b + std::copysign(std::sqrt(discriminant), b));
  std::vector<double> roots{q / a, c / q};
  std::sort(roots.begin(), roots.end());
  return roots;
}

}  // namespace hecmine::num

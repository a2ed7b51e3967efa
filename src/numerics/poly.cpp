#include "numerics/poly.hpp"

#include <cmath>
#include <utility>

namespace hecmine::num {

QuadraticRoots solve_quadratic(double a, double b, double c) {
  if (a == 0.0) {
    if (b == 0.0) return {};  // constant: no roots (or all x if c == 0)
    return {{-c / b, 0.0}, 1};
  }
  const double discriminant = b * b - 4.0 * a * c;
  if (discriminant < 0.0) return {};
  if (discriminant == 0.0) return {{-b / (2.0 * a), 0.0}, 1};
  // Numerically stable form: compute the larger-magnitude root first.
  const double q =
      -0.5 * (b + std::copysign(std::sqrt(discriminant), b));
  QuadraticRoots out{{q / a, c / q}, 2};
  if (out.roots[1] < out.roots[0]) std::swap(out.roots[0], out.roots[1]);
  return out;
}

}  // namespace hecmine::num

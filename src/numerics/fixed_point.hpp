// Convergence metric shared by the iterative numerics solvers (projected
// gradient ascent, extragradient).
#pragma once

#include <vector>

namespace hecmine::num {

/// Max-norm distance between two equally sized vectors.
[[nodiscard]] double max_norm_diff(const std::vector<double>& a,
                                   const std::vector<double>& b);

}  // namespace hecmine::num

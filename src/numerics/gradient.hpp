// Finite-difference gradients, used by the generic projected-gradient
// solver (numerics/pga.hpp).
#pragma once

#include <functional>
#include <vector>

namespace hecmine::num {

/// Central-difference gradient of f at `point`.
[[nodiscard]] std::vector<double> central_gradient(
    const std::function<double(const std::vector<double>&)>& f,
    const std::vector<double>& point, double step = 1e-6);

}  // namespace hecmine::num

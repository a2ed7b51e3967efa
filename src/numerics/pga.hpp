// Projected gradient ascent for concave maximization over a convex set.
//
// No solver calls it: it is the independent maximizer that tests hold the
// closed-form and share-form best responses to (core::dynamic_best_response
// wraps it for the Sec.-V game).
#pragma once

#include <functional>
#include <vector>

namespace hecmine::num {

/// Options for projected gradient ascent.
struct PgaOptions {
  double initial_step = 1.0;   ///< starting step; adapted by backtracking
  double backtrack = 0.5;      ///< shrink factor on failed Armijo test
  double armijo = 1e-4;        ///< Armijo sufficient-increase coefficient
  double tolerance = 1e-10;    ///< stop when the projected step is this small
  int max_iterations = 5000;
  double gradient_step = 1e-6; ///< finite-difference step when no gradient
};

/// Outcome of projected gradient ascent.
struct PgaResult {
  std::vector<double> point;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Maximizes a concave `objective` over the convex set implied by `project`
/// starting from `start` (projected first). `gradient` may be empty, in
/// which case central finite differences are used.
[[nodiscard]] PgaResult projected_gradient_ascent(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::function<std::vector<double>(const std::vector<double>&)>&
        gradient,
    const std::function<std::vector<double>(const std::vector<double>&)>&
        project,
    std::vector<double> start, const PgaOptions& options = {});

}  // namespace hecmine::num

// 1-D maximization used by the SP pricing subgames and closed-form checks.
#pragma once

#include <functional>
#include <vector>

namespace hecmine::num {

/// Options for the scalar maximizers.
struct Maximize1DOptions {
  double tolerance = 1e-10;  ///< absolute x-tolerance of the final interval
  int max_iterations = 300;  ///< golden-section budget
  int grid_points = 64;      ///< coarse scan resolution for maximize_scan
};

/// Result of a scalar maximization.
struct Maximize1DResult {
  double argmax = 0.0;
  double value = 0.0;
};

/// Golden-section search for a maximum of a unimodal `f` on [lo, hi].
/// Requires lo < hi. For non-unimodal functions use maximize_scan.
[[nodiscard]] Maximize1DResult golden_section_maximize(
    const std::function<double(double)>& f, double lo, double hi,
    const Maximize1DOptions& options = {});

/// Robust maximizer for possibly multi-modal `f` on [lo, hi]: evaluates a
/// uniform grid, then refines around the best grid cells with
/// golden-section. Requires lo < hi. Runs on the calling thread only.
[[nodiscard]] Maximize1DResult maximize_scan(
    const std::function<double(double)>& f, double lo, double hi,
    const Maximize1DOptions& options = {});

/// maximize_scan with the grid and the refinements fanned out over the
/// shared thread pool (support::parallel_map), using up to `threads`
/// concurrent executors (0 = auto via support::resolve_thread_count, 1 =
/// plain maximize_scan). `f` must be safe for concurrent invocation. Used
/// by the Stackelberg driver and the leader stage to fan follower solves
/// out; bitwise identical to maximize_scan for every thread count.
[[nodiscard]] Maximize1DResult maximize_scan_parallel(
    const std::function<double(double)>& f, double lo, double hi,
    const Maximize1DOptions& options = {}, int threads = 0);

}  // namespace hecmine::num

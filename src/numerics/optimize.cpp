#include "numerics/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace hecmine::num {

Maximize1DResult golden_section_maximize(
    const std::function<double(double)>& f, double lo, double hi,
    const Maximize1DOptions& options) {
  HECMINE_REQUIRE(lo < hi, "golden_section_maximize requires lo < hi");
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int iteration = 0;
       iteration < options.max_iterations && (b - a) > options.tolerance;
       ++iteration) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    }
  }
  const double x_best = f1 >= f2 ? x1 : x2;
  // Include the endpoints: a boundary maximum of a monotone objective would
  // otherwise be missed by the interior probes.
  Maximize1DResult result{x_best, std::max(f1, f2)};
  const double f_lo = f(lo), f_hi = f(hi);
  if (f_lo > result.value) result = {lo, f_lo};
  if (f_hi > result.value) result = {hi, f_hi};
  return result;
}

namespace {

/// maximize_scan on `executors` concurrent executors: the coarse grid and
/// the top-cell refinements fan out over the shared pool when executors > 1
/// and run inline otherwise (a serial scan never starts the pool). Both
/// stages compute exactly the serial values, so the result is bitwise
/// identical for every executor count.
Maximize1DResult scan(const std::function<double(double)>& f, double lo,
                      double hi, const Maximize1DOptions& options,
                      int executors) {
  HECMINE_REQUIRE(lo < hi, "maximize_scan requires lo < hi");
  HECMINE_REQUIRE(options.grid_points >= 2,
                  "maximize_scan requires at least two grid points");
  // fn(0), ..., fn(count - 1) in index order.
  const auto map = [executors](std::size_t count, const auto& fn) {
    if (executors > 1) return support::parallel_map(count, fn, executors);
    std::vector<decltype(fn(std::size_t{}))> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) out.push_back(fn(i));
    return out;
  };
  const int n = options.grid_points;
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  const std::vector<double> fs =
      map(xs.size(), [&](std::size_t i) { return f(xs[i]); });
  // Refine around the top-K grid cells: a single-cell refine can miss a
  // narrow peak (or a kink) hiding between two mediocre grid points next to
  // a slightly better far-away cell.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::partial_sort(order.begin(), order.begin() + std::min(n, 3), order.end(),
                    [&](int a, int b) {
                      return fs[static_cast<std::size_t>(a)] >
                             fs[static_cast<std::size_t>(b)];
                    });
  const double step = (hi - lo) / static_cast<double>(n - 1);
  Maximize1DResult best{xs[static_cast<std::size_t>(order[0])],
                        fs[static_cast<std::size_t>(order[0])]};
  std::vector<std::pair<double, double>> intervals;
  for (int rank = 0; rank < std::min(n, 3); ++rank) {
    const double center = xs[static_cast<std::size_t>(order[static_cast<std::size_t>(rank)])];
    const double refine_lo = std::max(lo, center - step);
    const double refine_hi = std::min(hi, center + step);
    if (refine_hi <= refine_lo) continue;
    intervals.emplace_back(refine_lo, refine_hi);
  }
  const std::vector<Maximize1DResult> refined =
      map(intervals.size(), [&](std::size_t i) {
        return golden_section_maximize(f, intervals[i].first,
                                       intervals[i].second, options);
      });
  for (const auto& candidate : refined)
    if (candidate.value > best.value) best = candidate;
  return best;
}

}  // namespace

Maximize1DResult maximize_scan(const std::function<double(double)>& f,
                               double lo, double hi,
                               const Maximize1DOptions& options) {
  return scan(f, lo, hi, options, 1);
}

Maximize1DResult maximize_scan_parallel(const std::function<double(double)>& f,
                                        double lo, double hi,
                                        const Maximize1DOptions& options,
                                        int threads) {
  return scan(f, lo, hi, options, support::resolve_thread_count(threads));
}

}  // namespace hecmine::num

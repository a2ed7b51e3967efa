#include "numerics/vi.hpp"

#include <cmath>

#include "numerics/fixed_point.hpp"
#include "support/error.hpp"
#include "support/prof.hpp"
#include "support/telemetry.hpp"

namespace hecmine::num {

namespace {

/// Records one finished extragradient solve into the thread's telemetry
/// sink (installed upstream by the caller's support::TelemetryScope); a
/// null sink costs one thread-local read.
void record_vi_solve(const VIResult& result, std::uint64_t backtracks) {
  support::Telemetry* telemetry = support::current_telemetry();
  if (telemetry == nullptr) return;
  telemetry->metrics.counter("vi.solves").add();
  if (!result.converged) telemetry->metrics.counter("vi.nonconverged").add();
  if (backtracks > 0) telemetry->metrics.counter("vi.backtracks").add(backtracks);
  telemetry->metrics
      .histogram("vi.iterations", support::geometric_edges(1.0, 2.0, 16))
      .observe(static_cast<double>(result.iterations));
}

}  // namespace

namespace {

/// out[i] = x[i] + alpha * y[i], into a caller-owned buffer. The solver
/// loop below runs thousands of these per solve; writing into a reused
/// buffer keeps the inner iteration allocation-free outside the user
/// callbacks.
void axpy_into(const std::vector<double>& x, double alpha,
               const std::vector<double>& y, std::vector<double>& out) {
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] + alpha * y[i];
}

double norm2(const std::vector<double>& x) {
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum);
}

std::vector<double> subtract(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

/// ||a - b||_2 without materializing the difference; the per-element
/// arithmetic ((a[i] - b[i]) squared, summed in index order) matches
/// norm2(subtract(a, b)) exactly.
double diff_norm2(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double v = a[i] - b[i];
    sum += v * v;
  }
  return std::sqrt(sum);
}

}  // namespace

double natural_residual(const VariationalInequality& problem,
                        const std::vector<double>& point) {
  if (auto* work = support::prof::current_block(); work != nullptr) {
    work->add(support::prof::WorkField::kGradientEvals, 1);
    work->add(support::prof::WorkField::kProjectionClips, 1);
  }
  const auto f = problem.map(point);
  std::vector<double> shifted;
  axpy_into(point, -1.0, f, shifted);
  const auto step = problem.project(shifted);
  return max_norm_diff(point, step);
}

VIResult solve_extragradient(const VariationalInequality& problem,
                             std::vector<double> start,
                             const ExtragradientOptions& options) {
  HECMINE_REQUIRE(options.initial_step > 0.0,
                  "extragradient requires a positive initial step");
  HECMINE_REQUIRE(options.backtrack > 0.0 && options.backtrack < 1.0,
                  "extragradient backtrack factor must be in (0, 1)");
  VIResult result;
  result.point = problem.project(std::move(start));
  double tau = options.initial_step;
  std::uint64_t backtracks = 0;
  // Timeline span for the whole inner loop, on whichever thread runs this
  // solve; null sink records nothing.
  support::Telemetry* sink = support::current_telemetry();
  const support::SolveTrace::Scope span(
      sink != nullptr ? &sink->trace : nullptr, "vi.extragradient");
  // Per-iteration records. The VI layer is layout-agnostic (it cannot name
  // prices or aggregates), so records carry only the movement residual and
  // the adaptive step; gating is hoisted out of the loop.
  support::TelemetryFlusher* flight = sink != nullptr ? sink->stream : nullptr;
  const std::uint64_t solve_id =
      flight != nullptr ? flight->next_solve_id() : 0;
  // Step buffers hoisted out of the loop; the backtracking inner loop is
  // allocation-free apart from whatever map/project themselves return.
  std::vector<double> y;
  std::vector<double> f_y;
  std::vector<double> scratch;
  // Work counters: one sweep + one convergence (movement) check per outer
  // iteration; each F(.) evaluation counts as a gradient eval and each
  // projection as a clip (backtracking retries included).
  support::prof::ThreadWorkBlock* work = support::prof::current_block();
  if (work != nullptr)
    work->add(support::prof::WorkField::kProjectionClips, 1);  // start point
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    result.iterations = iteration + 1;
    const auto f_x = problem.map(result.point);
    std::uint64_t maps = 1;
    std::uint64_t projections = 0;
    // Backtracking: shrink tau until the extrapolation step satisfies the
    // standard Lipschitz-surrogate test tau * ||F(x) - F(y)|| <= nu ||x - y||.
    constexpr double kNu = 0.9;
    for (int backtrack = 0; backtrack < 60; ++backtrack) {
      axpy_into(result.point, -tau, f_x, scratch);
      y = problem.project(scratch);
      f_y = problem.map(y);
      ++maps;
      ++projections;
      const double lhs = tau * diff_norm2(f_x, f_y);
      const double rhs = kNu * diff_norm2(result.point, y);
      if (lhs <= rhs || rhs == 0.0) break;
      tau *= options.backtrack;
      ++backtracks;
    }
    axpy_into(result.point, -tau, f_y, scratch);
    const auto next = problem.project(scratch);
    ++projections;
    const double movement = max_norm_diff(next, result.point);
    result.point = next;
    if (work != nullptr) {
      work->add(support::prof::WorkField::kSweeps, 1);
      work->add(support::prof::WorkField::kConvergenceChecks, 1);
      work->add(support::prof::WorkField::kGradientEvals, maps);
      work->add(support::prof::WorkField::kProjectionClips, projections);
    }
    if (flight != nullptr) {
      support::IterationRecord record;
      record.solver = "vi.extragradient";
      record.solve = solve_id;
      record.iteration = result.iterations;
      record.residual = movement;
      record.tolerance = options.tolerance;
      record.step = tau;
      flight->record(record);
    }
    // Cheap movement test first; the exact natural residual costs one more
    // map + projection, so only confirm when movement is already small.
    if (movement < options.tolerance) {
      result.residual = natural_residual(problem, result.point);
      if (result.residual < 10.0 * options.tolerance) {
        result.converged = true;
        record_vi_solve(result, backtracks);
        return result;
      }
    }
    // Gentle step growth lets tau recover after an early conservative phase.
    tau *= 1.05;
  }
  result.residual = natural_residual(problem, result.point);
  result.converged = result.residual < options.tolerance;
  record_vi_solve(result, backtracks);
  return result;
}

double monotonicity_quotient(
    const std::function<std::vector<double>(const std::vector<double>&)>& map,
    const std::vector<std::vector<double>>& points) {
  HECMINE_REQUIRE(points.size() >= 2,
                  "monotonicity_quotient requires at least two points");
  double worst = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> images;
  images.reserve(points.size());
  for (const auto& p : points) images.push_back(map(p));
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const auto dx = subtract(points[i], points[j]);
      const auto df = subtract(images[i], images[j]);
      double inner = 0.0;
      for (std::size_t k = 0; k < dx.size(); ++k) inner += dx[k] * df[k];
      const double denom = norm2(dx);
      if (denom == 0.0) continue;
      worst = std::min(worst, inner / (denom * denom));
    }
  }
  return worst;
}

}  // namespace hecmine::num

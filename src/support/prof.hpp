// Deterministic work-counter profiling: cost accounting for the solver
// hot path.
//
// Wall-clock numbers do not transfer across hosts. What *does* transfer is
// the amount of algorithmic work a solve performs: best-response and
// utility evaluations, sweeps, bisection iterations. This header makes
// that work first-class:
//
//   * WorkCounters — a plain snapshot of the counter taxonomy (uint64 per
//     field). Deltas of monotone counts subtract field-wise; totals add.
//   * ThreadWorkBlock — one cacheline-aligned block of relaxed atomics.
//     Exactly one thread increments a given block (its owner); any thread
//     may snapshot it. That single-writer discipline is what keeps the
//     block lock-free *and* TSan-clean.
//   * WorkProfile — the per-sink registry of thread blocks. total() sums
//     the blocks field-wise; because uint64 addition is associative and
//     commutative, the sum is bitwise-identical regardless of which
//     threads did the work — the determinism contract the work-count
//     tests stand on (identical seeds => identical counts, and
//     thread-count-invariant wherever the algorithm itself is).
//   * current_block() — the calling thread's block of the active telemetry
//     sink, installed/restored by support::TelemetryScope exactly in step
//     with current_telemetry(). Instrumentation sites pay one TLS read and
//     a null test when profiling is off.
//
// The header is deliberately standalone (no telemetry/json includes) so
// the solver layers can include it without pulling the full telemetry
// stack into their translation units.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hecmine::support::prof {

/// The counter taxonomy. One enumerator per accounted work kind; the
/// order defines the export order (work_field_name()).
enum class WorkField : std::size_t {
  kSweeps = 0,            ///< Gauss-Seidel / fixed-point / VI outer sweeps
  kBestResponseEvals,     ///< best-response kernel evaluations (one miner)
  kUtilityEvals,          ///< utility / objective evaluations
  kGradientEvals,         ///< gradient / VI-map component evaluations
  kBisectionIters,        ///< GNEP surcharge bisection iterations
  kProjectionClips,       ///< iterates clipped to a box/budget bound
  kConvergenceChecks,     ///< residual / stopping-rule evaluations
  kSoaBytesMoved,         ///< retired with the SoA workspace; always 0
};

inline constexpr std::size_t kWorkFieldCount = 8;

/// Stable export name of a field ("sweeps", "best_response_evals", ...).
[[nodiscard]] const char* work_field_name(WorkField field) noexcept;

/// Plain (non-atomic) snapshot of every work counter. Field-wise
/// arithmetic; all counts are monotone so deltas never underflow.
struct WorkCounters {
  std::array<std::uint64_t, kWorkFieldCount> values{};

  [[nodiscard]] std::uint64_t& operator[](WorkField field) noexcept {
    return values[static_cast<std::size_t>(field)];
  }
  [[nodiscard]] std::uint64_t operator[](WorkField field) const noexcept {
    return values[static_cast<std::size_t>(field)];
  }

  WorkCounters& operator+=(const WorkCounters& other) noexcept {
    for (std::size_t i = 0; i < kWorkFieldCount; ++i)
      values[i] += other.values[i];
    return *this;
  }
  /// Field-wise difference (monotone counters: *this >= earlier).
  [[nodiscard]] WorkCounters delta_since(
      const WorkCounters& earlier) const noexcept {
    WorkCounters out;
    for (std::size_t i = 0; i < kWorkFieldCount; ++i)
      out.values[i] = values[i] - earlier.values[i];
    return out;
  }
  [[nodiscard]] bool any() const noexcept {
    for (const std::uint64_t v : values)
      if (v != 0) return true;
    return false;
  }
  [[nodiscard]] bool operator==(const WorkCounters&) const noexcept = default;

  /// Kernel evaluations of any flavour — the "evals" column of the
  /// hot-path report.
  [[nodiscard]] std::uint64_t evals() const noexcept {
    return (*this)[WorkField::kBestResponseEvals] +
           (*this)[WorkField::kUtilityEvals] + (*this)[WorkField::kGradientEvals];
  }
};

/// One thread's counter block. The owning thread is the only writer
/// (relaxed fetch_add); snapshot() may run on any thread. Cacheline
/// aligned so two workers' blocks never share a line.
class alignas(64) ThreadWorkBlock {
 public:
  void add(WorkField field, std::uint64_t n) noexcept {
    cells_[static_cast<std::size_t>(field)].fetch_add(
        n, std::memory_order_relaxed);
  }
  void add(const WorkCounters& counters) noexcept {
    for (std::size_t i = 0; i < kWorkFieldCount; ++i)
      if (counters.values[i] != 0)
        cells_[i].fetch_add(counters.values[i], std::memory_order_relaxed);
  }
  [[nodiscard]] WorkCounters snapshot() const noexcept {
    WorkCounters out;
    for (std::size_t i = 0; i < kWorkFieldCount; ++i)
      out.values[i] = cells_[i].load(std::memory_order_relaxed);
    return out;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kWorkFieldCount> cells_{};
};

/// Per-sink registry of thread blocks. local() hands the calling thread
/// its block (created on first use, stable address afterwards); total()
/// sums every block field-wise — deterministic regardless of how the work
/// was scheduled across threads.
class WorkProfile {
 public:
  WorkProfile() = default;
  WorkProfile(const WorkProfile&) = delete;
  WorkProfile& operator=(const WorkProfile&) = delete;

  [[nodiscard]] ThreadWorkBlock& local();
  [[nodiscard]] WorkCounters total() const;
  /// Threads that have acquired a block so far.
  [[nodiscard]] int thread_count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<ThreadWorkBlock>>>
      blocks_;
};

/// The calling thread's block of the active telemetry sink, or null when
/// profiling is off. Installed by support::TelemetryScope in lockstep
/// with current_telemetry().
[[nodiscard]] ThreadWorkBlock* current_block() noexcept;

/// Installs `block` as the thread's current block and returns the
/// previous one (TelemetryScope restores it on destruction).
ThreadWorkBlock* exchange_current_block(ThreadWorkBlock* block) noexcept;

}  // namespace hecmine::support::prof

// Deterministic work-counter profiling: cost accounting for the solver
// hot path.
//
// Wall-clock numbers do not transfer across hosts — the bench ledgers are
// gated at 2x slack precisely because timings are machine- and
// noise-dependent. What *does* transfer is the amount of algorithmic work
// a solve performs: best-response kernel evaluations, Gauss-Seidel sweeps,
// bisection iterations, bytes staged through the SoA workspace. This header makes that work first-class:
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
//     threads did the work — the determinism contract the bench counter
//     gate stands on (identical seeds => identical counts, and
//     thread-count-invariant wherever the algorithm itself is).
//   * current_block() — the calling thread's block of the active telemetry
//     sink, installed/restored by support::TelemetryScope exactly in step
//     with current_telemetry(). Instrumentation sites pay one TLS read and
//     a null test when profiling is off.
//   * PerfSampler — optional Linux perf_event_open hardware counters
//     (cycles / instructions / cache-misses), off by default. Opening can
//     fail without privileges (perf_event_paranoid); the sampler degrades
//     to "unavailable" and the outcome is recorded in the run manifest so
//     a ledger always says whether hardware sampling was live.
//
// The header is deliberately standalone (no telemetry/json includes) so
// the SoA and kernel layers can include it without pulling the full
// telemetry stack into their translation units.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
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
  kCacheHits,             ///< retired follower-cache hits (always 0; kept
                          ///< so committed ledgers keep their columns)
  kCacheMisses,           ///< retired follower-cache misses (always 0)
  kSoaBytesMoved,         ///< bytes staged through AoS<->SoA converters
};

inline constexpr std::size_t kWorkFieldCount = 10;

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

/// One reading of the hardware counter group.
struct PerfSample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;

  [[nodiscard]] PerfSample delta_since(const PerfSample& earlier) const noexcept {
    return {cycles - earlier.cycles, instructions - earlier.instructions,
            cache_misses - earlier.cache_misses};
  }
  [[nodiscard]] bool any() const noexcept {
    return cycles != 0 || instructions != 0 || cache_misses != 0;
  }
};

/// Optional perf_event_open sampler (Linux only; a stub elsewhere). Not
/// opened by construction — call open() to try. The counters are bound to
/// the *opening* thread, so per-span hardware attribution is only
/// meaningful on serial (threads=1) profiling runs; see DESIGN.md for the
/// caveats. read() on a sampler that is not live returns zeros.
class PerfSampler {
 public:
  PerfSampler() = default;
  ~PerfSampler();
  PerfSampler(const PerfSampler&) = delete;
  PerfSampler& operator=(const PerfSampler&) = delete;

  /// Attempts to open the counter group on the calling thread. Returns
  /// live(); on failure the sampler stays inert and status() explains why
  /// (typically perf_event_paranoid in containers).
  bool open();
  [[nodiscard]] bool live() const noexcept { return fds_[0] >= 0; }
  /// "off" (never opened), "on", or "unavailable: <reason>". Recorded in
  /// the run manifest's perf_sampler field.
  [[nodiscard]] const std::string& status() const noexcept { return status_; }
  [[nodiscard]] PerfSample read() const noexcept;

 private:
  std::array<int, 3> fds_{-1, -1, -1};  ///< cycles, instructions, cache-misses
  std::string status_ = "off";
};

}  // namespace hecmine::support::prof

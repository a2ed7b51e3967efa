// Solver health monitoring: streaming convergence analytics + watchdogs.
//
// The IterationProbe (PR 4) already sees one record per iteration of every
// solver loop — the class fixed point (one solve per surcharge probe in
// standalone mode), VI extragradient steps, leader rounds, RL pricing.
// This layer turns that stream into *live* diagnostics instead of post-hoc
// log analysis:
//
//   * ConvergenceEstimator — an online per-solve estimator. Feeds on the
//     residual sequence r_1, r_2, ... and maintains an EWMA of the ratio
//     r_t / r_{t-1}: the estimated contraction rate rho. For rho < 1 it
//     predicts the iterations remaining until the loop's own tolerance
//     (n ~ log(tol / r_t) / log(rho)). Three classifiers run on top:
//       - divergence: rho stays above `divergence_rho` for
//         `divergence_patience` consecutive iterations *and* the residual
//         keeps setting fresh highs for that run (a bounded limit cycle
//         holds rho > 1 on its up-legs without ever exceeding residuals it
//         already visited — that is oscillation, not divergence), or the
//         residual grows by `divergence_growth`x over the window;
//       - oscillation: the residual deltas alternate sign for most of the
//         window while the EWMA shows no net decay, or the window repeats
//         an exact period-p cycle (2 <= p <= window/2) far above tolerance;
//       - stall: the windowed residual collapses into a flat band well
//         above tolerance.
//     Classifiers fire at most once per solve, only after `warmup`
//     iterations, and only while the residual is above tolerance — a
//     cleanly contracting loop (rho < 1, monotone decay) never fires.
//   * HealthMonitor — an IterationProbe::Observer that runs one estimator
//     per in-flight solve, folds per-loop aggregates into thread-count-
//     invariant `health.*` gauges (sums and maxima only — never
//     last-write-wins), retains structured hecmine.health.v1 events for
//     the flight recorder, and optionally escalates: warn via support::log
//     or abort the offending solve with a typed SolverHealthError thrown
//     from the recording thread.
//
// The monitor attaches via IterationProbe::set_observer — no solver loop
// gains a hook; the existing probe feed is the transport. Everything here
// is off the hot path when no observer is installed (one relaxed atomic
// load in IterationProbe::record).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/telemetry.hpp"

namespace hecmine::support::health {

/// What the watchdog does when a loop is classified as unhealthy.
enum class WatchdogAction {
  kObserve,  ///< record gauges + events only
  kWarn,     ///< observe + log a warning per incident
  kAbort,    ///< warn + throw SolverHealthError on divergence
};

/// Parses "observe" / "warn" / "abort" (throws PreconditionError otherwise).
[[nodiscard]] WatchdogAction parse_watchdog_action(const std::string& text);
[[nodiscard]] const char* watchdog_action_name(WatchdogAction action);

/// Classifier verdict for one solve.
enum class LoopState {
  kHealthy,
  kStalled,
  kOscillating,
  kDiverging,
};

[[nodiscard]] const char* loop_state_name(LoopState state);

/// Tuning for the estimator and classifiers. The defaults are calibrated
/// so the repo's tracked workloads (leader stage, campaign, scale bench)
/// produce zero incidents; see DESIGN.md §15 for the reasoning.
struct HealthOptions {
  /// Iterations before any classifier may fire (the EWMA needs samples).
  int warmup = 6;
  /// Ring of recent residuals consulted by the stall/oscillation/growth
  /// classifiers (>= 4).
  int window = 8;
  /// EWMA smoothing for the residual ratio (0 < alpha <= 1).
  double ewma_alpha = 0.25;
  /// Per-step ratios are clamped to this before entering the EWMA so one
  /// spike cannot swamp the estimate.
  double ratio_cap = 10.0;
  /// Divergence: EWMA ratio must exceed this...
  double divergence_rho = 1.1;
  /// ...for this many consecutive iterations (resets when it dips below).
  int divergence_patience = 8;
  /// Divergence (fast path): residual grew by this factor over the window.
  double divergence_growth = 100.0;
  /// Oscillation: fraction of window steps whose residual delta flips sign.
  double oscillation_fraction = 0.75;
  /// Oscillation also requires no net decay: EWMA ratio >= this.
  double oscillation_rho = 0.9;
  /// Oscillation (limit-cycle path): window entries p apart match within
  /// this relative tolerance for some period 2 <= p <= window/2.
  double recurrence_rel_tol = 1e-6;
  /// Stall: (window max - window min) <= band * window max, above tol.
  double plateau_band = 1e-3;
  /// Used when a record carries tolerance 0 (loop tolerance unknown).
  double fallback_tolerance = 1e-9;
  /// Escalation policy (see WatchdogAction).
  WatchdogAction action = WatchdogAction::kWarn;
  /// Per-solve estimator states kept live; oldest evicted FIFO beyond this
  /// (their aggregates are already folded, nothing is lost).
  std::size_t max_active_solves = 1024;
  /// Retained + pending event lines are each bounded by this.
  std::size_t max_events = 256;
};

/// Typed error thrown by the abort escalation path. Unwinds the solver
/// loop that recorded the diverging iterate, on that loop's own thread.
class SolverHealthError : public std::runtime_error {
 public:
  SolverHealthError(std::string solver, std::uint64_t solve, int iteration,
                    LoopState state, double rho, double residual);

  [[nodiscard]] const std::string& solver() const noexcept { return solver_; }
  [[nodiscard]] std::uint64_t solve() const noexcept { return solve_; }
  [[nodiscard]] int iteration() const noexcept { return iteration_; }
  [[nodiscard]] LoopState state() const noexcept { return state_; }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] double residual() const noexcept { return residual_; }

 private:
  std::string solver_;
  std::uint64_t solve_;
  int iteration_;
  LoopState state_;
  double rho_;
  double residual_;
};

/// Online convergence estimator for one residual stream. Reusable outside
/// the monitor — hecmine_health feeds it offline from an iterlog file.
class ConvergenceEstimator {
 public:
  explicit ConvergenceEstimator(const HealthOptions& options = {});

  /// Feeds one residual (in iteration order). `tolerance` is the loop's
  /// own stopping tolerance (<= 0 = unknown, falls back to
  /// HealthOptions::fallback_tolerance). Returns the classifier that
  /// *newly* fired on this sample, or kHealthy. Each classifier fires at
  /// most once per estimator.
  LoopState update(double residual, double tolerance = 0.0);

  /// Worst classification fired so far (kHealthy if none).
  [[nodiscard]] LoopState state() const noexcept { return worst_; }
  [[nodiscard]] int iterations() const noexcept { return iterations_; }
  [[nodiscard]] double last_residual() const noexcept { return last_residual_; }
  /// EWMA contraction-rate estimate (1.0 until two samples arrive).
  [[nodiscard]] double rho() const noexcept { return ewma_; }
  /// Largest EWMA value observed at/after warmup (0 before warmup) — the
  /// order-invariant "how close to divergent did this solve get" summary.
  [[nodiscard]] double rho_worst() const noexcept { return rho_worst_; }
  /// Resolved tolerance in effect.
  [[nodiscard]] double tolerance() const noexcept { return tolerance_; }
  /// Predicted iterations remaining to reach tolerance from the latest
  /// residual: 0 when already below tolerance, +inf when rho >= 1 (or
  /// fewer than two samples).
  [[nodiscard]] double predicted_iterations() const;
  /// Min / max / mean over the residual window (0 while empty).
  [[nodiscard]] double window_min() const noexcept;
  [[nodiscard]] double window_max() const noexcept;
  [[nodiscard]] double window_mean() const noexcept;

 private:
  [[nodiscard]] bool window_full() const noexcept {
    return window_.size() >= static_cast<std::size_t>(options_.window);
  }

  HealthOptions options_;
  std::deque<double> window_;  ///< most recent residuals, oldest in front
  std::deque<int> delta_signs_;  ///< sign of r_t - r_{t-1} per window step
  int iterations_ = 0;
  double last_residual_ = 0.0;
  double ewma_ = 1.0;
  bool ewma_seeded_ = false;
  double rho_worst_ = 0.0;
  double tolerance_ = 0.0;
  int above_rho_run_ = 0;  ///< consecutive samples with ewma > divergence_rho
  double above_rho_peak_ = 0.0;  ///< largest residual seen in the run
  LoopState worst_ = LoopState::kHealthy;
  bool fired_stall_ = false;
  bool fired_oscillation_ = false;
  bool fired_divergence_ = false;
};

/// One structured watchdog event (schema hecmine.health.v1).
struct HealthEvent {
  std::string solver;  ///< loop label ("span path" of the probe record)
  std::uint64_t solve = 0;
  int iteration = 0;
  LoopState classification = LoopState::kHealthy;
  double residual = 0.0;
  double tolerance = 0.0;
  double rho = 0.0;
  double window_min = 0.0;
  double window_max = 0.0;
  double predicted_iterations = 0.0;
  WatchdogAction action = WatchdogAction::kObserve;
};

/// Serializes one event as a single hecmine.health.v1 JSON line (newline
/// excluded). When `manifest` is non-null its git sha is embedded so a
/// flight tail can be traced back to the producing build.
[[nodiscard]] std::string event_json(
    const HealthEvent& event,
    const provenance::RunManifest* manifest = nullptr);

/// Per-loop aggregates. Everything here is a sum or a maximum over the
/// multiset of solves, so the values are invariant to the thread count and
/// scheduling order that produced the stream.
struct LoopHealthStats {
  std::uint64_t solves = 0;    ///< distinct solve ids seen
  std::uint64_t records = 0;   ///< iterates observed
  std::uint64_t stalls = 0;
  std::uint64_t oscillations = 0;
  std::uint64_t divergences = 0;
  double rho_worst = 0.0;      ///< max post-warmup EWMA across solves
  double predicted_iterations_max = 0.0;  ///< max finite prediction seen
};

/// The streaming health monitor. Construct with the sink whose probe to
/// observe; the constructor installs itself via set_observer (arming the
/// probe), the destructor detaches. One monitor per sink.
class HealthMonitor final : public IterationProbe::Observer {
 public:
  explicit HealthMonitor(Telemetry& sink, HealthOptions options = {});
  ~HealthMonitor() override;
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void on_record(const IterationProbe::Record& record) override;

  /// Total incidents (stall + oscillation + divergence) across all loops.
  [[nodiscard]] std::uint64_t incidents() const;
  /// Per-loop aggregates, sorted by loop label.
  [[nodiscard]] std::vector<std::pair<std::string, LoopHealthStats>>
  loop_stats() const;
  /// Retained events, oldest first (bounded by HealthOptions::max_events).
  [[nodiscard]] std::vector<HealthEvent> events() const;
  /// Moves out the pending serialized hecmine.health.v1 lines — wire this
  /// into TelemetryFlusher::set_event_drain so watchdog events land in the
  /// flight recorder (including its final shutdown flush).
  [[nodiscard]] std::vector<std::string> drain_event_lines();

  [[nodiscard]] const HealthOptions& options() const noexcept {
    return options_;
  }

 private:
  struct LoopSlot {
    LoopHealthStats stats;
    // Gauge handles resolved once per loop label; updates after that are
    // lock-free stores.
    Gauge* solves = nullptr;
    Gauge* records = nullptr;
    Gauge* stalls = nullptr;
    Gauge* oscillations = nullptr;
    Gauge* divergences = nullptr;
    Gauge* rho_worst = nullptr;
    Gauge* predicted_max = nullptr;
  };
  struct SolveSlot {
    ConvergenceEstimator estimator;
    LoopSlot* loop = nullptr;
  };

  LoopSlot& loop_slot(const std::string& solver);
  void raise(const IterationProbe::Record& record, const SolveSlot& slot,
             LoopState classification);

  Telemetry& sink_;
  const HealthOptions options_;
  Gauge& incidents_gauge_;
  mutable std::mutex mutex_;
  std::map<std::string, LoopSlot> loops_;
  std::map<std::uint64_t, SolveSlot> active_;
  std::deque<std::uint64_t> active_order_;  ///< FIFO eviction order
  std::deque<HealthEvent> events_;          ///< retained, bounded
  std::vector<std::string> pending_lines_;  ///< for the flight drain
  std::uint64_t incidents_ = 0;
};

}  // namespace hecmine::support::health

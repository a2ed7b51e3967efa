// Streaming campaign aggregates + equilibrium drift detection.
//
// A campaign is trustworthy only if its realized statistics converge to
// the model: empirical per-miner win rates to the closed-form W_i of the
// auditor's equilibrium (PAPER.md Eqs. 4-9), the orphan rate to the
// beta(D) fork model. The CampaignMonitor folds the per-block record
// stream (the same records the blocklog writes) into:
//
//   * CLT drift scores. For each miner the monitor accumulates the exact
//     per-round win probability under the *granted* allocations (the
//     sampler expectation — validates chain::run_race against Eq. 6) and,
//     when a reference equilibrium is installed, the per-round W_i the
//     active subset would have under the reference requests (the
//     equilibrium expectation — validates that the campaign actually
//     plays the audited equilibrium). With expectation sum m = sum_b p_b
//     and variance sum v = sum_b p_b (1 - p_b), the drift score is
//     z = (wins - m) / sqrt(v); |z| > drift_z with a material rate gap is
//     a win-rate-drift incident. The same machinery scores the fork
//     counter against m_f = sum_b beta C_b / S_b.
//   * campaign.* gauges — difficulty, EWMA orphan rate (observed and
//     model), drift-z maxima, decentralization (HHI / effective miners /
//     Nakamoto at finalize), queue depth/throughput, sim time — exported
//     through the shared Telemetry sink into the flight recorder's
//     snapshots. Every gauge except campaign.sim_wall_ratio is a pure
//     function of the observed record stream, hence bitwise invariant to
//     the solver thread count.
//   * Perfetto campaign tracks: per-block spans plus difficulty / orphan
//     / queue-depth counter series on the sink's sim-time DomainTimeline.
//   * hecmine.health.v1 incidents under the existing observe/warn/abort
//     watchdog policy, each written to the sink's flight stream as it is
//     raised: abort throws support::health::SolverHealthError out of the
//     campaign loop, so a mis-converged campaign terminates with a typed
//     error (CLI exit 5) instead of silently producing garbage statistics.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "chain/blocklog.hpp"
#include "core/types.hpp"
#include "support/health.hpp"
#include "support/telemetry.hpp"

namespace hecmine::net {

/// A drift incident also needs the absolute win-rate gap |wins/rounds -
/// m/rounds| to exceed this fraction of the expected rate. The guard keeps
/// model error (the connected-mode Eq. 9 is itself an approximation of the
/// transfer process) from tripping the CLT bound at huge n.
inline constexpr double kMinRelGap = 0.02;

/// Tuning for the campaign monitor. Defaults keep the repo's tracked
/// campaigns incident-free; see DESIGN.md §16 for the calibration notes.
struct CampaignMonitorOptions {
  /// Drift fires when |z| exceeds this (z is in standard deviations, so 4
  /// is a ~6e-5 two-sided false-positive rate per check) and the rate gap
  /// exceeds kMinRelGap of the expected rate.
  double drift_z = 4.0;
  /// Rounds a miner must accumulate before its drift score may fire.
  std::size_t min_rounds = 256;
  /// Cadence (in observed rounds) of the O(n) drift / decentralization
  /// scans; scalar gauges update every round regardless.
  std::size_t check_stride = 64;
  /// Emit campaign.sim_wall_ratio (the one wall-clock gauge, excluded
  /// from the determinism contract). Tests disable it.
  bool wall_clock = true;
  /// Escalation policy for drift incidents (observe / warn / abort).
  support::health::WatchdogAction action =
      support::health::WatchdogAction::kWarn;
};

/// CLT drift score (hits - expected) / sqrt(variance) of a count against
/// its expectation sums; 0 while the variance is too small to normalize.
[[nodiscard]] double drift_score(double hits, double expected,
                                 double variance);

/// One application of the drift rule to a CLT pair: a miner's wins against
/// its reference win-probability sums, or the fork count against the
/// beta(D) sums.
struct DriftTest {
  double z = 0.0;          ///< drift_score(hits, expected sum, variance sum)
  double empirical = 0.0;  ///< hits / rounds
  double expected = 0.0;   ///< expected sum / rounds
  double gap = 0.0;        ///< |empirical - expected|
  double slack = 0.0;      ///< the gap the thresholds allow
  /// rounds >= min_rounds, |z| > drift_z, and gap > kMinRelGap * expected.
  bool drifted = false;
};

/// The drift rule. CampaignMonitor's scans and the offline block-log
/// replay (`hecmine_report campaign`) both judge drift with it, so the two
/// cannot disagree.
[[nodiscard]] DriftTest drift_test(std::uint64_t hits, std::uint64_t rounds,
                                   double expected, double variance,
                                   const CampaignMonitorOptions& options);

/// Live campaign statistics monitor. One instance per campaign run; feed
/// it every round via observe_block() (the campaign loop does this when
/// CampaignConfig::monitor is set) and call finalize() at end of run.
class CampaignMonitor {
 public:
  CampaignMonitor(support::Telemetry& sink,
                  CampaignMonitorOptions options = {});

  /// Installs the auditor's reference equilibrium: `requests[i]` is the
  /// request global miner i is expected to play. Per observed round the
  /// monitor recomputes the active subset's W_i under these requests
  /// (standalone: Eq. 6; connected: Eq. 9 with `edge_success`) and
  /// accumulates the CLT pair against realized wins. Miners with bitwise
  /// equal requests (for an equilibrium, a budget class) share one W_i
  /// evaluation per round.
  void set_reference(std::vector<core::MinerRequest> requests,
                     core::EdgeMode mode, double fork_rate,
                     double edge_success);
  [[nodiscard]] bool has_reference() const;

  /// Declares the expected campaign length (sets the timeline decimation
  /// stride for about 2048 samples). Optional; without it every round
  /// lands on the timeline until its capacity bound.
  void begin_campaign(std::size_t expected_blocks);

  /// Folds one round. `active_ids`/`granted` are the global ids and
  /// granted allocations of the round's active miners (parallel arrays);
  /// `record` carries the race outcome and aggregates, exactly as logged
  /// to the blocklog. Under WatchdogAction::kAbort a drift incident
  /// throws SolverHealthError from inside this call, after its line is on
  /// the sink's stream.
  void observe_block(const chain::BlockRecord& record,
                     const std::vector<std::size_t>& active_ids,
                     const std::vector<chain::Allocation>& granted);

  /// Folds event-queue statistics from the event-driven network path
  /// (sim::EventQueue depth watermark + processed-event count) into the
  /// campaign.queue_* gauges and the timeline.
  void observe_queue(std::size_t max_depth, std::uint64_t processed);

  /// Final O(n) scan: updates the decentralization gauges (including the
  /// Nakamoto coefficient, too costly per stride), re-checks drift,
  /// writes the summary line into `log` when given, and escalates a
  /// pending abort. Idempotent on the gauges; call once.
  void finalize(chain::BlockLogWriter* log = nullptr);

  /// Per-miner convergence sums (sampler and reference CLT pairs).
  [[nodiscard]] std::vector<chain::BlockLogMinerSummary> miner_summaries()
      const;
  /// Full-campaign summary (the object finalize() writes to the log).
  [[nodiscard]] chain::BlockLogSummary summary() const;
  /// Largest |z| against the reference equilibrium over miners with
  /// enough rounds (0 without a reference).
  [[nodiscard]] double max_drift_z() const;
  /// Largest |z| of the sampler self-consistency check.
  [[nodiscard]] double max_sampler_z() const;
  /// Fork-count drift score against the beta(D) model.
  [[nodiscard]] double fork_z() const;
  /// Drift incidents raised so far.
  [[nodiscard]] std::uint64_t incidents() const;
  /// Retained incident events, oldest first: the newest 64.
  [[nodiscard]] std::vector<support::health::HealthEvent> events() const;

  [[nodiscard]] const CampaignMonitorOptions& options() const noexcept {
    return options_;
  }

 private:
  struct MinerSlot {
    chain::BlockLogMinerSummary sums;
    bool fired = false;  ///< win-rate incident raised (once per miner)
  };

  /// Miners whose reference requests are bitwise equal. A round evaluates
  /// the group's W_i once, on its first active member, and every active
  /// member adds that value; an absent group is never evaluated (its
  /// request need not fit inside the round's reference totals).
  struct RequestGroup {
    core::MinerRequest request;
    std::uint64_t stamp = 0;  ///< evaluation round of `p_ref` (0 = none)
    double p_ref = 0.0;
  };
  /// The gauges every round sets, resolved on the first observed round so
  /// a monitor that observes nothing registers none.
  struct RoundGauges {
    support::Gauge* rounds = nullptr;
    support::Gauge* sim_time = nullptr;
    support::Gauge* difficulty = nullptr;
    support::Gauge* unit_rate = nullptr;
    support::Gauge* fork_ewma = nullptr;
    support::Gauge* fork_model_ewma = nullptr;
  };

  void ensure_miners(std::size_t count);
  /// Raises one incident: retains the event, bumps gauges, and writes
  /// its hecmine.health.v1 line to the sink's stream when one is attached
  /// (the stream's mutex is taken under the monitor's). The caller holds
  /// the mutex and warns/throws per the watchdog action after releasing
  /// it; a throw leaves the monitor consistent.
  void raise(const std::string& solver, std::uint64_t solve,
             std::uint64_t round, double z, double gap, double bound,
             double empirical, double expected);
  /// O(n) drift + decentralization scan (mutex held).
  void scan(std::uint64_t round, bool final_scan);

  support::Telemetry& sink_;
  const CampaignMonitorOptions options_;
  mutable std::mutex mutex_;

  // Reference equilibrium (empty = sampler checks only): miner -> group.
  std::vector<std::uint32_t> reference_group_;
  std::vector<RequestGroup> groups_;
  std::uint64_t group_stamp_ = 0;  ///< bumped once per observed round
  core::EdgeMode reference_mode_ = core::EdgeMode::kStandalone;
  double reference_fork_rate_ = 0.0;
  double reference_edge_success_ = 1.0;

  std::vector<MinerSlot> miners_;
  std::uint64_t rounds_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t forks_ = 0;
  double fork_expected_ = 0.0;
  double fork_variance_ = 0.0;
  bool fork_fired_ = false;
  double fork_ewma_ = 0.0;
  double fork_model_ewma_ = 0.0;
  bool ewma_seeded_ = false;
  double sim_time_ = 0.0;
  double max_drift_z_ = 0.0;
  double max_sampler_z_ = 0.0;
  std::uint64_t timeline_stride_ = 1;
  RoundGauges gauges_;
  std::uint64_t incidents_ = 0;
  bool finalized_ = false;
  std::deque<support::health::HealthEvent> events_;
  std::uint64_t wall_start_ns_ = 0;  ///< steady clock at construction
};

}  // namespace hecmine::net

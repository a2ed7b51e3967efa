// Streaming per-block event log (schema hecmine.blocklog.v1).
//
// Block-level time series are the primary artifact of an incentive
// simulation: the paper's validation story is statistical (empirical win
// rates must converge to the closed-form W_i, orphans must follow the
// beta(D) fork model), and that check needs the per-block record stream,
// not just end-of-run tallies. The writer emits JSONL through the
// json::Writer + provenance-manifest conventions shared by every other
// export:
//
//   line 1            {"schema": "hecmine.blocklog.v1", "manifest": {...}}
//   line 2 (optional) {"kind": "reference", ...}    the equilibrium the
//                     campaign is expected to play — per-miner requests,
//                     mode, fork rate — so an offline replay can recompute
//                     the expected win probabilities per block
//   then              one compact object per simulated round (winner, race
//                     / fork outcome, difficulty, block interval, hash
//                     shares, sim time)
//   last (optional)   {"kind": "summary", ...}      full-campaign per-miner
//                     convergence aggregates, so logs whose records were
//                     strided or share-capped still support drift checks
//
// `hecmine_report campaign` replays a log through a net::CampaignMonitor
// into a convergence table; live, the monitor folds the same records into
// campaign.* gauges.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "chain/race.hpp"
#include "support/provenance.hpp"

namespace hecmine::chain {

inline constexpr const char* kBlockLogSchema = "hecmine.blocklog.v1";

/// One simulated round, as logged. `winner < 0` marks an idle round (no
/// active computing power); fork/steal mirror RaceOutcome.
struct BlockRecord {
  std::uint64_t round = 0;   ///< 0-based round index within the run
  std::uint64_t height = 0;  ///< ledger height after the round
  std::int64_t winner = -1;  ///< global miner id of the reward recipient
  bool via_edge = false;     ///< winning block solved at the edge
  bool fork = false;         ///< a conflicting block appeared
  bool steal = false;        ///< the conflict changed the winner
  double interval = 0.0;     ///< PoW race duration (sim time units)
  double sim_time = 0.0;     ///< cumulative sim clock after the round
  double fork_rate = 0.0;    ///< beta in effect for the round
  double difficulty = 1.0;   ///< relative difficulty (retarget product)
  double unit_rate = 1.0;    ///< solutions per time unit per unit
  std::uint64_t active = 0;  ///< miners with a granted allocation
  double edge_units = 0.0;   ///< aggregate granted edge units E
  double cloud_units = 0.0;  ///< aggregate granted cloud units C
  double p_fork = 0.0;       ///< model fork probability beta * C / S
  double p_winner = 0.0;     ///< sampler win probability of the winner
};

/// Per-miner convergence aggregate carried by the trailing summary line.
/// `expected`/`variance` are the sums of the per-round sampler win
/// probability p and p(1-p) over the miner's active rounds (the CLT pair);
/// the `_ref` pair is the same sums against the reference equilibrium
/// requests (zero when no reference was set).
struct BlockLogMinerSummary {
  std::uint64_t miner = 0;
  std::uint64_t wins = 0;
  std::uint64_t rounds = 0;
  double expected = 0.0;
  double variance = 0.0;
  double expected_ref = 0.0;
  double variance_ref = 0.0;
};

/// Full-campaign aggregates for the trailing summary line.
struct BlockLogSummary {
  std::uint64_t rounds = 0;  ///< rounds observed (idle rounds included)
  std::uint64_t blocks = 0;  ///< rounds that produced a block
  std::uint64_t forks = 0;
  double fork_expected = 0.0;  ///< sum of per-block p_fork
  double fork_variance = 0.0;  ///< sum of p_fork (1 - p_fork)
  bool has_reference = false;
  std::vector<BlockLogMinerSummary> miners;
};

/// Streaming JSONL writer for hecmine.blocklog.v1. Construction writes the
/// header line; every append() past the stride filter writes one record
/// line. Not thread-safe by design: block production is serial in every
/// producer (campaign loop, MiningSimulator, RL trainer).
class BlockLogWriter {
 public:
  struct Options {
    /// Log every stride-th round (round % stride == 0); 1 = every round.
    /// Strided subsampling is outcome-independent, so CLT statistics over
    /// the logged subset stay valid.
    std::size_t stride = 1;
    /// Per-round hash shares are embedded only while the active-miner
    /// count stays at or below this (exact replay for small populations
    /// without exploding large-scale logs).
    std::size_t max_share_miners = 64;
  };

  /// Opens `path` (parent directories created) and writes the header.
  /// When `manifest` is set it is embedded so the log traces back to the
  /// producing build. Throws on I/O failure or a zero stride.
  explicit BlockLogWriter(
      const std::string& path,
      const support::provenance::RunManifest* manifest = nullptr);
  BlockLogWriter(const std::string& path,
                 const support::provenance::RunManifest* manifest,
                 Options options);

  /// Writes the reference-equilibrium line: the per-miner requests
  /// (edge_units/cloud_units pairs, index = global miner id) the campaign
  /// is expected to play, plus the model constants a replay needs. Call at
  /// most once, before the first append.
  void write_reference(const std::string& mode, double fork_rate,
                       double edge_success,
                       const std::vector<Allocation>& requests);

  /// Logs one round. `active_ids` and `granted` (parallel, same length)
  /// are the global ids and granted allocations of the round's active
  /// miners; both may be null, and shares are embedded only when provided
  /// and within Options::max_share_miners.
  void append(const BlockRecord& record,
              const std::vector<std::size_t>* active_ids = nullptr,
              const std::vector<Allocation>* granted = nullptr);

  /// Writes the trailing summary line (call at most once, at end of run).
  void write_summary(const BlockLogSummary& summary);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// Record lines written (stride survivors; header/reference/summary
  /// lines excluded).
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  std::string path_;
  Options options_;
  std::ofstream out_;
  std::uint64_t records_ = 0;
};

}  // namespace hecmine::chain

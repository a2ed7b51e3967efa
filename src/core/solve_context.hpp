// Shared solver context: the "who owns the knobs" half of the
// FollowerOracle layer (core/oracle.hpp).
//
// The thread count, the follower tolerances and the telemetry sink are
// needed by every layer that embeds follower solves, so a SolveContext
// owns them exactly once:
//
//   * threads   — fan-out for price scans / Monte-Carlo blocks (0 = auto via
//                 HECMINE_THREADS else hardware concurrency, 1 = serial);
//                 results are bitwise identical for every setting,
//   * rng_root  — substream root seed for Monte-Carlo decorators (e.g. the
//                 population-expectation oracle),
//   * follower  — tolerances of the embedded miner solves,
//   * aggregate — opt-in class-aggregate dispatch,
//   * telemetry — optional instrumentation sink.
//
// The struct is header-only and intentionally tiny so that layers below
// core (game/) can embed one without linking against core.
#pragma once

#include <cstdint>

namespace hecmine::support {
class Telemetry;  // support/telemetry.hpp
}  // namespace hecmine::support

namespace hecmine::core {

/// Options for the follower-stage solvers.
struct MinerSolveOptions {
  double damping = 0.5;       ///< best-response damping (1 = undamped)
  double tolerance = 1e-9;    ///< profile max-norm change at convergence
  int max_iterations = 4000;
  double vi_tolerance = 1e-8; ///< natural-residual target of the VI solver
};

/// Dispatch knobs of the ClassAggregateOracle (core/aggregate_oracle.hpp).
/// Aggregation is opt-in: the oracle factories pick the aggregate oracle
/// only when dispatch_threshold is positive, the pool holds at least that
/// many miners, and bucketing the budgets yields at most max_classes
/// classes; otherwise they fall back to the dense NEP/GNEP oracles
/// unchanged.
struct AggregateOracleOptions {
  /// Minimum miner count before auto-dispatch considers the aggregate
  /// oracle; 0 (the default) disables auto-dispatch entirely.
  int dispatch_threshold = 0;
  /// Largest class count the aggregate path accepts; pools that bucket
  /// into more classes than this stay on the dense oracles.
  int max_classes = 64;
};

/// One bundle of cross-cutting solver resources, passed down every layer
/// that embeds follower solves (leader stage, dynamic population, RL
/// references, sweeps). Copyable; the telemetry pointer is shared, not
/// owned.
struct SolveContext {
  /// Concurrent payoff/follower evaluations (0 = auto, 1 = serial).
  int threads = 0;
  /// Root seed for Rng substreams drawn by Monte-Carlo decorators.
  std::uint64_t rng_root = 0x9e3779b97f4a7c15ULL;
  /// Tolerances of the embedded miner solves.
  MinerSolveOptions follower;
  /// Aggregate-oracle dispatch knobs (off by default; see
  /// AggregateOracleOptions).
  AggregateOracleOptions aggregate;
  /// Optional telemetry sink (not owned). When set, oracle factories wrap
  /// solves in instrumentation and leader loops record phase spans; when
  /// null every instrumentation site reduces to one pointer test.
  support::Telemetry* telemetry = nullptr;
};

}  // namespace hecmine::core

// Shared solver context: the knobs of the follower oracle
// (core/oracle.hpp) and of every layer that embeds it.
//
// The thread count, the follower tolerances and the telemetry sink are
// needed by every layer that embeds follower solves, so a SolveContext
// owns them exactly once:
//
//   * threads   — fan-out for price scans / Monte-Carlo blocks (0 = auto via
//                 HECMINE_THREADS else hardware concurrency, 1 = serial);
//                 results are bitwise identical for every setting,
//   * rng_root  — root seed of deterministic sampling (the audit's
//                 monotonicity samples; recorded in the run manifest),
//   * follower  — iteration budgets and tolerances of the embedded miner
//                 solves,
//   * aggregate — a retired dispatch knob that selects nothing,
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

/// Options for the follower-stage solvers. The class solver
/// (core/aggregate_oracle.hpp) is closed form except for the standalone
/// cap root, which max_iterations caps.
struct MinerSolveOptions {
  int max_iterations = 4000;  ///< cap-root steps per level; VI budget / 20
  double vi_tolerance = 1e-8; ///< natural-residual target of the VI solver
};

/// Former dispatch knobs of the class solver (core/aggregate_oracle.hpp),
/// which is now the follower solver for every pool. Nothing reads them.
struct AggregateOracleOptions {
  /// Selects nothing. Kept only because the benchmark workloads
  /// (perfbench/src/crowd.cpp, campaign.cpp) still set it; it goes when the
  /// benchmark next changes.
  int dispatch_threshold = 0;
};

/// One bundle of cross-cutting solver resources, passed down every layer
/// that embeds follower solves (leader stage, dynamic population, RL
/// references, sweeps). Copyable; the telemetry pointer is shared, not
/// owned.
struct SolveContext {
  /// Concurrent payoff/follower evaluations (0 = auto, 1 = serial).
  int threads = 0;
  /// Root seed for deterministic sampling (the audit's monotonicity
  /// samples).
  std::uint64_t rng_root = 0x9e3779b97f4a7c15ULL;
  /// Tolerances of the embedded miner solves.
  MinerSolveOptions follower;
  /// Retired dispatch knobs; nothing reads them (see
  /// AggregateOracleOptions).
  AggregateOracleOptions aggregate;
  /// Optional telemetry sink (not owned). When set, follower oracles
  /// instrument their solves and leader loops record phase spans; when
  /// null every instrumentation site reduces to one pointer test.
  support::Telemetry* telemetry = nullptr;
};

}  // namespace hecmine::core

// Multi-leader Stackelberg driver (Algorithm 1 / Algorithm 2 of the paper).
//
// Leaders hold scalar actions (unit prices). Each leader's payoff is
// evaluated *after* the followers re-equilibrate, so the follower
// equilibrium computation is embedded in the leader payoff oracle supplied
// by the caller. The driver runs asynchronous (Gauss-Seidel) best-response
// over leaders, each best response computed by a robust 1-D scan+refine.
#pragma once

#include <functional>
#include <vector>

#include "core/solve_context.hpp"  // header-only; game does not link core

namespace hecmine::game {

/// Payoff of leader `i` when the leader action vector is `actions`
/// (followers assumed at their equilibrium for those actions). With
/// context.threads != 1 solve_stackelberg evaluates candidate actions
/// concurrently, so the oracle must tolerate concurrent invocation (the
/// library's follower solvers are pure and qualify).
using LeaderPayoffFn =
    std::function<double(const std::vector<double>& actions, std::size_t leader)>;

/// Per-leader action interval.
struct ActionBounds {
  double lo = 0.0;
  double hi = 1.0;
};

/// Refinement tolerance of each 1-D best response's scan
/// (num::Maximize1DOptions::tolerance).
inline constexpr double kRefineTolerance = 1e-8;

/// Options for the Stackelberg leader iteration.
struct StackelbergOptions {
  double tolerance = 1e-6;  ///< max action change across one round to stop
  int max_rounds = 200;     ///< leader best-response rounds
  int grid_points = 48;     ///< coarse scan resolution per 1-D best response
  /// Shared solver resources. context.threads bounds the concurrent payoff
  /// evaluations per best response: the scan grid and the top-cell
  /// refinements fan out over the shared thread pool. 1 = serial; 0 = auto
  /// (HECMINE_THREADS, else hardware concurrency). Results are bitwise
  /// identical for every setting. The driver itself never touches
  /// context.follower — it rides along for the caller's payoff oracle.
  core::SolveContext context;
};

/// Outcome of the leader iteration.
struct StackelbergResult {
  std::vector<double> actions;   ///< leader actions (prices) at the end
  /// Leader payoffs, reused from each leader's final best-response scan
  /// rather than re-solved at the end (one follower equilibrium per leader
  /// saved). A leader updated before the last mover of the final round saw
  /// that mover's previous action, so entries can be stale by at most the
  /// final `residual` times the payoff's Lipschitz constant — below solver
  /// noise once converged.
  std::vector<double> payoffs;
  double residual = 0.0;         ///< last round's max action change
  int rounds = 0;                ///< rounds actually run
  bool converged = false;
  /// Non-zero when the iteration stopped because the action vector
  /// exactly repeated the one `cycle_period` rounds earlier (the start
  /// state counts as round 0) without meeting the tolerance. The payoff is
  /// a pure function of the actions and each scan is deterministic, so
  /// from then on the rounds replay the same cycle forever; `actions` and
  /// `payoffs` are the state at detection.
  int cycle_period = 0;
};

/// Asynchronous best-response over leaders (paper's Algorithm 1; with the
/// follower oracle of the standalone mode it realizes Algorithm 2's price
/// bargaining). Bounds must satisfy lo < hi per leader. Stops after
/// max_rounds, at the first round whose change is below the tolerance
/// (converged), or at the first exact repeat of an earlier round's action
/// vector (cycle_period > 0, converged = false).
[[nodiscard]] StackelbergResult solve_stackelberg(
    const LeaderPayoffFn& payoff, std::vector<double> start,
    const std::vector<ActionBounds>& bounds,
    const StackelbergOptions& options = {});

}  // namespace hecmine::game

// The service-provider (leader) subgame and the full Stackelberg game
// (paper Problems 2/2a/2b/2c, Algorithms 1 and 2, Theorem 4).
//
// Each SP picks its unit price anticipating the follower-stage equilibrium;
// the follower stage is a FollowerOracle (core/oracle.hpp) embedded in the
// leader payoff, and the leader iteration is asynchronous best-response
// over prices (Algorithm 1; with the standalone oracle this is exactly
// Algorithm 2's price bargaining). A sequential variant reproduces the
// structure of Theorem 4: the CSP's reaction curve P_c*(P_e) is computed
// first and the ESP maximizes over it.
//
// All entry points return one unified LeaderStageResult.
#pragma once

#include <vector>

#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// SP profits V_e = (P_e - C_e) E and V_c = (P_c - C_c) C (Eq. 2).
struct SpProfits {
  double edge = 0.0;
  double cloud = 0.0;
};

[[nodiscard]] SpProfits sp_profits(const NetworkParams& params,
                                   const Prices& prices, const Totals& totals);

/// Options for the leader-stage solvers.
struct SpSolveOptions {
  double price_margin = 1e-4;  ///< price lower bounds: cost * (1 + margin)
  /// Upper price bound; 0 = 2 max(C_e, C_c) + R/2 (heuristic: demand is
  /// ~R/n-scale per unit price gap, so higher prices sell nothing).
  double price_ceiling = 0.0;
  int grid_points = 40;        ///< 1-D scan resolution per price update
  double tolerance = 1e-5;     ///< max price change per round at convergence
  int max_rounds = 60;
  /// Shared solver resources: thread fan-out, RNG root, the embedded
  /// miner-solve tolerances and the telemetry sink, owned once
  /// (core/solve_context.hpp).
  SolveContext context;
  /// Test hook: run the general (numeric CSP reaction) leader stage even
  /// when every budget is equal (solve_leader_stage normally dispatches to
  /// the homogeneous stage; parity tests pin both paths against each other).
  bool force_profile_oracle = false;
  /// When the asynchronous price best response cycles (the simultaneous
  /// leader game can lack a pure NE — exactly the case Theorem 4
  /// analyzes), fall back to the sequential leader construction instead of
  /// returning the non-converged last iterate. On for every caller that
  /// wants an answer. Off, the caller gets the scan's state when it
  /// stopped: at the first exact repeat of an earlier round's prices (see
  /// game::StackelbergResult::cycle_period), else after max_rounds, with
  /// converged = false.
  bool sequential_fallback = true;
};

/// How the leader-stage solution was obtained.
enum class SpSolveMethod {
  kBestResponse,  ///< asynchronous best response converged (Algorithm 1/2)
  kSequential,    ///< Theorem 4's leader-anticipates-reaction construction
};

/// Unified leader-stage result: prices, profits, the follower equilibrium
/// as a class-shaped EquilibriumProfile, and solve metadata.
struct LeaderStageResult {
  Prices prices;                ///< leader prices (P_e*, P_c*)
  SpProfits profits;            ///< V_e*, V_c*
  EquilibriumProfile followers; ///< follower equilibrium at those prices
  SpSolveMethod method = SpSolveMethod::kBestResponse;
  /// The leader step converged (or the sequential construction ran) AND
  /// followers.converged holds (the finishing follower solve converged or
  /// passed its class certificate).
  bool converged = false;
  /// Price best-response rounds actually run (the scan stops at its first
  /// exact cycle), plus 1 when the sequential construction ran.
  int rounds = 0;
};

/// Leader-stage solve with n identical miners of budget B. Runs Algorithm 1
/// (connected) / Algorithm 2 (standalone) asynchronous price best response
/// first; when that cycles — the simultaneous-move leader game can lack a
/// pure NE exactly as Theorem 4 anticipates — it stops at the first exact
/// repeat of the prices, falls back to the sequential construction of
/// solve_leader_stage_sequential and reports method = kSequential. The
/// follower stage is the one-class solve, exact without iteration, making
/// price sweeps cheap.
[[nodiscard]] LeaderStageResult solve_leader_stage_homogeneous(
    const NetworkParams& params, double budget, int n, EdgeMode mode,
    const SpSolveOptions& options = {});

/// Theorem 4 structure: the CSP's best response P_c*(P_e) for fixed P_e.
/// Closed form where one applies (core/closed_forms.hpp): the Theorem 3 /
/// Corollary 1 root in connected mode when it lies in the price box, the
/// better-scoring Table II candidate in standalone mode when
/// B >= R(n-1)/n^2. Elsewhere a numeric scan of V_c over the price box.
[[nodiscard]] double csp_reaction_homogeneous(const NetworkParams& params,
                                              double budget, int n,
                                              EdgeMode mode, double price_edge,
                                              const SpSolveOptions& options = {});

/// Sequential solve reproducing Theorem 4: substitute the CSP reaction
/// curve (csp_reaction_homogeneous) into V_e and maximize the
/// one-dimensional composite over P_e.
[[nodiscard]] LeaderStageResult solve_leader_stage_sequential(
    const NetworkParams& params, double budget, int n, EdgeMode mode,
    const SpSolveOptions& options = {});

/// The paper's standalone SP equilibrium concept (Problem 2c): the leader
/// stage is solved *subject to the sell-out constraint E = E_max* — the ESP
/// prices exactly at the level where unconstrained edge demand meets its
/// capacity, and the CSP best-responds given that the ESP sells out
/// (Table II). Requires the capacity to be scarce (unconstrained demand
/// must exceed E_max somewhere above the CSP price); throws
/// ConvergenceError otherwise. Compare with solve_leader_stage_homogeneous,
/// which lets the CSP undercut the sell-out point — see EXPERIMENTS.md.
[[nodiscard]] LeaderStageResult solve_leader_stage_sellout(
    const NetworkParams& params, double budget, int n,
    const SpSolveOptions& options = {});

/// General leader-stage solve over arbitrary budgets. Auto-dispatches: when
/// every budget is equal (and n >= 2, and the force_profile_oracle hook is
/// off) this is solve_leader_stage_homogeneous; otherwise the CSP reaction
/// is a numeric scan over the class solver. Both paths share the Theorem 4
/// sequential fallback when the price best response cycles, so the
/// dispatch choice changes the cost of the solve, never its meaning.
[[nodiscard]] LeaderStageResult solve_leader_stage(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SpSolveOptions& options = {});

}  // namespace hecmine::core

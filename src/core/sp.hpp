// The service-provider (leader) subgame and the full Stackelberg game
// (paper Problems 2/2a/2b/2c, Algorithms 1 and 2, Theorem 4).
//
// Each SP picks its unit price anticipating the follower-stage equilibrium;
// the follower stage is a FollowerOracle (core/oracle.hpp) embedded in the
// leader payoff, and the leader iteration is asynchronous best-response
// over prices (Algorithm 1; with the standalone oracle this is exactly
// Algorithm 2's price bargaining). A sequential variant reproduces the
// structure of Theorem 4: the CSP's reaction curve P_c*(P_e) is computed
// first and the ESP maximizes over it. One internal driver serves every
// pool: it runs the sequential construction directly where Theorem 4 rules
// out a pure price equilibrium, and the price scan with the sequential
// fallback elsewhere; only the CSP reaction it plugs in depends on the
// pool (closed forms for one budget class). Along a closed-form reaction
// that covers the edge-price box, the ESP's optimum comes from a few
// candidates (docs/MATH.md §4); every other pool scans the composite.
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

/// The leader stage's price box: each SP's price lies in
/// [cost * (1 + kPriceMargin) + 1e-9, 2 max(C_e, C_c) + R/2]. The ceiling is
/// a heuristic: demand is ~R/n-scale per unit price gap, so higher prices
/// sell nothing.
inline constexpr double kPriceMargin = 1e-4;

/// Options for the leader-stage solvers.
struct SpSolveOptions {
  int grid_points = 40;        ///< 1-D scan resolution per price update
  double tolerance = 1e-5;     ///< max price change per round at convergence
  int max_rounds = 60;
  /// Shared solver resources: thread fan-out, RNG root, the embedded
  /// miner-solve tolerances and the telemetry sink, owned once
  /// (core/solve_context.hpp).
  SolveContext context;
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
  /// exact cycle; none where Theorem 4's test skips it), plus 1 when the
  /// sequential construction ran. So a skipped scan reports 1.
  int rounds = 0;
};

/// Leader-stage solve with n identical miners of budget B: solve_leader_stage
/// on the one-class pool, without building a budget vector. The follower
/// stage is the one-class solve, exact without iteration, and the
/// sequential construction's CSP reaction takes the closed forms of
/// csp_reaction_homogeneous, so the ESP's price comes from a few
/// candidates wherever they cover the edge-price box.
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
/// one-dimensional composite over P_e, through the leader stage's driver
/// without Theorem 4's test or the price scan. Where the closed-form
/// reaction covers the edge-price box (connected: its root clears the cloud
/// floor at the box's left end; standalone: B >= R(n-1)/n^2, with a Table
/// II candidate and the h = 1 root in the cloud box there), the optimum is
/// the best of a few closed-form candidates: the composite's stationary
/// point, the box ends and, in standalone mode, the end of the interval
/// where the reaction sits on the cap side of the kink (the sell-out
/// spike). Connected mode compares them on V_e/(1 - u), so its prices do
/// not depend on n or B. Elsewhere a grid scan of the composite with
/// golden-section refines. Requires B > 0 and n >= 2.
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

/// Leader-stage solve over arbitrary budgets, against one FollowerOracle
/// built from them. Where Theorem 4's closed-form test rules out a pure
/// price equilibrium (docs/MATH.md §4: beta > 0, two funded miners and, in
/// standalone mode, no binding class, C_e above the cloud floor, and the
/// CSP's reply to the price ceiling above C_e), it runs Theorem 4's
/// sequential construction directly and reports method = kSequential,
/// rounds = 1. Every other pool runs Algorithm 1 (connected) / Algorithm 2
/// (standalone) asynchronous price best response first; when that cycles,
/// it stops at the first exact repeat of the prices and falls back to the
/// sequential construction on the same oracle. The construction never
/// reads the scan's state, so both routes give the same answer. Its CSP
/// reaction is csp_reaction_homogeneous's (closed forms where they apply)
/// when the pool is one class of n >= 2 miners with a positive budget, and
/// a numeric scan of V_c otherwise; the construction then runs as in
/// solve_leader_stage_sequential (candidates where the closed forms cover
/// the edge-price box, the composite scan elsewhere).
[[nodiscard]] LeaderStageResult solve_leader_stage(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SpSolveOptions& options = {});

}  // namespace hecmine::core

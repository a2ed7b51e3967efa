// Miner-subgame equilibria for fixed prices (the follower stage).
//
// Connected mode (Problem 1a) is a classical NEP with a unique NE
// (Theorem 2); we find it by damped best-response dynamics over the exact
// per-miner best response (the batched sweep of core/kernels.hpp).
// Standalone mode (Problem 1c) is a jointly convex GNEP whose variational
// equilibrium we compute two independent ways: the shared-price
// decomposition (solve_gnep_batch) and the extragradient method on the
// equivalent VI (numerics/vi.hpp). Tests verify the two agree.
#pragma once

#include <vector>

#include "core/miner.hpp"
#include "core/params.hpp"
#include "core/solve_context.hpp"  // MinerSolveOptions lives there now
#include "core/types.hpp"

namespace hecmine::core {

/// A follower-stage equilibrium.
struct MinerEquilibrium {
  std::vector<MinerRequest> requests;  ///< per-miner NE requests
  Totals totals;                       ///< E*, C*
  std::vector<double> utilities;       ///< U_i at the equilibrium
  double surcharge = 0.0;  ///< GNEP shadow price on E <= E_max (0 if slack)
  bool cap_active = false; ///< standalone only: capacity constraint binds
  bool converged = false;
  int iterations = 0;      ///< best-response sweeps (inner solves for GNEP)
  double residual = 0.0;   ///< last profile change / VI natural residual
};

/// Unique NE of the connected-mode miner subgame (Problem 1a, Theorem 2).
/// budgets[i] = B_i; prices must be positive; params validated.
[[nodiscard]] MinerEquilibrium solve_connected_nep(
    const NetworkParams& params, const Prices& prices,
    const std::vector<double>& budgets, const MinerSolveOptions& options = {});

/// Variational equilibrium of the standalone-mode GNEP (Problem 1c,
/// Theorem 5) by shared-price decomposition: all miners face one common
/// shadow price mu* on ESP units chosen so that E = E_max exactly when the
/// cap binds (complementarity).
[[nodiscard]] MinerEquilibrium solve_standalone_gnep(
    const NetworkParams& params, const Prices& prices,
    const std::vector<double>& budgets, const MinerSolveOptions& options = {});

/// Same variational equilibrium via the extragradient method on VI(K, F)
/// with F the stacked negated utility gradients and K the jointly
/// constrained polytope. Slower; kept as an independent oracle for tests.
[[nodiscard]] MinerEquilibrium solve_standalone_gnep_vi(
    const NetworkParams& params, const Prices& prices,
    const std::vector<double>& budgets, const MinerSolveOptions& options = {});

/// Symmetric equilibrium of a homogeneous-miner subgame (all budgets equal).
/// Computed as a fixed point of the single-miner best response against
/// (n-1) copies of itself — O(n) cheaper than the profile solvers and used
/// by the SP pricing sweeps.
struct SymmetricEquilibrium {
  MinerRequest request;     ///< each miner's NE request
  double surcharge = 0.0;   ///< standalone only: shadow price on E <= E_max
  bool cap_active = false;  ///< standalone only
  bool converged = false;
  int iterations = 0;
};

/// Symmetric NE of the connected-mode subgame with n identical miners.
[[nodiscard]] SymmetricEquilibrium solve_symmetric_connected(
    const NetworkParams& params, const Prices& prices, double budget, int n,
    const MinerSolveOptions& options = {});

/// Symmetric variational equilibrium of the standalone-mode GNEP with n
/// identical miners (surcharge bisection over the symmetric fixed point).
[[nodiscard]] SymmetricEquilibrium solve_symmetric_standalone(
    const NetworkParams& params, const Prices& prices, double budget, int n,
    const MinerSolveOptions& options = {});

/// Largest unilateral gain any miner can get by deviating from `requests`
/// (connected mode when mode_connected, else the mu-penalized standalone
/// game). ~0 certifies a Nash equilibrium.
[[nodiscard]] double miner_exploitability(const NetworkParams& params,
                                          const Prices& prices,
                                          const std::vector<double>& budgets,
                                          const std::vector<MinerRequest>& requests,
                                          bool mode_connected,
                                          double surcharge = 0.0);

}  // namespace hecmine::core

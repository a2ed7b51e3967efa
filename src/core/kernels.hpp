// Batched follower-solver kernels over the SoA workspace (core/soa.hpp).
//
// A KernelEnv hoists everything a best-response evaluation needs that does
// NOT vary per miner — validated prices, the surcharge, and the Eq. (14)
// interior constants sigma_1^2 / sigma_2^2 — out of the per-iteration path.
// The kernels themselves are plain functions of doubles: no MinerEnv
// construction, no validation, no std::function, no per-call allocation.
//
// The scalar kernels are the single source of truth for the closed forms:
// core/miner.cpp's miner_best_response / miner_utility entry points are
// thin wrappers over batch-of-one calls here, so scalar and batched paths
// agree bitwise by construction. The sweep routines (solve_nep_batch /
// solve_gnep_batch) run damped Gauss-Seidel best-response dynamics over
// flat double* spans, and the shared-price decomposition of the standalone
// GNEP on top of them, with:
//
//   * opponent aggregates by running-total subtraction (O(n) per sweep
//     instead of O(n^2)); totals are re-summed exactly at every
//     convergence checkpoint so rounding drift stays bounded,
//   * convergence / probe / stall-damping checks every 4th sweep instead
//     of every sweep,
//   * boundary segments solved by safeguarded Newton on the exact
//     derivative (with a golden-section search as the fallback for the
//     degenerate discontinuous cases).
//
// Tolerance-delta policy vs the pre-kernel scalar path: see DESIGN.md §13.
#pragma once

#include "core/params.hpp"
#include "core/soa.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"
#include "game/nash.hpp"

namespace hecmine::core {

struct MinerEnv;  // core/miner.hpp

/// Per-solve constants of one follower game, hoisted once per solve.
struct KernelEnv {
  double reward = 0.0;        ///< R
  double fork_rate = 0.0;     ///< beta
  double edge_success = 0.0;  ///< h (1 in standalone mode)
  double price_edge = 0.0;    ///< P_e — the *paid* unit price
  double price_cloud = 0.0;   ///< P_c
  double surcharge = 0.0;     ///< mu — objective-only edge penalty

  // Derived, hoisted out of the inner loops:
  double effective_edge_price = 0.0;  ///< P_e + mu
  double share_coeff = 0.0;           ///< A = R (1 - beta)
  double edge_coeff = 0.0;            ///< H = R beta h
  double sigma1_sq = 0.0;  ///< h beta R / (P_e + mu - P_c); 0 if no gap
  double sigma2_sq = 0.0;  ///< (1 - beta) R / P_c
};

/// Builds and validates a KernelEnv (the once-per-solve replacement for
/// per-call MinerEnv::validate()).
[[nodiscard]] KernelEnv make_kernel_env(const NetworkParams& params,
                                        const Prices& prices,
                                        double edge_success, double surcharge);

/// Same, from an already-validated MinerEnv (used by the scalar wrappers).
[[nodiscard]] KernelEnv make_kernel_env(const MinerEnv& env);

/// Re-derives the surcharge-dependent constants at a new mu (used by the
/// GNEP bisection; everything else is copied).
[[nodiscard]] KernelEnv with_surcharge(KernelEnv env, double surcharge);

// --- scalar (batch-of-one) kernels ----------------------------------------
// All take the opponent aggregates E_{-i} (`others_edge`) and S_{-i}
// (`others_grand` = E_{-i} + C_{-i}) directly; arithmetic mirrors the
// legacy core/miner.cpp expressions term for term so the wrappers there
// stay bitwise-identical entry points.

/// True (surcharge-free) utility U_i — mirrors miner_utility.
[[nodiscard]] double utility_kernel(const KernelEnv& env, double e, double c,
                                    double others_edge, double others_grand);

/// The best-response objective U_i - mu e_i — mirrors
/// miner_penalized_utility.
[[nodiscard]] double penalized_utility_kernel(const KernelEnv& env, double e,
                                              double c, double others_edge,
                                              double others_grand);

/// Gradient of the penalized utility — mirrors miner_utility_gradient.
/// Requires others_grand + e + c > 0.
void gradient_kernel(const KernelEnv& env, double e, double c,
                     double others_edge, double others_grand, double& du_de,
                     double& du_dc);

/// Exact best response over the budget polytope — the batch-of-one kernel
/// behind miner_best_response (same candidate structure: interior KKT
/// point, budget line, edge axis, cloud axis, origin; same epsilon-probe
/// and zero-budget branches).
[[nodiscard]] MinerRequest best_response_kernel(const KernelEnv& env,
                                                double budget,
                                                double others_edge,
                                                double others_grand);

// --- sweep drivers ---------------------------------------------------------

/// Outcome of a batched sweep solve.
struct BatchSweepResult {
  bool converged = false;
  int iterations = 0;    ///< sweeps executed
  double residual = 0.0; ///< max-norm iterate change in the last sweep
};

/// Damped Gauss-Seidel best-response dynamics on the batch: the damping
/// halves when the residual stalls, and convergence is checked every 4th
/// sweep (and on the last). Probe records flow to the thread's telemetry
/// sink under binding.solver, one per checkpoint.
BatchSweepResult solve_nep_batch(const KernelEnv& env, MinerBatch& batch,
                                 const MinerSolveOptions& options,
                                 const game::ProbeBinding& binding);

/// Options of the fused GNEP surcharge bisection.
struct BatchGnepOptions {
  double cap = 0.0;                   ///< shared edge capacity E_max
  double surcharge_hi0 = 1.0;         ///< initial upper bracket for mu
  double complementarity_tol = 1e-7;  ///< |E - E_max| tolerance when mu > 0
  int max_bisection_steps = 200;
};

/// Outcome of the fused GNEP solve.
struct BatchGnepResult {
  double surcharge = 0.0;
  double shared_usage = 0.0;  ///< total edge demand at the equilibrium
  bool cap_active = false;
  bool converged = false;
  int inner_solves = 0;
};

/// Shared-price decomposition of the standalone GNEP (Theorem 5): charges
/// every miner a common surcharge mu on edge units, solves the mu-penalized
/// decoupled NEP on the batch (warm-started in place across bisection
/// steps) and bisects mu to complementarity on E <= cap. Usage must fall
/// with mu, which holds because edge units are a normal good. Telemetry:
/// gnep.bisection trace span and probe records, gnep.* counters.
BatchGnepResult solve_gnep_batch(const KernelEnv& env, MinerBatch& batch,
                                 const BatchGnepOptions& gnep,
                                 const MinerSolveOptions& options,
                                 const game::ProbeBinding& inner_binding);

}  // namespace hecmine::core

// Follower-solver kernels: the exact best response of one miner, and of a
// block of identical miners, against fixed opponent aggregates.
//
// A KernelEnv hoists everything a best-response evaluation needs that does
// NOT vary per miner — validated prices, the surcharge, and the Eq. (14)
// interior constants sigma_1^2 / sigma_2^2 — out of the per-iteration path.
// The kernels themselves are plain functions of doubles: no MinerEnv
// construction, no validation, no std::function, no per-call allocation.
//
// The scalar kernels are the single source of truth for the closed forms:
// core/miner.cpp's miner_best_response / miner_utility entry points are
// thin wrappers over them, so both agree bitwise by construction.
// block_response_kernel is what the follower solver (ClassAggregateOracle,
// core/aggregate_oracle.hpp) iterates: one call settles a whole budget
// class against the rest of the pool. Boundary segments of both kernels
// are solved by safeguarded Newton on the exact derivative. See DESIGN.md
// §13 and docs/MATH.md for the block potential.
#pragma once

#include "core/params.hpp"
#include "core/types.hpp"

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

/// Re-derives the surcharge-dependent constants at a new mu (everything
/// else is copied).
[[nodiscard]] KernelEnv with_surcharge(KernelEnv env, double surcharge);

// --- scalar kernels --------------------------------------------------------
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

/// Exact best response over the budget polytope — the kernel
/// behind miner_best_response (same candidate structure: interior KKT
/// point, budget line, edge axis, cloud axis, origin; same epsilon-probe
/// and zero-budget branches).
[[nodiscard]] MinerRequest best_response_kernel(const KernelEnv& env,
                                                double budget,
                                                double others_edge,
                                                double others_grand);

/// Exact common request of `members` identical miners of budget `budget`
/// that all play alike against fixed outside aggregates: `rest_edge` is the
/// edge total and `rest_grand` the grand total (edge + cloud) of every miner
/// outside the block. The request is the block's symmetric equilibrium: on
/// the block's symmetric manifold the first-order system has a symmetric
/// Jacobian, so the request maximizes a concave potential over the budget
/// polytope (docs/MATH.md), found face by face (interior, budget line, edge
/// axis, cloud axis) and selected by the signs of the budget multiplier and
/// of the off-axis marginal. members = 1 is best_response_kernel itself;
/// zero outside aggregates give the homogeneous closed forms (Theorem 3,
/// Corollary 1, the edge-only NE).
[[nodiscard]] MinerRequest block_response_kernel(const KernelEnv& env,
                                                 double budget, double members,
                                                 double rest_edge,
                                                 double rest_grand);

}  // namespace hecmine::core

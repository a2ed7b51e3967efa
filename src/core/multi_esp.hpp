// Multi-ESP extension: what happens to the edge premium when several edge
// providers compete (beyond the paper, which fixes one ESP).
//
// With k >= 2 co-located ESPs (all zero-delay), their units are perfect
// substitutes for the fork bonus: the edge pool is E = Σ_j E_j and a
// miner's winning probability keeps the Sec.-III form with the *cheapest*
// live edge price. The miner side therefore reuses the single-ESP best
// response at P_e = min_j P_e_j; the provider side becomes a
// Bertrand-with-an-outside-option game:
//
//   * undercutting captures the whole edge demand, so equilibrium edge
//     prices collapse toward marginal cost C_e (classic Bertrand) as long
//     as demand at cost is positive;
//   * the CSP still best-responds as before.
//
// The module computes the duopoly+ equilibrium and quantifies the
// monopoly-vs-competition premium — the economics of the paper's "the ESP
// charges a higher price because it has no delay" under entry.
#pragma once

#include "core/equilibrium.hpp"
#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/solve_context.hpp"
#include "core/sp.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// Outcome of the multi-ESP pricing game with homogeneous miners.
struct MultiEspEquilibrium {
  double price_edge = 0.0;     ///< common edge price after competition
  double price_cloud = 0.0;    ///< CSP best response to it
  double profit_edge_total = 0.0;  ///< summed over the k ESPs
  double profit_cloud = 0.0;
  EquilibriumProfile follower;     ///< follower equilibrium at those prices
  int providers = 2;               ///< k
};

/// Bertrand equilibrium of k >= 2 identical zero-delay ESPs plus the CSP,
/// homogeneous miners of budget B. Edge prices settle at
/// max(C_e (1+margin), lowest price at which a deviation would not gain),
/// which for perfect substitutes is marginal cost; the CSP then plays its
/// reaction. Requires n >= 2, k >= 2, budget > 0. `context` carries the
/// follower tolerances for the embedded oracle solves.
[[nodiscard]] MultiEspEquilibrium solve_multi_esp_bertrand(
    const NetworkParams& params, double budget, int n, int providers,
    double margin = 1e-3, const SolveContext& context = {});

/// The competition discount: single-ESP (Theorem-4 sequential) edge price
/// and total ESP profit divided by their multi-ESP counterparts. Values
/// above 1 quantify how much the paper's monopoly ESP extracts from being
/// the only zero-delay provider.
struct EdgePremiumReport {
  double price_ratio = 0.0;   ///< P_e(monopoly) / P_e(competition)
  double profit_ratio = 0.0;  ///< V_e(monopoly) / sum V_e(competition)
  MultiEspEquilibrium competitive;
};

[[nodiscard]] EdgePremiumReport edge_premium_under_competition(
    const NetworkParams& params, double budget, int n, int providers,
    const SpSolveOptions& options = {});

}  // namespace hecmine::core

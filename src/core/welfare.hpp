// Welfare accounting for the mining game (supports the paper's Sec. VI-B
// prose claims and the mode-comparison ablations).
//
// PoW mining is a rent-dissipation contest: with any positive hash power
// the block reward R is always won by someone (Theorem 1), so aggregate
// miner income is R per round no matter how much computation is bought.
// Welfare therefore decomposes as
//
//   miner surplus  = R - total spend            (sum of U_i)
//   SP profit      = total spend - resource cost
//   social welfare = R - resource cost          (their sum)
//   dissipation    = total spend / R            (fraction of the prize
//                                                competed away)
//
// The *social optimum* of this contest is degenerate — an epsilon of
// computation wins the same reward — so the interesting quantities are the
// equilibrium dissipation and how the surplus splits between miners and
// SPs across operation modes.
#pragma once

#include <vector>

#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// One equilibrium's welfare decomposition (per mining round).
struct WelfareReport {
  double miner_spend = 0.0;     ///< P_e E + P_c C
  double miner_surplus = 0.0;   ///< R - spend (aggregate expected utility)
  double sp_profit_edge = 0.0;  ///< (P_e - C_e) E
  double sp_profit_cloud = 0.0; ///< (P_c - C_c) C
  double resource_cost = 0.0;   ///< C_e E + C_c C
  double social_welfare = 0.0;  ///< R - resource cost
  double dissipation = 0.0;     ///< spend / R in [0, ...)

  [[nodiscard]] double sp_profit() const noexcept {
    return sp_profit_edge + sp_profit_cloud;
  }
};

/// Computes the decomposition for aggregate demand `totals` at `prices`.
/// Requires positive prices and validated params; assumes the reward is
/// fully allocated (some miner holds positive power).
[[nodiscard]] WelfareReport welfare_report(const NetworkParams& params,
                                           const Prices& prices,
                                           const Totals& totals);

/// Oracle-layer convenience: decomposition at a unified follower profile
/// (uses the profile's aggregate totals).
[[nodiscard]] WelfareReport welfare_report(const NetworkParams& params,
                                           const Prices& prices,
                                           const EquilibriumProfile& profile);

/// Convenience: per-miner utilities summed against the aggregate identity
/// sum_i U_i = R - spend; exposed so tests can check consistency of any
/// equilibrium the solvers produce.
[[nodiscard]] double aggregate_utility(const NetworkParams& params,
                                       const Prices& prices,
                                       const std::vector<MinerRequest>& requests);

/// Oracle-layer convenience: aggregate utility of a unified profile, O(K)
/// over a class-shaped profile's budget classes.
[[nodiscard]] double aggregate_utility(const NetworkParams& params,
                                       const Prices& prices,
                                       const EquilibriumProfile& profile);

}  // namespace hecmine::core

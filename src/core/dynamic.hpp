// The dynamic-miner-number game (paper Section V, Problem 1d), for
// homogeneous miners and, as an extension, budget classes ("types").
//
// With N random, a focal miner evaluates its expected utility over the
// population law against opponents whose mean strategy is m:
//
//   U(e, c) = R sum_k P(k) [ (1-beta)(e+c)/S_k + beta h e / E_k ]
//             - P_e e - P_c c,
//   S_k = (e+c) + (k-1)(m_e + m_c),   E_k = e + (k-1) m_e.
//
// m is the symmetric strategy, or with types (a fraction f_t of any k
// active miners is of type t) the mixture m = sum_t f_t (e_t, c_t). The
// h-weighted form is Eq. (9)'s reduction; Eq. (26) prints h = 1/2.
//
// The equilibrium has a share form (docs/MATH.md §5): every type requests
// a multiple of the mixture, binding types play Theorem 3's request, and
// the slack types share one multiple x, the increasing root of one scalar
// equation. With no binding budget x = 1: e* = R beta h G/(P_e - P_c),
// G = E[(N-1)/N^2]. U is concave in (e, c), so `converged`, a zero KKT
// residual of every request against the mixture, certifies the answer.
//
// Headline reproduced here (paper Sec. V / Fig 9): population uncertainty
// makes miners bid *more* on the ESP than the fixed-N game at N = mu, and
// the effect grows with the variance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/population.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// Inputs of the dynamic game.
struct DynamicGameConfig {
  /// Uses reward, fork_rate and edge_success (h, the edge service
  /// probability of Eq. 26).
  NetworkParams params;
  Prices prices;               ///< fixed SP prices during the horizon
  double budget = 0.0;         ///< common budget B (types carry their own)
};

/// Expected utility of a focal miner playing `own` while everyone else
/// plays `others_symmetric`, the miner count following `population`.
[[nodiscard]] double dynamic_miner_utility(const DynamicGameConfig& config,
                                           const PopulationModel& population,
                                           const MinerRequest& own,
                                           const MinerRequest& others_symmetric);

/// Monte-Carlo estimate of dynamic_miner_utility.
struct MonteCarloUtility {
  double estimate = 0.0;       ///< sample mean of the utility
  double std_error = 0.0;      ///< standard error of the mean
  std::size_t samples = 0;
};

/// Estimates the population expectation by sampling N ~ `population`
/// `samples` times — the simulation-side check of the pmf sum (compare
/// net::estimate_focal_win_probability for the fixed-N win model). The
/// draw sequence is partitioned into fixed blocks, one Rng substream per
/// block, and blocks are reduced in index order, so the estimate is
/// bitwise identical for every `threads` setting (0 = auto, 1 = serial).
[[nodiscard]] MonteCarloUtility dynamic_miner_utility_monte_carlo(
    const DynamicGameConfig& config, const PopulationModel& population,
    const MinerRequest& own, const MinerRequest& others_symmetric,
    std::size_t samples, std::uint64_t seed, int threads = 0);

/// Analytic gradient of dynamic_miner_utility w.r.t. own = (e, c).
[[nodiscard]] std::pair<double, double> dynamic_miner_gradient(
    const DynamicGameConfig& config, const PopulationModel& population,
    const MinerRequest& own, const MinerRequest& others_symmetric);

/// Focal best response against a symmetric opponent strategy, by projected
/// gradient ascent: no solver calls it; tests hold the solvers to it.
[[nodiscard]] MinerRequest dynamic_best_response(
    const DynamicGameConfig& config, const PopulationModel& population,
    const MinerRequest& others_symmetric);

/// Symmetric equilibrium of the dynamic game.
struct DynamicEquilibrium {
  MinerRequest request;          ///< per-miner strategy (e*, c*)
  double expected_total_edge = 0.0;  ///< E[N] * e* — compare against E_max
  bool exceeds_capacity = false;     ///< expected edge demand > E_max
  bool converged = false;  ///< the KKT certificate passed (residual <= 1e-9)
  double residual = 0.0;   ///< KKT residual per unit of spend; +inf if none
};

/// The one-type case of solve_dynamic_types.
[[nodiscard]] DynamicEquilibrium solve_dynamic_symmetric(
    const DynamicGameConfig& config, const PopulationModel& population);

/// One budget class.
struct MinerType {
  double budget = 0.0;    ///< B_t
  double fraction = 0.0;  ///< f_t, population share; fractions sum to 1
};

/// Equilibrium of the typed dynamic game.
struct TypedDynamicEquilibrium {
  std::vector<MinerRequest> requests;  ///< per-type strategy (e_t, c_t)
  MinerRequest mixture;                ///< sum_t f_t (e_t, c_t)
  double expected_total_edge = 0.0;    ///< E[N] * mixture.edge
  bool converged = false;  ///< the KKT certificate passed (residual <= 1e-9)
  double residual = 0.0;   ///< largest KKT residual over the types
};

/// Solves the typed dynamic game by the share form. `config.budget` is
/// ignored (budgets come from the types); fractions must be positive and
/// sum to 1 (1e-9). A population with no mass on k >= 2 has no equilibrium
/// (a lone miner wins with any positive request): the requests are then
/// zero, `converged` false and `residual` +inf.
[[nodiscard]] TypedDynamicEquilibrium solve_dynamic_types(
    const DynamicGameConfig& config, const PopulationModel& population,
    const std::vector<MinerType>& types);

/// The fixed-N benchmark at N = round(population mean): the connected-mode
/// symmetric NE with the same h, for the Fig-9 comparison. Solved through
/// the follower oracle; `context` carries the follower tolerances.
[[nodiscard]] MinerRequest fixed_population_benchmark(
    const DynamicGameConfig& config, const PopulationModel& population,
    const SolveContext& context = {});

}  // namespace hecmine::core

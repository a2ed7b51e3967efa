// The dynamic-miner-number game (paper Section V, Problem 1d).
//
// With N random, a focal miner evaluates its expected utility over the
// population law, assuming every other miner plays the same symmetric
// strategy (e-bar, c-bar):
//
//   U(e, c) = R sum_k P(k) [ (1-beta)(e+c)/S_k + beta h e / E_k ]
//             - P_e e - P_c c,
//   S_k = (e+c) + (k-1)(e-bar + c-bar),   E_k = e + (k-1) e-bar.
//
// The h-weighted form is the same reduction as Eq. (9); the paper's Eq. (26)
// prints the h = 1/2 instance. The symmetric equilibrium is the fixed point
// of the focal best response, computed by projected gradient ascent over the
// budget polytope (no closed form exists — Sec. V resorts to numerics too).
//
// Headline reproduced here (paper Sec. V / Fig 9): population uncertainty
// makes miners bid *more* on the ESP than the fixed-N game at N = mu, and
// the effect grows with the variance.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/params.hpp"
#include "core/population.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// Inputs of the symmetric dynamic game.
struct DynamicGameConfig {
  NetworkParams params;        ///< uses reward, fork_rate; edge_success = h
  Prices prices;               ///< fixed SP prices during the horizon
  double budget = 0.0;         ///< common miner budget B
  double edge_success = 0.5;   ///< h — edge service probability (Eq. 26)
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

/// Focal best response against a symmetric opponent strategy.
[[nodiscard]] MinerRequest dynamic_best_response(
    const DynamicGameConfig& config, const PopulationModel& population,
    const MinerRequest& others_symmetric);

/// Symmetric equilibrium of the dynamic game.
struct DynamicEquilibrium {
  MinerRequest request;          ///< per-miner strategy (e*, c*)
  double expected_total_edge = 0.0;  ///< E[N] * e* — compare against E_max
  bool exceeds_capacity = false;     ///< expected edge demand > E_max
  bool converged = false;
  int iterations = 0;
};

/// Damped fixed point of dynamic_best_response.
[[nodiscard]] DynamicEquilibrium solve_dynamic_symmetric(
    const DynamicGameConfig& config, const PopulationModel& population,
    double damping = 0.5, double tolerance = 1e-8, int max_iterations = 2000);

/// The fixed-N benchmark at N = round(population mean): the connected-mode
/// symmetric NE with the same h, for the Fig-9 comparison. Solved through
/// the follower oracle; `context` carries the follower tolerances.
[[nodiscard]] MinerRequest fixed_population_benchmark(
    const DynamicGameConfig& config, const PopulationModel& population,
    const SolveContext& context = {});

}  // namespace hecmine::core

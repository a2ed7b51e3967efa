// Fictitious play over published aggregates.
//
// The bandit learners of rl/trainer.hpp are fully model-free. This module
// implements the classical alternative the paper's related-work section
// gestures at (belief updating about unobservable opponents): miners never
// see each other's strategies, but PoW networks *publish the aggregate* —
// total difficulty/hash rate — every round. A fictitious-play miner keeps
// a running average of the published aggregates (E_t, C_t), subtracts its
// own last action, and plays the exact best response against that belief
// (core::miner_best_response).
//
// Under population uncertainty the belief is over the *expected opponent
// aggregate*, so fictitious play converges near the dynamic symmetric
// equilibrium of Sec. V; with a fixed population it converges to the NE of
// Sec. IV (tests verify both).
#pragma once

#include <cstdint>
#include <vector>

#include "core/miner.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "core/types.hpp"

namespace hecmine::rl {

/// Configuration of the fictitious-play loop.
struct FictitiousPlayConfig {
  int blocks = 400;            ///< rounds of belief updating
  double belief_step0 = 1.0;   ///< initial averaging weight (decays ~1/t)
  double min_belief_step = 0.01;
};

/// Result of a fictitious-play run.
struct FictitiousPlayResult {
  std::vector<core::MinerRequest> strategies;  ///< last played per miner
  core::MinerRequest mean;                     ///< pool average
  double belief_edge = 0.0;   ///< final mean belief of total edge demand
  double belief_cloud = 0.0;  ///< final mean belief of total cloud demand
};

/// Runs fictitious play for a pool of population.max_miners() homogeneous
/// miners with budget B at fixed prices; each block a random subset of the
/// drawn size is active, the aggregate is "published", and every miner
/// updates its belief with a 1/t-decaying step. Best responses use the
/// dynamic utility's h = params.edge_success (Eq. 26).
[[nodiscard]] FictitiousPlayResult run_fictitious_play(
    const core::NetworkParams& params, const core::Prices& prices,
    double budget, const core::PopulationModel& population,
    const FictitiousPlayConfig& config, std::uint64_t seed);

}  // namespace hecmine::rl

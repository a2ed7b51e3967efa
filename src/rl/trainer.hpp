// The RL training loop of the paper's evaluation (Sec. VI-C).
//
// A pool of homogeneous learners plays repeated mining rounds. Each round
// the active miner count is drawn from the population model; active miners
// pick an action from their grid (epsilon-greedy) and receive either the
// *expected* utility against the realized opponents (fast, what lets
// strategies converge within ~50 blocks as in the paper) or the *realized*
// utility sampled through the chain::run_race simulator (noisier; needs
// more rounds). After convergence the learned greedy strategies are the
// RL counterparts of the model's equilibrium — the unfilled points of
// Fig. 9.
#pragma once

#include <cstdint>
#include <vector>

#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"
#include "rl/learner.hpp"

namespace hecmine::chain {
class BlockLogWriter;
}

namespace hecmine::rl {

/// Model-side reference the learned strategies should approach (the filled
/// points of Fig. 9): the symmetric connected-mode equilibrium at the
/// population's nominal mean count (clamped to >= 2), at the edge-success
/// h of `params`. Routed through the follower oracle; `context` carries
/// the follower tolerances.
[[nodiscard]] core::EquilibriumProfile equilibrium_reference(
    const core::NetworkParams& params, const core::Prices& prices,
    double budget, const core::PopulationModel& population,
    const core::SolveContext& context = {});

/// Payoff feedback given to learners each round.
enum class FeedbackMode {
  kExpected,  ///< exact expected utility vs. the realized opponent profile
  kRealized,  ///< sampled PoW race outcome (R on win, minus payments)
};

/// Exploration strategy of the miner learners (epsilon-greedy is the
/// paper's framework; the others are ablation variants).
enum class LearnerKind { kEpsilonGreedy, kUcb1, kBoltzmann };

/// Training configuration.
struct TrainerConfig {
  int blocks = 50;              ///< mining rounds (one period T in the paper)
  int edge_steps = 17;          ///< action-grid resolution
  int cloud_steps = 17;
  LearnerKind learner = LearnerKind::kEpsilonGreedy;
  double epsilon = 0.3;
  double epsilon_decay = 0.995; ///< applied per block
  double epsilon_floor = 0.02;
  double learning_rate = 0.15;
  double ucb_exploration = 0.5;        ///< UCB1 bonus coefficient
  double boltzmann_temperature = 5.0;  ///< initial softmax temperature
  double boltzmann_cooling = 0.999;    ///< per-block temperature factor
  double boltzmann_floor = 0.05;
  FeedbackMode feedback = FeedbackMode::kExpected;
  int curve_stride = 0;  ///< record the greedy-mean trajectory every k
                         ///< blocks (0 = off)
  /// Optional telemetry sink (not owned): per-block mean-reward histogram
  /// and end-of-training greedy-strategy gauges (`rl.*`). Null = off.
  support::Telemetry* telemetry = nullptr;
  /// Optional hecmine.blocklog.v1 stream (not owned): one record per
  /// training round with the sampled race outcome and the learners' hash
  /// shares. Only the realized-feedback mode runs races, so records are
  /// emitted only under FeedbackMode::kRealized (expected-feedback rounds
  /// have no block to log). Null = off.
  chain::BlockLogWriter* block_log = nullptr;
};

/// One sampled point of the learning trajectory.
struct CurvePoint {
  int block = 0;
  core::MinerRequest mean_greedy;  ///< pool average of greedy actions
};

/// Learned strategies after one training period.
struct TrainerResult {
  std::vector<core::MinerRequest> greedy;  ///< per-learner greedy action
  core::MinerRequest mean;                 ///< pool average of greedy actions
  double mean_expected_total_edge = 0.0;   ///< E[N] * mean.edge
  std::vector<CurvePoint> curve;           ///< when curve_stride > 0
};

/// Trains population.max_miners() homogeneous learners with budget B at
/// fixed prices; the active subset each block is a uniformly random
/// combination of the drawn size. Edge requests are served with the
/// dynamic game's h = params.edge_success (Eq. 26).
[[nodiscard]] TrainerResult train_miners(const core::NetworkParams& params,
                                         const core::Prices& prices,
                                         double budget,
                                         const core::PopulationModel& population,
                                         const TrainerConfig& config,
                                         std::uint64_t seed);

/// The full Sec. VI-C loop: alternate miner training periods with adaptive
/// SP re-pricing (each SP hill-climbs its price against the re-trained
/// miner strategies) until prices stop moving.
struct AdaptivePricingConfig {
  TrainerConfig trainer;
  int max_periods = 30;
  double price_step = 0.2;       ///< initial relative hill-climb step
  double step_decay = 0.7;       ///< shrink when no improving move exists
  double price_tolerance = 1e-3; ///< stop when both prices move less
};

struct AdaptivePricingResult {
  core::Prices prices;
  TrainerResult miners;
  int periods = 0;
  bool converged = false;
};

[[nodiscard]] AdaptivePricingResult adaptive_pricing_loop(
    const core::NetworkParams& params, core::Prices initial_prices,
    double budget, const core::PopulationModel& population,
    const AdaptivePricingConfig& config, std::uint64_t seed);

}  // namespace hecmine::rl

// Long-horizon mining campaigns: population churn + admission + PoW races
// + difficulty retargeting + income accounting, over thousands of blocks.
//
// The game layer answers "what will rational miners request"; a campaign
// answers "what does a miner's *income process* look like when it follows
// that strategy" — block intervals stabilized by the difficulty controller,
// per-miner reward volatility, and realized decentralization. This powers
// the income-risk example and the protocol-level sanity checks.
#pragma once

#include <optional>
#include <vector>

#include "chain/blocklog.hpp"
#include "chain/difficulty.hpp"
#include "chain/simulator.hpp"
#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "core/solve_context.hpp"
#include "net/offload.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"

namespace hecmine::net {

class CampaignMonitor;

/// Configuration of a campaign.
struct CampaignConfig {
  core::NetworkParams params;
  EdgePolicy policy;
  core::Prices prices;
  /// Active-miner law per block; nullopt = everyone always mines.
  std::optional<core::PopulationModel> population;
  chain::DifficultyController::Config difficulty;
  std::size_t blocks = 1000;
  /// Optional telemetry sink (not owned). Per-block progress counters and
  /// gauges (campaign.blocks, campaign.transfers, campaign.rejections,
  /// campaign.forks, campaign.block) feed the flight recorder during long
  /// campaigns; null = campaign telemetry off.
  support::Telemetry* telemetry = nullptr;
  /// Optional hecmine.blocklog.v1 stream (not owned): one record per
  /// round — winner, fork outcome, difficulty, interval, hash shares.
  chain::BlockLogWriter* block_log = nullptr;
  /// Optional streaming campaign statistics + drift watchdog (not owned).
  /// run_campaign_at_equilibrium installs the solved equilibrium as its
  /// reference when none is set; finalize() runs at end of campaign and
  /// writes the summary line into `block_log`.
  CampaignMonitor* monitor = nullptr;

  void validate() const;
};

/// Per-miner campaign accounting.
struct MinerCampaignStats {
  std::size_t wins = 0;
  std::size_t rounds_active = 0;
  double income = 0.0;    ///< rewards received
  double payments = 0.0;  ///< unit purchases paid
  support::Accumulator round_utility;  ///< per active round

  [[nodiscard]] double net() const noexcept { return income - payments; }
};

/// Outcome of a campaign.
struct CampaignResult {
  std::vector<MinerCampaignStats> miners;
  std::size_t blocks_mined = 0;
  std::size_t transfers = 0;
  std::size_t rejections = 0;
  std::size_t forks = 0;
  support::Accumulator block_intervals;
  double final_unit_rate = 1.0;
  std::size_t retargets = 0;
  double realized_hhi = 0.0;  ///< concentration of realized block wins
};

/// Runs a campaign where every miner plays its fixed strategy
/// `strategies[i]` whenever it is active. The active subset each block is
/// a uniformly random combination of the drawn population size.
[[nodiscard]] CampaignResult run_campaign(
    const CampaignConfig& config,
    const std::vector<core::MinerRequest>& strategies, std::uint64_t seed);

/// A campaign driven by the game-theoretic equilibrium instead of
/// hand-picked strategies: the follower equilibrium and the income process
/// it induces, bridged in one call.
struct EquilibriumCampaignResult {
  core::EquilibriumProfile equilibrium;  ///< follower NE at config.prices
  CampaignResult result;                 ///< campaign under those requests
};

/// Solves the follower stage at config.prices through the oracle layer
/// (mode taken from config.policy.mode; symmetric fast path when all
/// budgets are equal) and runs the campaign with every miner playing its
/// equilibrium request. `context` carries the follower tolerances.
[[nodiscard]] EquilibriumCampaignResult run_campaign_at_equilibrium(
    const CampaignConfig& config, const std::vector<double>& budgets,
    std::uint64_t seed, const core::SolveContext& context = {});

/// Pool-mining extension (beyond the paper): `pool_of[i]` assigns miner i
/// to a reward-sharing pool (-1 = solo). When a pool member wins a block,
/// the reward is split pro rata over the pool's *active members' total
/// units* that round — the standard proportional payout. Pooling leaves
/// each member's expected income unchanged (payouts are share-fair) but
/// shrinks its variance; tests and the income-risk example quantify it.
[[nodiscard]] CampaignResult run_campaign_with_pools(
    const CampaignConfig& config,
    const std::vector<core::MinerRequest>& strategies,
    const std::vector<int>& pool_of, std::uint64_t seed);

}  // namespace hecmine::net

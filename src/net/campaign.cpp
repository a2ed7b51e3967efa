#include "net/campaign.hpp"

#include <algorithm>
#include <numeric>

#include "chain/race.hpp"
#include "core/decentralization.hpp"
#include "net/campaign_monitor.hpp"
#include "support/error.hpp"

namespace hecmine::net {

void CampaignConfig::validate() const {
  params.validate();
  policy.validate();
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "CampaignConfig: prices must be positive");
  HECMINE_REQUIRE(blocks > 0, "CampaignConfig: blocks must be positive");
}

namespace {

/// Shared implementation; `pool_of` may be empty (all solo).
CampaignResult run_campaign_impl(
    const CampaignConfig& config,
    const std::vector<core::MinerRequest>& strategies,
    const std::vector<int>& pool_of, std::uint64_t seed) {
  config.validate();
  HECMINE_REQUIRE(!strategies.empty(), "run_campaign: no miners");
  if (config.population) {
    HECMINE_REQUIRE(
        static_cast<int>(strategies.size()) >=
            config.population->max_miners(),
        "run_campaign: strategy pool smaller than the population support");
  }
  HECMINE_REQUIRE(pool_of.empty() || pool_of.size() == strategies.size(),
                  "run_campaign: pool assignment size mismatch");

  support::Rng rng{seed};
  chain::DifficultyController difficulty(config.difficulty);
  if (config.monitor != nullptr) config.monitor->begin_campaign(config.blocks);
  double sim_time = 0.0;

  CampaignResult result;
  result.miners.resize(strategies.size());

  std::vector<std::size_t> order(strategies.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Per-block buffers, reused across blocks (at most one entry per miner).
  std::vector<std::size_t> active;
  std::vector<core::MinerRequest> requests;
  std::vector<chain::Allocation> allocations;
  std::vector<double> payouts;

  for (std::size_t block = 0; block < config.blocks; ++block) {
    // Population churn: which miners show up for this block.
    std::size_t active_count = strategies.size();
    if (config.population) {
      active_count = std::min<std::size_t>(
          static_cast<std::size_t>(config.population->sample(rng)),
          strategies.size());
    }
    std::shuffle(order.begin(), order.end(), rng.engine());
    active.assign(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(active_count));

    requests.resize(active.size());
    for (std::size_t a = 0; a < active.size(); ++a)
      requests[a] = strategies[active[a]];

    const auto records =
        admit_requests(requests, config.policy, config.prices, rng);
    allocations.resize(records.size());
    for (std::size_t a = 0; a < records.size(); ++a) {
      allocations[a] = records[a].granted;
      if (records[a].edge_status == ServiceStatus::kTransferred)
        ++result.transfers;
      if (records[a].edge_status == ServiceStatus::kRejected)
        ++result.rejections;
    }

    chain::RaceConfig race;
    race.fork_rate = config.params.fork_rate;
    race.unit_hash_rate = difficulty.unit_hash_rate();
    // Difficulty in effect for *this* race, captured before the retarget
    // that a produced block may trigger below.
    const double relative_difficulty = difficulty.relative_difficulty();
    const auto outcome = chain::run_race(allocations, race, rng);

    // Reward flow: solo winners keep the block reward; a pooled winner's
    // reward is split pro rata over the pool's active units this round.
    payouts.assign(active.size(), 0.0);
    if (outcome) {
      const std::size_t winner_global = active[outcome->winner];
      const int winner_pool =
          pool_of.empty() ? -1 : pool_of[winner_global];
      if (winner_pool < 0) {
        payouts[outcome->winner] = config.params.reward;
      } else {
        double pool_units = 0.0;
        for (std::size_t a = 0; a < active.size(); ++a) {
          if (pool_of[active[a]] == winner_pool)
            pool_units += strategies[active[a]].total();
        }
        for (std::size_t a = 0; a < active.size(); ++a) {
          if (pool_of[active[a]] == winner_pool && pool_units > 0.0) {
            payouts[a] = config.params.reward *
                         strategies[active[a]].total() / pool_units;
          }
        }
      }
    }
    for (std::size_t a = 0; a < active.size(); ++a) {
      auto& miner = result.miners[active[a]];
      ++miner.rounds_active;
      const double payment =
          records[a].payment_edge + records[a].payment_cloud;
      miner.payments += payment;
      if (outcome && outcome->winner == a) ++miner.wins;
      miner.income += payouts[a];
      miner.round_utility.add(payouts[a] - payment);
    }
    if (outcome) {
      ++result.blocks_mined;
      if (outcome->fork_occurred) ++result.forks;
      result.block_intervals.add(outcome->solve_time);
      sim_time += outcome->solve_time;
      difficulty.observe_block(outcome->solve_time);
    }
    if (config.block_log != nullptr || config.monitor != nullptr) {
      double edge_total = 0.0;
      double cloud_total = 0.0;
      std::uint64_t granted_active = 0;
      for (const chain::Allocation& allocation : allocations) {
        edge_total += allocation.edge_units;
        cloud_total += allocation.cloud_units;
        if (allocation.edge_units + allocation.cloud_units > 0.0)
          ++granted_active;
      }
      const double total = edge_total + cloud_total;
      chain::BlockRecord record;
      record.round = block;
      record.height = result.blocks_mined;
      record.interval = outcome ? outcome->solve_time : 0.0;
      record.sim_time = sim_time;
      record.fork_rate = race.fork_rate;
      record.difficulty = relative_difficulty;
      record.unit_rate = race.unit_hash_rate;
      record.active = granted_active;
      record.edge_units = edge_total;
      record.cloud_units = cloud_total;
      if (total > 0.0) record.p_fork = race.fork_rate * cloud_total / total;
      if (outcome) {
        record.winner = static_cast<std::int64_t>(active[outcome->winner]);
        record.via_edge = outcome->winner_via_edge;
        record.fork = outcome->fork_occurred;
        record.steal = outcome->fork_stole;
        // Sampler win probability of the winner (Eq. 6 on granted units).
        const chain::Allocation& winner = allocations[outcome->winner];
        record.p_winner = (1.0 - race.fork_rate) *
                          (winner.edge_units + winner.cloud_units) / total;
        if (edge_total > 0.0)
          record.p_winner +=
              race.fork_rate * winner.edge_units / edge_total;
      }
      if (config.block_log != nullptr)
        config.block_log->append(record, &active, &allocations);
      if (config.monitor != nullptr)
        config.monitor->observe_block(record, active, allocations);
    }
    if (config.telemetry != nullptr) {
      // Flight-recorder feed: progress and cumulative event counts,
      // updated per block so a periodic flusher sees a live campaign.
      support::MetricsRegistry& metrics = config.telemetry->metrics;
      metrics.counter("campaign.blocks").add();
      metrics.gauge("campaign.block").set(static_cast<double>(block + 1));
      metrics.gauge("campaign.transfers")
          .set(static_cast<double>(result.transfers));
      metrics.gauge("campaign.rejections")
          .set(static_cast<double>(result.rejections));
      metrics.gauge("campaign.forks").set(static_cast<double>(result.forks));
    }
  }

  result.final_unit_rate = difficulty.unit_hash_rate();
  result.retargets = difficulty.retargets();
  std::vector<double> win_shares;
  win_shares.reserve(result.miners.size());
  bool any_wins = false;
  for (const auto& miner : result.miners) {
    win_shares.push_back(static_cast<double>(miner.wins));
    any_wins = any_wins || miner.wins > 0;
  }
  if (any_wins) result.realized_hhi = core::herfindahl_index(win_shares);
  // Final drift scan + summary line; under WatchdogAction::kAbort a
  // mis-converged campaign throws SolverHealthError from here (after the
  // summary is on disk, so the log stays analyzable).
  if (config.monitor != nullptr) config.monitor->finalize(config.block_log);
  return result;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config,
                            const std::vector<core::MinerRequest>& strategies,
                            std::uint64_t seed) {
  return run_campaign_impl(config, strategies, {}, seed);
}

EquilibriumCampaignResult run_campaign_at_equilibrium(
    const CampaignConfig& config, const std::vector<double>& budgets,
    std::uint64_t seed, const core::SolveContext& context) {
  config.validate();
  HECMINE_REQUIRE(!budgets.empty(), "run_campaign_at_equilibrium: no miners");
  // Mirror the campaign's edge policy into the game parameters so the
  // equilibrium anticipates the same service model the simulator applies.
  core::NetworkParams params = config.params;
  if (config.policy.mode == core::EdgeMode::kConnected)
    params.edge_success = config.policy.success_prob;
  else
    params.edge_capacity = config.policy.capacity;
  EquilibriumCampaignResult outcome;
  outcome.equilibrium = core::solve_followers(params, config.prices, budgets,
                                              config.policy.mode, context);
  const std::vector<core::MinerRequest> expanded =
      outcome.equilibrium.expanded();
  // The solved equilibrium is the auditor's reference: install it into the
  // monitor (unless the caller already audits against something else) and
  // stamp it into the block log so an offline replay can recompute the
  // expected W_i per block.
  const bool connected = config.policy.mode == core::EdgeMode::kConnected;
  const double edge_success = connected ? params.edge_success : 1.0;
  if (config.monitor != nullptr && !config.monitor->has_reference()) {
    config.monitor->set_reference(expanded, config.policy.mode,
                                  config.params.fork_rate, edge_success);
  }
  if (config.block_log != nullptr) {
    std::vector<chain::Allocation> requests(expanded.size());
    for (std::size_t i = 0; i < expanded.size(); ++i)
      requests[i] = chain::Allocation{expanded[i].edge, expanded[i].cloud};
    config.block_log->write_reference(connected ? "connected" : "standalone",
                                      config.params.fork_rate, edge_success,
                                      requests);
  }
  outcome.result = run_campaign_impl(config, expanded, {}, seed);
  return outcome;
}

CampaignResult run_campaign_with_pools(
    const CampaignConfig& config,
    const std::vector<core::MinerRequest>& strategies,
    const std::vector<int>& pool_of, std::uint64_t seed) {
  HECMINE_REQUIRE(pool_of.size() == strategies.size(),
                  "run_campaign_with_pools: one pool id per miner");
  return run_campaign_impl(config, strategies, pool_of, seed);
}

}  // namespace hecmine::net

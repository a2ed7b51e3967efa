#include "rl/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "chain/blocklog.hpp"
#include "chain/race.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::rl {

core::EquilibriumProfile equilibrium_reference(
    const core::NetworkParams& params, const core::Prices& prices,
    double budget, const core::PopulationModel& population,
    const core::SolveContext& context) {
  const int n = std::max(
      2, static_cast<int>(std::lround(population.nominal_mean())));
  return core::solve_followers_symmetric(params, prices, budget, n,
                                         core::EdgeMode::kConnected, context);
}

namespace {

/// Expected utility of active miner `i` against the chosen active profile,
/// with the dynamic game's h-weighted winning probability (Eq. 26 reduced).
double expected_utility(const core::NetworkParams& params,
                        const core::Prices& prices,
                        const std::vector<core::MinerRequest>& active,
                        std::size_t i) {
  const core::Totals totals = core::aggregate(active);
  const double beta = params.fork_rate;
  double win = 0.0;
  if (totals.grand() > 0.0)
    win += (1.0 - beta) * active[i].total() / totals.grand();
  if (active[i].edge > 0.0 && totals.edge > 0.0)
    win += beta * params.edge_success * active[i].edge / totals.edge;
  return params.reward * win - core::request_cost(active[i], prices);
}

/// One realized-feedback round: the sampled race plus everything the
/// block log needs to describe it.
struct RealizedRound {
  std::vector<double> utilities;
  std::vector<chain::Allocation> allocations;  ///< post-transfer units
  std::optional<chain::RaceOutcome> outcome;
};

/// Realized utility: edge requests independently served w.p. h (else
/// transferred to the cloud), then one PoW race decides the reward.
RealizedRound realized_utilities(
    const core::NetworkParams& params, const core::Prices& prices,
    const std::vector<core::MinerRequest>& active, support::Rng& rng) {
  RealizedRound round;
  round.allocations.resize(active.size());
  std::vector<double> payments(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    payments[i] = core::request_cost(active[i], prices);
    const bool transferred =
        active[i].edge > 0.0 && !rng.bernoulli(params.edge_success);
    round.allocations[i] =
        transferred
            ? chain::Allocation{0.0, active[i].total()}
            : chain::Allocation{active[i].edge, active[i].cloud};
  }
  chain::RaceConfig race;
  race.fork_rate = params.fork_rate;
  round.outcome = chain::run_race(round.allocations, race, rng);
  round.utilities.resize(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const double income =
        (round.outcome && round.outcome->winner == i) ? params.reward : 0.0;
    round.utilities[i] = income - payments[i];
  }
  return round;
}

}  // namespace

TrainerResult train_miners(const core::NetworkParams& params,
                           const core::Prices& prices, double budget,
                           const core::PopulationModel& population,
                           const TrainerConfig& config, std::uint64_t seed) {
  params.validate();
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "train_miners: prices must be positive");
  HECMINE_REQUIRE(budget > 0.0, "train_miners: budget must be positive");
  HECMINE_REQUIRE(config.blocks > 0, "train_miners: blocks must be positive");

  const ActionGrid grid = ActionGrid::budget_grid(
      prices, budget, config.edge_steps, config.cloud_steps);
  const std::size_t pool =
      static_cast<std::size_t>(population.max_miners());
  std::vector<std::unique_ptr<Learner>> learners;
  learners.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    switch (config.learner) {
      case LearnerKind::kEpsilonGreedy: {
        auto learner = std::make_unique<BanditLearner>(
            grid.size(), config.epsilon, config.learning_rate);
        learner->set_annealing(config.epsilon_decay, config.epsilon_floor);
        learners.push_back(std::move(learner));
        break;
      }
      case LearnerKind::kUcb1:
        learners.push_back(
            std::make_unique<Ucb1Learner>(grid.size(), config.ucb_exploration));
        break;
      case LearnerKind::kBoltzmann:
        learners.push_back(std::make_unique<BoltzmannLearner>(
            grid.size(), config.boltzmann_temperature, config.learning_rate,
            config.boltzmann_cooling, config.boltzmann_floor));
        break;
    }
  }
  support::Rng rng{seed};

  std::vector<std::size_t> order(pool);
  std::iota(order.begin(), order.end(), std::size_t{0});

  TrainerResult result;
  double sim_time = 0.0;
  std::uint64_t height = 0;
  const auto record_curve_point = [&](int block) {
    CurvePoint point;
    point.block = block;
    for (const auto& learner : learners) {
      const auto& action = grid.actions[learner->best_action()];
      point.mean_greedy.edge += action.edge;
      point.mean_greedy.cloud += action.cloud;
    }
    point.mean_greedy.edge /= static_cast<double>(pool);
    point.mean_greedy.cloud /= static_cast<double>(pool);
    result.curve.push_back(point);
  };

  for (int block = 0; block < config.blocks; ++block) {
    const int active_count =
        std::min<int>(population.sample(rng), static_cast<int>(pool));
    std::shuffle(order.begin(), order.end(), rng.engine());
    std::vector<std::size_t> active(order.begin(),
                                    order.begin() + active_count);
    std::vector<std::size_t> chosen(active.size());
    std::vector<core::MinerRequest> profile(active.size());
    for (std::size_t a = 0; a < active.size(); ++a) {
      chosen[a] = learners[active[a]]->select(rng);
      profile[a] = grid.actions[chosen[a]];
    }
    double block_reward = 0.0;
    if (config.feedback == FeedbackMode::kExpected) {
      for (std::size_t a = 0; a < active.size(); ++a) {
        const double reward = expected_utility(params, prices, profile, a);
        learners[active[a]]->update(chosen[a], reward);
        block_reward += reward;
      }
    } else {
      const RealizedRound round =
          realized_utilities(params, prices, profile, rng);
      for (std::size_t a = 0; a < active.size(); ++a) {
        learners[active[a]]->update(chosen[a], round.utilities[a]);
        block_reward += round.utilities[a];
      }
      if (config.block_log != nullptr) {
        double edge_total = 0.0;
        double cloud_total = 0.0;
        std::uint64_t granted_active = 0;
        for (const chain::Allocation& allocation : round.allocations) {
          edge_total += allocation.edge_units;
          cloud_total += allocation.cloud_units;
          if (allocation.edge_units + allocation.cloud_units > 0.0)
            ++granted_active;
        }
        const double total = edge_total + cloud_total;
        chain::BlockRecord record;
        record.round = static_cast<std::uint64_t>(block);
        record.fork_rate = params.fork_rate;
        record.active = granted_active;
        record.edge_units = edge_total;
        record.cloud_units = cloud_total;
        if (total > 0.0)
          record.p_fork = params.fork_rate * cloud_total / total;
        if (round.outcome) {
          ++height;
          sim_time += round.outcome->solve_time;
          record.winner =
              static_cast<std::int64_t>(active[round.outcome->winner]);
          record.via_edge = round.outcome->winner_via_edge;
          record.fork = round.outcome->fork_occurred;
          record.steal = round.outcome->fork_stole;
          record.interval = round.outcome->solve_time;
          const chain::Allocation& winner =
              round.allocations[round.outcome->winner];
          record.p_winner = (1.0 - params.fork_rate) *
                            (winner.edge_units + winner.cloud_units) / total;
          if (edge_total > 0.0)
            record.p_winner +=
                params.fork_rate * winner.edge_units / edge_total;
        }
        record.height = height;
        record.sim_time = sim_time;
        config.block_log->append(record, &active, &round.allocations);
      }
    }
    if (config.telemetry != nullptr && !active.empty()) {
      config.telemetry->metrics.counter("rl.blocks").add();
      config.telemetry->metrics
          .histogram("rl.block_mean_reward",
                     {-10.0, -5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0,
                      10.0, 20.0, 50.0, 100.0})
          .observe(block_reward / static_cast<double>(active.size()));
      // Flight-recorder progress marker: how far through the training run
      // this sink's producer currently is.
      config.telemetry->metrics.gauge("rl.block").set(block + 1);
    }
    for (auto& learner : learners) learner->end_round();
    if (config.curve_stride > 0 &&
        (block + 1) % config.curve_stride == 0) {
      record_curve_point(block + 1);
    }
  }

  result.greedy.resize(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    result.greedy[i] = grid.actions[learners[i]->best_action()];
    result.mean.edge += result.greedy[i].edge;
    result.mean.cloud += result.greedy[i].cloud;
  }
  result.mean.edge /= static_cast<double>(pool);
  result.mean.cloud /= static_cast<double>(pool);
  result.mean_expected_total_edge = population.mean() * result.mean.edge;
  if (config.telemetry != nullptr) {
    config.telemetry->metrics.counter("rl.training_periods").add();
    config.telemetry->metrics.gauge("rl.mean_greedy_edge")
        .set(result.mean.edge);
    config.telemetry->metrics.gauge("rl.mean_greedy_cloud")
        .set(result.mean.cloud);
  }
  return result;
}

AdaptivePricingResult adaptive_pricing_loop(
    const core::NetworkParams& params, core::Prices initial_prices,
    double budget, const core::PopulationModel& population,
    const AdaptivePricingConfig& config, std::uint64_t seed) {
  params.validate();
  AdaptivePricingResult result;
  result.prices = initial_prices;
  double step = config.price_step;
  std::uint64_t stream = seed;

  // Per-period records: the RL pricing loop's residual is the price
  // movement, its step size the current hill-climb step.
  support::TelemetryFlusher* flight =
      config.trainer.telemetry != nullptr ? config.trainer.telemetry->stream
                                          : nullptr;
  const std::uint64_t solve_id =
      flight != nullptr ? flight->next_solve_id() : 0;

  // Profit of each SP when miners re-learn at candidate prices. Common
  // random numbers (same stream per period) keep probe comparisons fair.
  const auto profits_at = [&](const core::Prices& prices,
                              std::uint64_t probe_seed) {
    const TrainerResult miners = train_miners(params, prices, budget,
                                              population, config.trainer,
                                              probe_seed);
    const double mean_n = population.mean();
    const double edge_units = mean_n * miners.mean.edge;
    const double cloud_units = mean_n * miners.mean.cloud;
    return std::pair<double, double>{
        (prices.edge - params.cost_edge) * edge_units,
        (prices.cloud - params.cost_cloud) * cloud_units};
  };

  for (int period = 0; period < config.max_periods; ++period) {
    result.periods = period + 1;
    const std::uint64_t period_seed = stream + static_cast<std::uint64_t>(period);
    const auto [base_edge, base_cloud] = profits_at(result.prices, period_seed);
    core::Prices best = result.prices;
    double best_edge = base_edge;
    double best_cloud = base_cloud;
    // ESP hill-climb.
    for (double direction : {1.0 + step, 1.0 / (1.0 + step)}) {
      core::Prices probe = result.prices;
      probe.edge = std::max(params.cost_edge * 1.0001, probe.edge * direction);
      const auto [edge_profit, cloud_profit] = profits_at(probe, period_seed);
      (void)cloud_profit;
      if (edge_profit > best_edge) {
        best_edge = edge_profit;
        best.edge = probe.edge;
      }
    }
    // CSP hill-climb.
    for (double direction : {1.0 + step, 1.0 / (1.0 + step)}) {
      core::Prices probe = result.prices;
      probe.cloud =
          std::max(params.cost_cloud * 1.0001, probe.cloud * direction);
      const auto [edge_profit, cloud_profit] = profits_at(probe, period_seed);
      (void)edge_profit;
      if (cloud_profit > best_cloud) {
        best_cloud = cloud_profit;
        best.cloud = probe.cloud;
      }
    }
    const double movement = std::max(std::abs(best.edge - result.prices.edge),
                                     std::abs(best.cloud - result.prices.cloud));
    result.prices = best;
    if (flight != nullptr) {
      support::IterationRecord record;
      record.solver = "rl.adaptive_pricing";
      record.solve = solve_id;
      record.iteration = result.periods;
      record.residual = movement;
      record.tolerance = config.price_tolerance;
      record.price_edge = result.prices.edge;
      record.price_cloud = result.prices.cloud;
      record.step = step;
      flight->record(record);
    }
    if (movement < config.price_tolerance) {
      if (step < 1e-3) {
        result.converged = true;
        break;
      }
      step *= config.step_decay;  // refine the search before declaring done
    }
  }
  result.miners = train_miners(params, result.prices, budget, population,
                               config.trainer, stream + 977);
  if (config.trainer.telemetry != nullptr) {
    support::MetricsRegistry& metrics = config.trainer.telemetry->metrics;
    metrics.gauge("rl.adaptive_periods")
        .set(static_cast<double>(result.periods));
    metrics.gauge("rl.adaptive_converged").set(result.converged ? 1.0 : 0.0);
    metrics.gauge("rl.price_edge").set(result.prices.edge);
    metrics.gauge("rl.price_cloud").set(result.prices.cloud);
  }
  return result;
}

}  // namespace hecmine::rl

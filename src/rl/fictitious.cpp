#include "rl/fictitious.hpp"

#include <algorithm>
#include <numeric>

#include "core/kernels.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hecmine::rl {

FictitiousPlayResult run_fictitious_play(const core::NetworkParams& params,
                                         const core::Prices& prices,
                                         double budget,
                                         const core::PopulationModel& population,
                                         const FictitiousPlayConfig& config,
                                         std::uint64_t seed) {
  params.validate();
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "fictitious play: prices must be positive");
  HECMINE_REQUIRE(budget > 0.0, "fictitious play: budget must be positive");
  HECMINE_REQUIRE(config.blocks > 0, "fictitious play: blocks > 0");

  const std::size_t pool = static_cast<std::size_t>(population.max_miners());
  support::Rng rng{seed};

  // Seed strategies and beliefs at a quarter-budget split.
  std::vector<core::MinerRequest> strategies(
      pool, {0.25 * budget / prices.edge, 0.25 * budget / prices.cloud});
  // Per-miner belief about the *opponent* aggregate (edge, cloud).
  std::vector<core::Totals> beliefs(pool);
  const double opponents0 = std::max(1.0, population.mean() - 1.0);
  for (auto& belief : beliefs) {
    belief.edge = opponents0 * strategies[0].edge;
    belief.cloud = opponents0 * strategies[0].cloud;
  }

  std::vector<std::size_t> order(pool);
  std::iota(order.begin(), order.end(), std::size_t{0});

  // Env construction and validation hoisted out of the block loop: only
  // the per-miner beliefs change between best responses.
  const core::KernelEnv env =
      core::make_kernel_env(params, prices, params.edge_success, 0.0);

  for (int block = 0; block < config.blocks; ++block) {
    const int active_count = std::min<int>(population.sample(rng),
                                           static_cast<int>(pool));
    std::shuffle(order.begin(), order.end(), rng.engine());
    const std::vector<std::size_t> active(
        order.begin(), order.begin() + active_count);

    // Active miners best-respond to their current beliefs.
    for (std::size_t index : active) {
      strategies[index] = core::best_response_kernel(
          env, budget, beliefs[index].edge, beliefs[index].grand());
    }

    // The network publishes the round's aggregate demand.
    core::Totals published;
    for (std::size_t index : active) {
      published.edge += strategies[index].edge;
      published.cloud += strategies[index].cloud;
    }

    // Every active miner folds (published - own) into its belief with a
    // 1/t-decaying step — classical fictitious-play averaging.
    const double step = std::max(
        config.min_belief_step,
        config.belief_step0 / static_cast<double>(block + 1));
    for (std::size_t index : active) {
      const double observed_edge = published.edge - strategies[index].edge;
      const double observed_cloud = published.cloud - strategies[index].cloud;
      beliefs[index].edge += step * (observed_edge - beliefs[index].edge);
      beliefs[index].cloud += step * (observed_cloud - beliefs[index].cloud);
    }
  }

  FictitiousPlayResult result;
  result.strategies = strategies;
  for (const auto& strategy : strategies) {
    result.mean.edge += strategy.edge;
    result.mean.cloud += strategy.cloud;
  }
  result.mean.edge /= static_cast<double>(pool);
  result.mean.cloud /= static_cast<double>(pool);
  for (const auto& belief : beliefs) {
    result.belief_edge += belief.edge;
    result.belief_cloud += belief.cloud;
  }
  result.belief_edge /= static_cast<double>(pool);
  result.belief_cloud /= static_cast<double>(pool);
  return result;
}

}  // namespace hecmine::rl

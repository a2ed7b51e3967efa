// Permissionless-chain scenario (paper Sec. V & VI-C): miners join and
// leave freely, so the miner count is a random variable. This example
// contrasts the dynamic symmetric equilibrium with the fixed-N benchmark,
// then runs the reinforcement-learning market: bandit miners that never
// observe each other's strategies, plus service providers that adapt
// prices between training periods.
//
//   $ ./permissionless_market [--mu=10] [--stddev=2] [--budget=12]
#include <cstdio>

#include "core/dynamic.hpp"
#include "rl/trainer.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace hecmine;
  const support::CliArgs args(argc, argv);

  core::DynamicGameConfig config;
  config.params.reward = args.get("reward", 100.0);
  config.params.fork_rate = args.get("beta", 0.2);
  config.params.edge_capacity = args.get("capacity", 8.0);
  config.prices = {args.get("price-edge", 2.0), args.get("price-cloud", 1.0)};
  config.budget = args.get("budget", 12.0);
  config.params.edge_success = args.get("h", 0.5);  // Eq. (26)'s service risk

  const double mu = args.get("mu", 10.0);
  const double stddev = args.get("stddev", 2.0);
  const auto population = core::PopulationModel::around(mu, stddev);
  std::printf("Population: N ~ Gaussian(%.1f, %.2f), truncated to [%d, %d]\n",
              mu, stddev * stddev, population.min_miners(),
              population.max_miners());

  // Model: the uncertainty premium on edge demand (paper Fig. 9).
  const auto dynamic = core::solve_dynamic_symmetric(config, population);
  const auto fixed = core::fixed_population_benchmark(config, population);
  std::printf("\nSymmetric equilibria at fixed prices (P_e=%.2f, P_c=%.2f):\n",
              config.prices.edge, config.prices.cloud);
  std::printf("  dynamic (uncertain N): e*=%.4f c*=%.4f\n",
              dynamic.request.edge, dynamic.request.cloud);
  std::printf("  fixed N = %.0f:         e*=%.4f c*=%.4f\n", mu, fixed.edge,
              fixed.cloud);
  std::printf("  uncertainty premium on e*: %+.2f%%\n",
              100.0 * (dynamic.request.edge / fixed.edge - 1.0));
  std::printf("  expected total edge demand %.3f vs capacity %.1f -> %s\n",
              dynamic.expected_total_edge, config.params.edge_capacity,
              dynamic.exceeds_capacity ? "EXCEEDS the standalone ESP"
                                       : "within capacity");

  // RL market: miners learn strategies; SPs re-price adaptively.
  rl::AdaptivePricingConfig market;
  market.trainer.blocks = args.get("blocks", 4000);
  market.trainer.edge_steps = 13;
  market.trainer.cloud_steps = 13;
  market.trainer.edge_success = config.params.edge_success;
  market.max_periods = args.get("periods", 10);
  const auto outcome = rl::adaptive_pricing_loop(
      config.params, config.prices, config.budget, population, market,
      /*seed=*/2026);
  std::printf("\nRL market after %d pricing periods (%s):\n", outcome.periods,
              outcome.converged ? "converged" : "still moving");
  std::printf("  learned prices: P_e=%.4f P_c=%.4f\n", outcome.prices.edge,
              outcome.prices.cloud);
  std::printf("  learned mean strategy: e=%.4f c=%.4f\n",
              outcome.miners.mean.edge, outcome.miners.mean.cloud);
  std::printf("  expected edge demand at E[N]: %.3f\n",
              outcome.miners.mean_expected_total_edge);
  return 0;
}

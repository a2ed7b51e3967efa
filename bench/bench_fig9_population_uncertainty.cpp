// Fig. 9 reproduction: population uncertainty (Sec. V) with the RL
// framework's learned strategies next to the model's equilibria.
//
// (a) per-miner ESP request vs the population mean mu: the dynamic
//     (uncertain) equilibrium sits above the fixed-N benchmark, and the
//     expected total can exceed the standalone capacity E_max;
// (b) per-miner ESP request vs the variance sigma^2 at mu = 10: larger
//     variance makes miners more ESP-prone.
// Unfilled points in the paper are the RL results; here the rl_edge
// column plays that role (mean greedy strategy of the trained pool).
#include <iostream>

#include "bench_util.hpp"
#include "core/dynamic.hpp"
#include "core/population.hpp"
#include "rl/trainer.hpp"

namespace {

hecmine::core::DynamicGameConfig make_config(const hecmine::support::CliArgs& args) {
  hecmine::core::DynamicGameConfig config;
  config.params.reward = args.get("reward", 100.0);
  config.params.fork_rate = args.get("beta", 0.2);
  config.params.edge_capacity = args.get("capacity", 8.0);
  config.prices = {args.get("price-edge", 2.0), args.get("price-cloud", 1.0)};
  config.budget = args.get("budget", 12.0);
  // Eq. (26)'s 1/2-1/2 mixture.
  config.params.edge_success = args.get("h", 0.5);
  return config;
}

hecmine::rl::TrainerConfig trainer_config() {
  hecmine::rl::TrainerConfig config;
  config.blocks = 8000;
  config.edge_steps = 13;
  config.cloud_steps = 13;
  config.epsilon_decay = 0.9995;
  config.epsilon_floor = 0.05;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hecmine;
  const support::CliArgs args(argc, argv);
  const auto config = make_config(args);
  const double sigma = args.get("stddev", 2.0);
  const int threads = args.threads();

  support::Table mu_table({"mu", "edge_dynamic", "edge_fixed", "rl_edge",
                           "expected_total_edge", "edge_capacity",
                           "exceeds_capacity"});
  std::vector<double> mus;
  for (double mu = 6.0; mu <= 14.01; mu += 2.0) mus.push_back(mu);
  const auto mu_rows = bench::sweep(
      mus,
      [&](double mu) {
        const core::PopulationModel population =
            core::PopulationModel::around(mu, sigma);
        const auto dynamic = core::solve_dynamic_symmetric(config, population);
        const auto fixed = core::fixed_population_benchmark(config, population);
        const auto learned =
            rl::train_miners(config.params, config.prices, config.budget,
                             population, trainer_config(),
                             900 + static_cast<std::uint64_t>(mu));
        return std::vector<double>{mu, dynamic.request.edge, fixed.edge,
                                   learned.mean.edge,
                                   dynamic.expected_total_edge,
                                   config.params.edge_capacity,
                                   dynamic.exceeds_capacity ? 1.0 : 0.0};
      },
      threads);
  for (const auto& row : mu_rows) mu_table.add_row(row);
  bench::emit("fig9a_requests_vs_mu", mu_table);

  support::Table sigma_table(
      {"sigma_sq", "edge_dynamic", "edge_fixed", "rl_edge"});
  const double mu_b = args.get("mu", 10.0);
  const std::vector<double> sigmas{0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  const auto sigma_rows = bench::sweep(
      sigmas,
      [&](double s) {
        const core::PopulationModel population =
            core::PopulationModel::around(mu_b, s);
        const auto dynamic = core::solve_dynamic_symmetric(config, population);
        const auto fixed = core::fixed_population_benchmark(config, population);
        const auto learned =
            rl::train_miners(config.params, config.prices, config.budget,
                             population, trainer_config(),
                             950 + static_cast<std::uint64_t>(10.0 * s));
        return std::vector<double>{s * s, dynamic.request.edge, fixed.edge,
                                   learned.mean.edge};
      },
      threads);
  for (const auto& row : sigma_rows) sigma_table.add_row(row);
  bench::emit("fig9b_requests_vs_variance", sigma_table);
  std::cout << "Expected shape (paper Fig. 9): dynamic > fixed edge "
               "requests; the gap grows with the variance; expected totals "
               "can exceed E_max.\n";
  return 0;
}

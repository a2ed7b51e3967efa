// Ablation: exploration strategies of the RL framework (Sec. VI-C).
// Learning curves — distance of the pool's mean greedy strategy from the
// analytic symmetric NE — for epsilon-greedy (the paper's setup), UCB1 and
// Boltzmann learners, at a fixed population.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "chain/blocklog.hpp"
#include "rl/trainer.hpp"
#include "support/provenance.hpp"
#include "support/run_dir.hpp"

int main(int argc, char** argv) {
  using namespace hecmine;
  const support::CliArgs args(argc, argv);

  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 20.0;
  const core::Prices prices{2.0, 1.0};
  const double budget = args.positive_double("budget", 12.0);
  const int n = args.positive_int("miners", 5);
  const core::PopulationModel fixed(static_cast<double>(n), 0.0, 1, n);

  const auto analytic =
      rl::equilibrium_reference(params, prices, budget, fixed);
  std::cout << "analytic symmetric NE: e*=" << analytic.request().edge
            << " c*=" << analytic.request().cloud << "\n";

  const auto distance = [&](const core::MinerRequest& mean) {
    return std::hypot(mean.edge - analytic.request().edge,
                      mean.cloud - analytic.request().cloud);
  };

  support::Table table({"block", "eps_greedy_dist", "ucb1_dist",
                        "boltzmann_dist"});
  const int blocks = args.positive_int("blocks", 12000);
  const int stride = blocks / 24;
  std::vector<std::vector<rl::CurvePoint>> curves;
  for (rl::LearnerKind kind :
       {rl::LearnerKind::kEpsilonGreedy, rl::LearnerKind::kUcb1,
        rl::LearnerKind::kBoltzmann}) {
    rl::TrainerConfig config;
    config.blocks = blocks;
    config.edge_steps = 13;
    config.cloud_steps = 13;
    config.learner = kind;
    config.epsilon_decay = 0.9995;
    config.epsilon_floor = 0.05;
    config.ucb_exploration = 0.15;
    config.curve_stride = stride;
    const auto trained =
        rl::train_miners(params, prices, budget, fixed, config, 4242);
    curves.push_back(trained.curve);
  }
  for (std::size_t point = 0; point < curves[0].size(); ++point) {
    table.add_row({static_cast<double>(curves[0][point].block),
                   distance(curves[0][point].mean_greedy),
                   distance(curves[1][point].mean_greedy),
                   distance(curves[2][point].mean_greedy)});
  }
  bench::emit("ablation_rl_learners", table);

  // --run-dir: one extra epsilon-greedy pass under realized feedback (the
  // only mode that runs PoW races, hence the only one with blocks to log)
  // streaming every training round to the bundle's block log, with the
  // trainer's telemetry in the rest of the bundle.
  if (const std::string run_dir_path = args.run_dir(); !run_dir_path.empty()) {
    support::Telemetry telemetry;
    telemetry.manifest = support::provenance::collect(1, 4242, argc, argv);
    support::RunDir run_dir(run_dir_path, telemetry);
    chain::BlockLogWriter block_log(run_dir.path(support::RunDir::kBlockLog),
                                    &telemetry.manifest);
    rl::TrainerConfig config;
    config.blocks = blocks;
    config.edge_steps = 13;
    config.cloud_steps = 13;
    config.feedback = rl::FeedbackMode::kRealized;
    config.block_log = &block_log;
    config.telemetry = &telemetry;
    (void)rl::train_miners(params, prices, budget, fixed, config, 4242);
    run_dir.finish(std::cout);
  }

  std::cout << "Expected: every learner's distance to the NE shrinks with "
               "training and ends within a grid step or two; epsilon-greedy "
               "(the paper's choice) is competitive.\n";
  return 0;
}

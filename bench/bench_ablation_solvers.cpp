// Ablation: solver design choices.
//
// (a) standalone GNEP: the class solver's shared-surcharge decomposition
//     vs the extragradient VI reference — agreement of the variational
//     equilibria and relative cost;
// (b) damping: sweeps the damping factor of the class fixed point on a
//     connected pool of distinct budgets and reports sweeps to
//     convergence (the library default is 0.5).
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "core/aggregate_oracle.hpp"
#include "core/equilibrium.hpp"
#include "support/stats.hpp"

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hecmine;
  const support::CliArgs args(argc, argv);
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 8.0;
  const core::Prices prices{2.0, 1.0};

  // (a) GNEP solver cross-validation.
  support::Table gnep_table({"miners", "edge_total_decomposition",
                             "edge_total_vi", "max_request_diff",
                             "decomposition_ms", "vi_ms"});
  for (int n : {2, 3, 5, 8}) {
    const std::vector<double> budgets(static_cast<std::size_t>(n), 40.0);
    const double t0 = now_ms();
    const auto decomposition =
        core::ClassAggregateOracle(params, budgets, core::EdgeMode::kStandalone)
            .solve(prices);
    const double t1 = now_ms();
    core::MinerSolveOptions vi_options;
    vi_options.vi_tolerance = 1e-8;
    const auto vi = core::solve_followers_vi(
        params, prices, budgets, core::EdgeMode::kStandalone, vi_options);
    const double t2 = now_ms();
    double worst = 0.0;
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      worst = std::max(worst, std::abs(decomposition.request(i).edge -
                                       vi.request(i).edge));
      worst = std::max(worst, std::abs(decomposition.request(i).cloud -
                                       vi.request(i).cloud));
    }
    gnep_table.add_row({static_cast<double>(n), decomposition.totals.edge,
                        vi.totals.edge, worst, t1 - t0, t2 - t1});
  }
  bench::emit("ablation_gnep_solvers", gnep_table);

  // (b) damping sweep on the connected class fixed point.
  support::Table damping_table(
      {"damping", "iterations", "converged", "edge_total"});
  const std::vector<double> budgets{20.0, 30.0, 40.0, 50.0, 60.0};
  for (double damping : {0.2, 0.35, 0.5, 0.7, 0.9, 1.0}) {
    core::MinerSolveOptions options;
    options.damping = damping;
    const auto eq = core::ClassAggregateOracle(
                        params, budgets, core::EdgeMode::kConnected, options)
                        .solve(prices);
    damping_table.add_row({damping, static_cast<double>(eq.iterations),
                           eq.converged ? 1.0 : 0.0, eq.totals.edge});
  }
  bench::emit("ablation_damping", damping_table);
  std::cout << "Expected: both GNEP solvers land on the same variational "
               "equilibrium (diff ~1e-3 or better), the decomposition being "
               "the cheaper; all dampings converge to the same unique NE "
               "(Thm 2), moderate damping fastest.\n";
  return 0;
}

// Ablation: solver design choices. The standalone GNEP through the class
// solver's shared-surcharge decomposition vs the extragradient VI
// reference: agreement of the variational equilibria and relative cost.
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "core/equilibrium.hpp"
#include "core/oracle.hpp"
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

  support::Table gnep_table({"miners", "edge_total_decomposition",
                             "edge_total_vi", "max_request_diff",
                             "decomposition_ms", "vi_ms"});
  for (int n : {2, 3, 5, 8}) {
    const std::vector<double> budgets(static_cast<std::size_t>(n), 40.0);
    const double t0 = now_ms();
    const auto decomposition =
        core::FollowerOracle(params, budgets, core::EdgeMode::kStandalone)
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

  std::cout << "Expected: both GNEP solvers land on the same variational "
               "equilibrium (diff ~1e-3 or better), the decomposition being "
               "the cheaper.\n";
  return 0;
}

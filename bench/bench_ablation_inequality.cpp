// Ablation: budget inequality (heterogeneous miners) — mean-preserving
// spreads of the budget distribution vs equilibrium outcomes.
//
// The paper's heterogeneous analysis stops at existence/uniqueness; this
// bench asks the follow-up economic question: holding total budget fixed,
// what does inequality do to SP prices/profits and to block-production
// decentralization? Uses the general (heterogeneous) leader stage over the
// class solver, with the winning-share metrics.
#include <iostream>

#include "bench_util.hpp"
#include "core/decentralization.hpp"
#include "core/sp.hpp"

int main(int argc, char** argv) {
  using namespace hecmine;
  const support::CliArgs args(argc, argv);
  core::NetworkParams params;
  params.reward = 1000.0;  // budgets bind so the spread matters
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 50.0;
  params.cost_edge = 1.0;
  params.cost_cloud = 0.4;
  core::SpSolveOptions options;
  options.grid_points = args.get("grid", 20);
  options.max_rounds = 12;
  options.tolerance = 1e-3;

  // Mean-preserving spreads around 60 per miner (total 300).
  const std::vector<std::vector<double>> budget_sets{
      {60, 60, 60, 60, 60},
      {40, 50, 60, 70, 80},
      {20, 40, 60, 80, 100},
      {10, 25, 55, 90, 120},
      {5, 15, 40, 100, 140},
  };

  support::Table table({"budget_spread", "price_edge", "price_cloud",
                        "profit_edge", "profit_cloud", "hhi", "gini",
                        "nakamoto", "total_units"});
  for (const auto& budgets : budget_sets) {
    double spread = 0.0;
    for (double b : budgets) spread += std::abs(b - 60.0);
    const auto eq = core::solve_leader_stage(
        params, budgets, core::EdgeMode::kConnected, options);
    const auto shares =
        core::winning_shares(eq.followers.expanded(), params.fork_rate);
    table.add_row({spread, eq.prices.edge, eq.prices.cloud, eq.profits.edge,
                   eq.profits.cloud, core::herfindahl_index(shares),
                   core::gini_coefficient(shares),
                   static_cast<double>(core::nakamoto_coefficient(shares)),
                   eq.followers.totals.grand()});
  }
  bench::emit("ablation_inequality", table);
  std::cout << "Expected: larger budget spreads concentrate block "
               "production (HHI/Gini up, Nakamoto count down) while total "
               "spend — and hence SP revenue — stays pinned by the total "
               "budget.\n";
  return 0;
}

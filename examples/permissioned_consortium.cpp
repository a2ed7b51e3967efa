// Permissioned-chain scenario (paper Sec. IV): a consortium fixes the set
// of miners — here five devices with heterogeneous budgets — and the ESP's
// operation mode is a deployment decision. This example contrasts the two
// modes end to end:
//
//   * connected  — overflow auto-transfers to the CSP (NEP, Theorem 2);
//   * standalone — hard capacity E_max, jointly constrained requests
//                  (GNEP, Theorem 5, variational equilibrium).
//
//   $ ./permissioned_consortium [--capacity=6] [--price-edge=2]
//                               [--price-cloud=1] [--rounds=50000]
#include <cstdio>
#include <vector>

#include "core/oracle.hpp"
#include "net/network.hpp"
#include "support/cli.hpp"

namespace {

void print_equilibrium(const char* label,
                       const hecmine::core::EquilibriumProfile& eq,
                       const std::vector<double>& budgets,
                       const hecmine::core::Prices& prices) {
  std::printf("%s\n", label);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    std::printf(
        "  miner %zu (B=%5.1f): e=%7.4f c=%7.4f  spend=%7.3f  U=%7.4f\n", i,
        budgets[i], eq.request(i).edge, eq.request(i).cloud,
        hecmine::core::request_cost(eq.request(i), prices), eq.utility(i));
  }
  std::printf("  totals: E=%.4f C=%.4f  (surcharge mu=%.4f, cap %s)\n\n",
              eq.totals.edge, eq.totals.cloud, eq.surcharge,
              eq.cap_active ? "ACTIVE" : "slack");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hecmine;
  const support::CliArgs args(argc, argv);

  core::NetworkParams params;
  params.reward = args.get("reward", 100.0);
  params.fork_rate = args.get("beta", 0.2);
  params.edge_success = args.get("h", 0.9);
  params.edge_capacity = args.get("capacity", 6.0);
  const core::Prices prices{args.get("price-edge", 2.0),
                            args.get("price-cloud", 1.0)};
  // Budgets straddle the unconstrained equilibrium spend so the poorer
  // consortium members are genuinely budget-limited.
  const std::vector<double> budgets{6.0, 10.0, 14.0, 18.0, 60.0};

  // Follower-stage equilibria in both operation modes.
  const auto connected =
      core::solve_followers(params, prices, budgets, core::EdgeMode::kConnected);
  print_equilibrium("Connected mode (NEP, unique NE):", connected, budgets,
                    prices);
  const auto standalone = core::solve_followers(params, prices, budgets,
                                                core::EdgeMode::kStandalone);
  print_equilibrium("Standalone mode (GNEP, variational equilibrium):",
                    standalone, budgets, prices);

  if (standalone.cap_active) {
    std::printf("Mode comparison: the standalone cap truncates edge demand "
                "(E %.3f connected -> %.3f standalone, capacity %.1f); the "
                "total stays comparable (S %.3f -> %.3f).\n\n",
                connected.totals.edge, standalone.totals.edge,
                params.edge_capacity, connected.totals.grand(),
                standalone.totals.grand());
  } else {
    std::printf("Mode comparison: standalone (h = 1) encourages edge "
                "purchases (E %.3f connected -> %.3f standalone); the total "
                "stays comparable (S %.3f -> %.3f).\n\n",
                connected.totals.edge, standalone.totals.edge,
                connected.totals.grand(), standalone.totals.grand());
  }

  // Replay the standalone equilibrium: the shared constraint guarantees the
  // ESP never rejects on the equilibrium path.
  net::EdgePolicy policy;
  policy.mode = core::EdgeMode::kStandalone;
  policy.capacity = params.edge_capacity;
  net::MiningNetwork network(params, policy, prices, /*seed=*/11);
  auto profile = standalone.expanded();
  // Guard the floating-point boundary: at a binding cap the equilibrium sits
  // exactly on E = E_max, where accumulation error in the admission loop
  // could reject the last request.
  const double total_edge = standalone.totals.edge;
  if (total_edge > params.edge_capacity * (1.0 - 1e-9)) {
    const double shrink =
        params.edge_capacity * (1.0 - 1e-9) / total_edge;
    for (auto& request : profile) request.edge *= shrink;
  }
  const std::size_t rounds = static_cast<std::size_t>(args.get("rounds", 50000));
  network.run_rounds(profile, rounds);
  std::printf("Replayed %zu standalone rounds: rejections=%zu (expected 0), "
              "mean realized utilities:\n",
              rounds, network.stats().rejections);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    std::printf("  miner %zu: realized %7.4f  (model %7.4f)\n", i,
                network.stats().utility[i].mean(), standalone.utility(i));
  }
  return 0;
}

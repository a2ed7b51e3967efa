// validate_model — a user-facing self-check that replays the library's
// core validation suite as a readable report: every Section-III formula
// against Monte Carlo through the real pipeline, the GNEP solved two
// independent ways, closed forms against the numerical solvers, and
// Theorem 1 as an exact identity.
//
//   $ ./validate_model [--rounds=200000]
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/closed_forms.hpp"
#include "core/equilibrium.hpp"
#include "core/oracle.hpp"
#include "core/winning.hpp"
#include "net/network.hpp"
#include "support/cli.hpp"

namespace {

int checks_run = 0;
int checks_passed = 0;

void check(const char* label, double measured, double expected,
           double tolerance) {
  ++checks_run;
  const bool ok = std::abs(measured - expected) <= tolerance;
  if (ok) ++checks_passed;
  std::printf("  [%s] %-52s measured %10.5f  expected %10.5f\n",
              ok ? "PASS" : "FAIL", label, measured, expected);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hecmine;
  const support::CliArgs args(argc, argv);
  const std::size_t rounds =
      static_cast<std::size_t>(args.get("rounds", 200000));

  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.25;
  params.edge_success = 0.8;
  params.edge_capacity = 8.0;
  const core::Prices prices{2.0, 1.0};
  const std::vector<core::MinerRequest> profile{
      {2.0, 1.0}, {1.5, 2.5}, {1.0, 4.0}};
  const core::Totals totals = core::aggregate(profile);

  std::printf("1. Section III probabilities (Monte Carlo, %zu rounds)\n",
              rounds);
  check("Theorem 1: sum of W_i^h",
        core::total_win_probability(profile, params.fork_rate), 1.0, 1e-12);
  {
    net::EdgePolicy policy{core::EdgeMode::kConnected, params.edge_success,
                           params.edge_capacity};
    const double mc = net::estimate_focal_win_probability(
        params, policy, profile, 0, rounds, 1);
    check("Eq. (9) connected expected W_0", mc,
          core::win_prob_connected(profile[0], totals, params.fork_rate,
                                   params.edge_success),
          0.005);
  }
  {
    net::EdgePolicy policy{core::EdgeMode::kStandalone, params.edge_success,
                           params.edge_capacity};
    const double mc = net::estimate_focal_win_probability(
        params, policy, profile, 0, rounds, 2);
    check("Eq. (8) standalone rejection W_0", mc,
          core::win_prob_standalone_rejection(profile[0], totals,
                                              params.fork_rate),
          0.005);
  }

  std::printf("\n2. Follower equilibria (two independent solvers)\n");
  const std::vector<double> budgets{30.0, 45.0, 60.0};
  const auto gnep =
      core::solve_followers(params, prices, budgets, core::EdgeMode::kStandalone);
  const auto vi = core::solve_followers_vi(params, prices, budgets,
                                           core::EdgeMode::kStandalone);
  check("GNEP decomposition vs extragradient VI (total E)",
        gnep.totals.edge, vi.totals.edge, 0.01);
  check("GNEP exploitability at mu*",
        core::miner_exploitability(params, prices, budgets, gnep,
                                   core::EdgeMode::kStandalone),
        0.0, 1e-4);

  std::printf("\n3. Closed forms vs numerics (homogeneous miners)\n");
  {
    const auto numeric = core::solve_followers_symmetric(
        params, prices, 10.0, 5, core::EdgeMode::kConnected);
    const auto closed =
        core::homogeneous_binding_request(params, prices, 10.0, 5);
    check("Theorem 3 e* (binding budget)", numeric.request().edge, closed.edge,
          1e-6);
    check("Theorem 3 budget exhaustion",
          core::request_cost(closed, prices), 10.0, 1e-9);
  }
  {
    const auto numeric = core::solve_followers_symmetric(
        params, prices, 1e5, 5, core::EdgeMode::kConnected);
    const auto closed = core::homogeneous_sufficient_request(params, prices, 5);
    check("Corollary 1 e* (sufficient budget)", numeric.request().edge,
          closed.edge, 1e-6);
  }
  {
    const auto closed = core::standalone_sufficient_request(params, prices, 5);
    const auto numeric = core::solve_followers_symmetric(
        params, prices, 1e5, 5, core::EdgeMode::kStandalone);
    check("Table II e* (standalone, cap-aware)", numeric.request().edge,
          closed.request.edge, 1e-4);
    check("Table II surcharge mu*", numeric.surcharge, closed.surcharge,
          1e-3);
  }

  std::printf("\n%d/%d checks passed.\n", checks_passed, checks_run);
  return checks_passed == checks_run ? 0 : 1;
}

#include "core/equilibrium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/kernels.hpp"
#include "numerics/projection.hpp"
#include "numerics/vi.hpp"
#include "support/error.hpp"
#include "support/prof.hpp"

namespace hecmine::core {

namespace {

void check_inputs(const NetworkParams& params, const Prices& prices,
                  const std::vector<double>& budgets) {
  params.validate();
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "follower solve: prices must be positive");
  HECMINE_REQUIRE(!budgets.empty(), "follower solve: no miners");
  for (double b : budgets)
    HECMINE_REQUIRE(b >= 0.0, "follower solve: budgets must be >= 0");
}

}  // namespace

EquilibriumProfile solve_followers_vi(const NetworkParams& params,
                                      const Prices& prices,
                                      const std::vector<double>& budgets,
                                      EdgeMode mode,
                                      const MinerSolveOptions& options) {
  check_inputs(params, prices, budgets);
  const std::size_t n = budgets.size();
  const bool connected = mode == EdgeMode::kConnected;
  const double h = connected ? params.edge_success : 1.0;
  // Connected mode has no shared constraint: an infinite cap makes the
  // joint projection the blockwise budget projection.
  const double cap = connected ? std::numeric_limits<double>::infinity()
                               : params.edge_capacity;

  std::vector<num::BudgetBlock> blocks(n);
  for (std::size_t i = 0; i < n; ++i)
    blocks[i] = {{prices.edge, prices.cloud}, budgets[i]};
  std::vector<double> weights(2 * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) weights[2 * i] = 1.0;  // edge coords

  // Env construction/validation hoisted out of the operator: the map is
  // evaluated thousands of times per extragradient solve and only the
  // iterate changes between calls.
  const KernelEnv kenv = make_kernel_env(params, prices, h, 0.0);
  num::VariationalInequality problem;
  problem.project = [&, blocks, weights](const std::vector<double>& point) {
    return num::project_shared_cap(point, blocks, weights, cap);
  };
  problem.map = [&, kenv](const std::vector<double>& flat) {
    std::vector<double> f(flat.size());
    Totals totals;
    for (std::size_t i = 0; i < n; ++i) {
      totals.edge += flat[2 * i];
      totals.cloud += flat[2 * i + 1];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double e = flat[2 * i];
      const double c = flat[2 * i + 1];
      const double oe = totals.edge - e;
      const double og = oe + (totals.cloud - c);
      HECMINE_REQUIRE(og + e + c > 0.0, "follower VI map: empty network");
      double du_de = 0.0;
      double du_dc = 0.0;
      gradient_kernel(kenv, e, c, oe, og, du_de, du_dc);
      f[2 * i] = -du_de;
      f[2 * i + 1] = -du_dc;
    }
    return f;
  };

  // Positive seeds keep the contest away from the degenerate origin; the
  // total edge seed stays below capacity so standalone starts feasible.
  std::vector<double> start;
  start.reserve(2 * n);
  for (double budget : budgets) {
    start.push_back(std::min(0.25 * budget / prices.edge,
                             0.5 * cap / static_cast<double>(n)));
    start.push_back(0.25 * budget / prices.cloud);
  }
  num::ExtragradientOptions eg;
  eg.tolerance = options.vi_tolerance;
  eg.max_iterations = options.max_iterations * 20;
  auto vi = num::solve_extragradient(problem, std::move(start), eg);

  EquilibriumProfile result;
  result.miner_count = static_cast<int>(n);
  result.requests.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    result.requests[i] = {vi.point[2 * i], vi.point[2 * i + 1]};
  result.totals = aggregate(result.requests);
  result.utilities.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double oe = result.totals.edge - result.requests[i].edge;
    const double og = oe + (result.totals.cloud - result.requests[i].cloud);
    result.utilities[i] = utility_kernel(kenv, result.requests[i].edge,
                                         result.requests[i].cloud, oe, og);
  }
  result.converged = vi.converged;
  result.iterations = vi.iterations;
  result.residual = vi.residual;
  result.cap_active =
      !connected && result.totals.edge >= cap - 1e-6 * (1.0 + cap);
  // Recover the shared multiplier from any miner with interior edge request:
  // at the variational equilibrium, dU/de = mu for such miners.
  for (std::size_t i = 0; i < n && result.cap_active; ++i) {
    if (result.requests[i].edge > 1e-9) {
      const double spend = request_cost(result.requests[i], prices);
      if (spend < budgets[i] - 1e-7 * (1.0 + budgets[i])) {
        const double oe = result.totals.edge - result.requests[i].edge;
        const double og = oe + (result.totals.cloud - result.requests[i].cloud);
        double du_de = 0.0;
        double du_dc = 0.0;
        gradient_kernel(kenv, result.requests[i].edge, result.requests[i].cloud,
                        oe, og, du_de, du_dc);
        result.surcharge = std::max(0.0, du_de);
        break;
      }
    }
  }
  // The map drops the edge term at E = 0, where its marginal is really
  // unbounded, so the projected iteration can stall there; only a
  // one-miner deviation check can tell such a corner from an equilibrium.
  if (result.converged && result.totals.edge <= 0.0)
    result.converged =
        miner_exploitability(params, prices, budgets, result.requests,
                             connected, result.surcharge) <=
        1e-7 * params.reward;
  return result;
}

double miner_exploitability(const NetworkParams& params, const Prices& prices,
                            const std::vector<double>& budgets,
                            const std::vector<MinerRequest>& requests,
                            bool mode_connected, double surcharge) {
  check_inputs(params, prices, budgets);
  HECMINE_REQUIRE(requests.size() == budgets.size(),
                  "miner_exploitability: profile/budget size mismatch");
  const double h = mode_connected ? params.edge_success : 1.0;
  const Totals totals = aggregate(requests);
  // One hoisted env for the whole audit loop; the opponent aggregates come
  // from running-total subtraction exactly as the per-miner Totals did.
  const KernelEnv env = make_kernel_env(params, prices, h, surcharge);
  if (auto* work = support::prof::current_block(); work != nullptr) {
    const auto n_audit = static_cast<std::uint64_t>(requests.size());
    work->add(support::prof::WorkField::kBestResponseEvals, n_audit);
    work->add(support::prof::WorkField::kUtilityEvals, 2 * n_audit);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double oe = totals.edge - requests[i].edge;
    const double og = oe + (totals.cloud - requests[i].cloud);
    const double current = penalized_utility_kernel(env, requests[i].edge,
                                                    requests[i].cloud, oe, og);
    const MinerRequest br = best_response_kernel(env, budgets[i], oe, og);
    const double best = penalized_utility_kernel(env, br.edge, br.cloud, oe, og);
    worst = std::max(worst, best - current);
  }
  return worst;
}

}  // namespace hecmine::core

#include "core/equilibrium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/closed_forms.hpp"
#include "core/kernels.hpp"
#include "core/soa.hpp"

#include "game/nash.hpp"
#include "numerics/projection.hpp"
#include "numerics/vi.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

namespace {

void finish_equilibrium(const NetworkParams& params, const Prices& prices,
                        double edge_success, MinerEquilibrium& result) {
  result.totals = aggregate(result.requests);
  result.utilities.resize(result.requests.size());
  // One hoisted env for the whole profile; utility_kernel mirrors
  // miner_utility term for term, so the values match the per-miner
  // MinerEnv construction this loop used to do.
  const KernelEnv env = make_kernel_env(params, prices, edge_success, 0.0);
  for (std::size_t i = 0; i < result.requests.size(); ++i) {
    const double oe = result.totals.edge - result.requests[i].edge;
    const double og = oe + (result.totals.cloud - result.requests[i].cloud);
    result.utilities[i] = utility_kernel(env, result.requests[i].edge,
                                         result.requests[i].cloud, oe, og);
  }
}

/// Starting profile shared by every profile solver.
std::vector<MinerRequest> seed_requests(const Prices& prices,
                                        const std::vector<double>& budgets,
                                        double edge_cap) {
  std::vector<MinerRequest> start(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    // Positive seeds keep the contest away from the degenerate origin; cap
    // the total edge seed below capacity so standalone starts feasible.
    const double seed_edge =
        std::min(0.25 * budgets[i] / prices.edge,
                 0.5 * edge_cap / static_cast<double>(budgets.size()));
    const double seed_cloud = 0.25 * budgets[i] / prices.cloud;
    start[i] = {seed_edge, seed_cloud};
  }
  return start;
}

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

MinerEquilibrium solve_connected_nep(const NetworkParams& params,
                                     const Prices& prices,
                                     const std::vector<double>& budgets,
                                     const MinerSolveOptions& options) {
  check_inputs(params, prices, budgets);
  const double h = params.edge_success;
  const game::ProbeBinding binding{"nep.best_response", prices.edge,
                                   prices.cloud};
  // Batched SoA sweep: one hoisted KernelEnv, opponent aggregates by
  // running-total subtraction, Newton boundary solves.
  const KernelEnv env = make_kernel_env(params, prices, h, 0.0);
  MinerBatch batch = make_miner_batch(
      budgets,
      seed_requests(prices, budgets, std::numeric_limits<double>::infinity()));
  const BatchSweepResult sweep = solve_nep_batch(env, batch, options, binding);
  MinerEquilibrium result;
  result.requests = extract_requests(batch);
  result.converged = sweep.converged;
  result.iterations = sweep.iterations;
  result.residual = sweep.residual;
  finish_equilibrium(params, prices, h, result);
  if (!result.converged) {
    // The movement test can floor at the line-search noise while the point
    // is already an exact equilibrium; certify by exploitability instead.
    const double gain = miner_exploitability(params, prices, budgets,
                                             result.requests, true);
    result.converged = gain <= 1e-7 * params.reward;
  }
  return result;
}

MinerEquilibrium solve_standalone_gnep(const NetworkParams& params,
                                       const Prices& prices,
                                       const std::vector<double>& budgets,
                                       const MinerSolveOptions& options) {
  check_inputs(params, prices, budgets);
  const game::ProbeBinding binding{"gnep.inner", prices.edge, prices.cloud};
  // Fused across-miners surcharge bisection on the SoA batch: the batch
  // iterate is the warm start shared by every inner solve.
  const KernelEnv env = make_kernel_env(params, prices, 1.0, 0.0);
  MinerBatch batch = make_miner_batch(
      budgets, seed_requests(prices, budgets, params.edge_capacity));
  BatchGnepOptions gnep_options;
  gnep_options.cap = params.edge_capacity;
  gnep_options.surcharge_hi0 = 0.25 * prices.edge;
  const BatchGnepResult gnep =
      solve_gnep_batch(env, batch, gnep_options, options, binding);
  MinerEquilibrium result;
  result.requests = extract_requests(batch);
  result.surcharge = gnep.surcharge;
  result.cap_active = gnep.cap_active;
  result.converged = gnep.converged;
  result.iterations = gnep.inner_solves;
  result.residual = 0.0;
  finish_equilibrium(params, prices, 1.0, result);
  if (!result.converged &&
      result.totals.edge <= params.edge_capacity * (1.0 + 1e-6)) {
    // Same certification as the NEP path: accept when no miner can gain in
    // the mu-penalized decoupled game (the variational KKT condition).
    const double gain = miner_exploitability(
        params, prices, budgets, result.requests, false, result.surcharge);
    result.converged = gain <= 1e-7 * params.reward;
  }
  return result;
}

MinerEquilibrium solve_standalone_gnep_vi(const NetworkParams& params,
                                          const Prices& prices,
                                          const std::vector<double>& budgets,
                                          const MinerSolveOptions& options) {
  check_inputs(params, prices, budgets);
  const std::size_t n = budgets.size();

  std::vector<num::BudgetBlock> blocks(n);
  for (std::size_t i = 0; i < n; ++i)
    blocks[i] = {{prices.edge, prices.cloud}, budgets[i]};
  std::vector<double> weights(2 * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) weights[2 * i] = 1.0;  // edge coords

  // Env construction/validation hoisted out of the operator: the map is
  // evaluated thousands of times per extragradient solve and only the
  // iterate changes between calls.
  const KernelEnv kenv = make_kernel_env(params, prices, 1.0, 0.0);
  num::VariationalInequality problem;
  problem.project = [&, blocks, weights](const std::vector<double>& point) {
    return num::project_shared_cap(point, blocks, weights,
                                   params.edge_capacity);
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
      HECMINE_REQUIRE(og + e + c > 0.0, "gnep_vi map: empty network");
      double du_de = 0.0;
      double du_dc = 0.0;
      gradient_kernel(kenv, e, c, oe, og, du_de, du_dc);
      f[2 * i] = -du_de;
      f[2 * i + 1] = -du_dc;
    }
    return f;
  };

  std::vector<double> start;
  start.reserve(2 * n);
  for (const MinerRequest& seed :
       seed_requests(prices, budgets, params.edge_capacity)) {
    start.push_back(seed.edge);
    start.push_back(seed.cloud);
  }
  num::ExtragradientOptions eg;
  eg.tolerance = options.vi_tolerance;
  eg.max_iterations = options.max_iterations * 20;
  auto vi = num::solve_extragradient(problem, std::move(start), eg);

  MinerEquilibrium result;
  result.requests.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    result.requests[i] = {vi.point[2 * i], vi.point[2 * i + 1]};
  result.converged = vi.converged;
  result.iterations = vi.iterations;
  result.residual = vi.residual;
  finish_equilibrium(params, prices, 1.0, result);
  result.cap_active =
      result.totals.edge >= params.edge_capacity - 1e-6 * (1.0 + params.edge_capacity);
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
  return result;
}

namespace {

/// Damped fixed point of the symmetric best response at a given surcharge.
SymmetricEquilibrium symmetric_fixed_point(const NetworkParams& params,
                                           const Prices& prices, double budget,
                                           int n, double edge_success,
                                           double surcharge,
                                           const MinerSolveOptions& options,
                                           MinerRequest seed) {
  SymmetricEquilibrium result;
  MinerRequest current = seed;
  const double dn = static_cast<double>(n);
  // Env construction and validation hoisted out of the loop: prices and
  // the surcharge are fixed for the whole solve, only the opponent
  // aggregates change per sweep.
  const KernelEnv env = make_kernel_env(params, prices, edge_success, surcharge);
  // Probe gating hoisted out of the loop; the disarmed path costs one
  // thread-local read per solve (this is the symmetric hot path).
  support::Telemetry* telemetry = support::current_telemetry();
  if (telemetry != nullptr && !telemetry->probe.armed()) telemetry = nullptr;
  const std::uint64_t solve_id =
      telemetry != nullptr ? telemetry->probe.next_solve_id() : 0;
  support::prof::ThreadWorkBlock* work = support::prof::current_block();
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    result.iterations = iteration + 1;
    if (work != nullptr) {
      // One symmetric sweep = one representative best response + one
      // stopping-rule evaluation.
      work->add(support::prof::WorkField::kSweeps, 1);
      work->add(support::prof::WorkField::kBestResponseEvals, 1);
      work->add(support::prof::WorkField::kConvergenceChecks, 1);
    }
    const double others_edge = (dn - 1.0) * current.edge;
    const double others_grand = others_edge + (dn - 1.0) * current.cloud;
    const MinerRequest response =
        best_response_kernel(env, budget, others_edge, others_grand);
    const double change = std::max(std::abs(response.edge - current.edge),
                                   std::abs(response.cloud - current.cloud));
    current.edge = (1.0 - options.damping) * current.edge +
                   options.damping * response.edge;
    current.cloud = (1.0 - options.damping) * current.cloud +
                    options.damping * response.cloud;
    if (telemetry != nullptr) {
      support::IterationProbe::Record record;
      record.solver = "symmetric.fixed_point";
      record.solve = solve_id;
      record.iteration = result.iterations;
      record.residual = change;
      record.tolerance = options.tolerance;
      record.price_edge = prices.edge;
      record.price_cloud = prices.cloud;
      record.total_edge = dn * current.edge;
      record.total_cloud = dn * current.cloud;
      record.step = surcharge;
      record.cap_active = surcharge > 0.0;
      telemetry->probe.record(record);
    }
    if (change < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.request = current;
  result.surcharge = surcharge;
  return result;
}

MinerRequest symmetric_seed(const Prices& prices, double budget) {
  return {0.25 * budget / prices.edge, 0.25 * budget / prices.cloud};
}

/// Confirms a closed-form candidate is a symmetric fixed point of the best
/// response; returns the finished equilibrium when it checks out.
std::optional<SymmetricEquilibrium> verify_symmetric_candidate(
    const NetworkParams& params, const Prices& prices, double budget, int n,
    double edge_success, double surcharge, const MinerRequest& candidate) {
  if (candidate.edge < 0.0 || candidate.cloud < 0.0) return std::nullopt;
  if (request_cost(candidate, prices) > budget * (1.0 + 1e-9))
    return std::nullopt;
  MinerEnv env;
  env.reward = params.reward;
  env.fork_rate = params.fork_rate;
  env.edge_success = edge_success;
  env.prices = prices;
  env.edge_surcharge = surcharge;
  env.budget = budget;
  env.others = {(static_cast<double>(n) - 1.0) * candidate.edge,
                (static_cast<double>(n) - 1.0) * candidate.cloud};
  const MinerRequest response = miner_best_response(env);
  const double scale = 1.0 + candidate.total();
  if (std::abs(response.edge - candidate.edge) > 1e-7 * scale ||
      std::abs(response.cloud - candidate.cloud) > 1e-7 * scale)
    return std::nullopt;
  SymmetricEquilibrium equilibrium;
  equilibrium.request = candidate;
  equilibrium.surcharge = surcharge;
  equilibrium.converged = true;
  equilibrium.iterations = 0;
  return equilibrium;
}

/// Closed-form candidate for the connected-mode symmetric NE, covering the
/// mixed (Thm 3 / Cor 1) and edge-only price regions.
std::optional<SymmetricEquilibrium> try_connected_closed_form(
    const NetworkParams& params, const Prices& prices, double budget, int n) {
  const double bound = mixed_strategy_cloud_price_bound(params, prices.edge);
  MinerRequest candidate;
  if (prices.edge > prices.cloud && prices.cloud < bound * (1.0 - 1e-9)) {
    candidate = homogeneous_connected_request(params, prices, budget, n);
  } else {
    candidate = homogeneous_edge_only_request(params, prices, budget, n);
  }
  return verify_symmetric_candidate(params, prices, budget, n,
                                    params.edge_success, 0.0, candidate);
}

/// Closed-form candidate for the standalone symmetric variational
/// equilibrium with sufficient budgets (Table II), cap-aware. Handles
/// P_e <= P_c through the cap (unconstrained edge demand is unbounded, so
/// the cap certainly binds and the effective price is set by capacity).
std::optional<SymmetricEquilibrium> try_standalone_closed_form(
    const NetworkParams& params, const Prices& prices, double budget, int n) {
  const double beta = params.fork_rate;
  const double dn = static_cast<double>(n);
  const double demand_scale = params.reward * (dn - 1.0) / dn;
  const double s_total = (1.0 - beta) * demand_scale / prices.cloud;
  double e_total = std::numeric_limits<double>::infinity();
  if (prices.edge > prices.cloud)
    e_total = beta * demand_scale / (prices.edge - prices.cloud);
  double surcharge = 0.0;
  bool cap_active = false;
  if (e_total > params.edge_capacity) {
    cap_active = true;
    e_total = params.edge_capacity;
    const double effective_edge_price =
        prices.cloud + beta * demand_scale / params.edge_capacity;
    surcharge = effective_edge_price - prices.edge;
    if (surcharge < 0.0) return std::nullopt;  // inconsistent region
  }
  if (s_total < e_total) {
    // Edge-only regime (cloud priced out): symmetric Tullock over edge
    // units with prize R, cap-aware.
    double e_only = params.reward * (dn - 1.0) / (dn * dn * prices.edge);
    double mu = 0.0;
    bool only_cap = false;
    if (dn * e_only > params.edge_capacity) {
      only_cap = true;
      e_only = params.edge_capacity / dn;
      const double effective =
          params.reward * (dn - 1.0) / (dn * params.edge_capacity);
      mu = effective - prices.edge;
      if (mu < 0.0) return std::nullopt;
    }
    auto verified = verify_symmetric_candidate(params, prices, budget, n, 1.0,
                                               mu, {e_only, 0.0});
    if (verified) verified->cap_active = only_cap;
    return verified;
  }
  const MinerRequest candidate{e_total / dn, (s_total - e_total) / dn};
  auto verified = verify_symmetric_candidate(params, prices, budget, n, 1.0,
                                             surcharge, candidate);
  if (verified) verified->cap_active = cap_active;
  return verified;
}

}  // namespace

SymmetricEquilibrium solve_symmetric_connected(const NetworkParams& params,
                                               const Prices& prices,
                                               double budget, int n,
                                               const MinerSolveOptions& options) {
  check_inputs(params, prices, {budget});
  HECMINE_REQUIRE(n >= 2, "solve_symmetric_connected requires n >= 2");
  // Fast path: the closed forms of Sec. IV-B cover most of the price plane;
  // each candidate is verified as an actual best-response fixed point.
  if (const auto closed = try_connected_closed_form(params, prices, budget, n))
    return *closed;
  return symmetric_fixed_point(params, prices, budget, n, params.edge_success,
                               0.0, options, symmetric_seed(prices, budget));
}

SymmetricEquilibrium solve_symmetric_standalone(const NetworkParams& params,
                                                const Prices& prices,
                                                double budget, int n,
                                                const MinerSolveOptions& options) {
  check_inputs(params, prices, {budget});
  HECMINE_REQUIRE(n >= 2, "solve_symmetric_standalone requires n >= 2");
  // Fast path: Table II's sufficient-budget closed form, verified.
  if (const auto closed = try_standalone_closed_form(params, prices, budget, n))
    return *closed;
  const double dn = static_cast<double>(n);
  const double cap_per_miner = params.edge_capacity / dn;
  MinerRequest seed = symmetric_seed(prices, budget);
  seed.edge = std::min(seed.edge, 0.5 * cap_per_miner);

  auto at_surcharge = [&](double mu) {
    if (auto* work = support::prof::current_block(); work != nullptr)
      work->add(support::prof::WorkField::kBisectionIters, 1);
    auto fp = symmetric_fixed_point(params, prices, budget, n, 1.0, mu,
                                    options, seed);
    seed = fp.request;  // warm start the next bisection step
    return fp;
  };

  auto unconstrained = at_surcharge(0.0);
  const double tol = 1e-9 * (1.0 + cap_per_miner);
  if (unconstrained.request.edge <= cap_per_miner + tol) {
    unconstrained.cap_active = unconstrained.request.edge >= cap_per_miner - tol;
    return unconstrained;
  }

  // Cap binds: bisect the common surcharge to complementarity. Seed the
  // bracket from the sufficient-budget analytic multiplier so the
  // expansion loop rarely runs.
  const double analytic_mu =
      prices.cloud +
      params.fork_rate * params.reward * (dn - 1.0) /
          (dn * params.edge_capacity) -
      prices.edge;
  double lo = 0.0;
  double hi = std::max(0.25 * prices.edge, 2.0 * std::max(analytic_mu, 0.0));
  bool converged = unconstrained.converged;
  for (int expansion = 0; expansion < 80; ++expansion) {
    const auto at_hi = at_surcharge(hi);
    converged = converged && at_hi.converged;
    if (at_hi.request.edge <= cap_per_miner) break;
    lo = hi;
    hi *= 2.0;
    HECMINE_REQUIRE(hi < 1e30, "solve_symmetric_standalone: surcharge blowup");
  }
  SymmetricEquilibrium last;
  for (int step = 0; step < 200; ++step) {
    const double mid = 0.5 * (lo + hi);
    last = at_surcharge(mid);
    converged = converged && last.converged;
    if (std::abs(last.request.edge - cap_per_miner) <= tol) {
      lo = hi = mid;
      break;
    }
    if (last.request.edge > cap_per_miner)
      lo = mid;
    else
      hi = mid;
    if (hi - lo <= 1e-14 * (1.0 + hi)) break;
  }
  last = at_surcharge(0.5 * (lo + hi));
  last.cap_active = true;
  last.converged = converged && last.converged;
  return last;
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

#include "core/audit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "core/closed_forms.hpp"
#include "core/miner.hpp"
#include "core/sp.hpp"
#include "numerics/vi.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

namespace {

/// Stacked negated-utility-gradient pseudo-gradient F of the follower game
/// (the operator whose monotonicity is the Theorem-2 / Theorem-5
/// uniqueness condition), over the flat layout [e_0, c_0, e_1, c_1, ...].
/// `rest` carries the fixed aggregate of any miners outside the audited
/// subset (zero when the subset is the whole pool), so the sampled audit
/// probes monotonicity of the sub-game with the remainder frozen.
std::vector<double> pseudo_gradient(const NetworkParams& params,
                                    const Prices& prices,
                                    const std::vector<double>& budgets,
                                    double edge_success,
                                    const std::vector<double>& flat,
                                    const Totals& rest) {
  const std::size_t n = budgets.size();
  std::vector<double> f(flat.size());
  Totals totals = rest;
  for (std::size_t i = 0; i < n; ++i) {
    totals.edge += flat[2 * i];
    totals.cloud += flat[2 * i + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    MinerEnv env;
    env.reward = params.reward;
    env.fork_rate = params.fork_rate;
    env.edge_success = edge_success;
    env.prices = prices;
    env.budget = budgets[i];
    env.others = {totals.edge - flat[2 * i], totals.cloud - flat[2 * i + 1]};
    const auto [du_de, du_dc] =
        miner_utility_gradient(env, {flat[2 * i], flat[2 * i + 1]});
    f[2 * i] = -du_de;
    f[2 * i + 1] = -du_dc;
  }
  return f;
}

/// Deterministic sampling cloud around the equilibrium for the empirical
/// monotonicity quotient. All coordinates stay strictly positive (the
/// gradient needs E > 0).
std::vector<std::vector<double>> sample_cloud(const std::vector<double>& base,
                                              int samples, double scale,
                                              std::uint64_t seed) {
  constexpr double kFloor = 1e-9;
  std::vector<std::vector<double>> points;
  points.reserve(static_cast<std::size_t>(samples) + 1);
  std::vector<double> origin = base;
  for (double& x : origin) x = std::max(x, kFloor);
  points.push_back(origin);
  support::Rng rng(seed);
  double mean = 0.0;
  for (double x : base) mean += x;
  mean = base.empty() ? 1.0 : mean / static_cast<double>(base.size());
  for (int s = 0; s < samples; ++s) {
    std::vector<double> point = origin;
    for (double& x : point) {
      const double radius = scale * (x + 0.01 * (1.0 + mean));
      x = std::max(kFloor, x + rng.uniform(-radius, radius));
    }
    points.push_back(std::move(point));
  }
  return points;
}

/// Totals recomputed from the profile's own requests (the auditor never
/// trusts solver-reported aggregates); O(K) for class-shaped profiles,
/// O(N) dense.
Totals recompute_totals(const EquilibriumProfile& profile) {
  HECMINE_REQUIRE(!profile.requests.empty(), "audit_equilibrium: empty profile");
  if (profile.class_shaped()) {
    Totals totals;
    for (std::size_t k = 0; k < profile.requests.size(); ++k) {
      const double nk = static_cast<double>(profile.classes->counts[k]);
      totals.edge += nk * profile.requests[k].edge;
      totals.cloud += nk * profile.requests[k].cloud;
    }
    return totals;
  }
  return aggregate(profile.requests);
}

}  // namespace

AuditReport audit_equilibrium(const Scenario& scenario, const Prices& prices,
                              const EquilibriumProfile& profile,
                              const AuditOptions& options) {
  HECMINE_REQUIRE(!scenario.population.has_value(),
                  "audit_equilibrium: population scenarios have no fixed "
                  "miner set to audit");
  HECMINE_REQUIRE(profile.miner_count == scenario.miners(),
                  "audit_equilibrium: profile/scenario miner count mismatch");
  HECMINE_REQUIRE(options.price_step > 0.0,
                  "audit_equilibrium: price_step must be positive");
  const NetworkParams& params = scenario.params;
  const bool connected = scenario.mode == EdgeMode::kConnected;

  AuditReport report;
  report.converged = profile.converged;
  report.iterations = profile.iterations;
  report.residual = profile.residual;

  const std::size_t n = static_cast<std::size_t>(profile.miner_count);
  const Totals totals = recompute_totals(profile);
  const double h = connected ? params.edge_success : 1.0;

  // Audited subset: every miner by default; an evenly spaced deterministic
  // sample when max_audited_miners caps the walk (even spacing visits every
  // budget class of a class-shaped profile once the cap exceeds K).
  const bool subset = options.max_audited_miners > 0 &&
                      n > static_cast<std::size_t>(options.max_audited_miners);
  std::vector<std::size_t> audited;
  if (subset) {
    const std::size_t m =
        static_cast<std::size_t>(options.max_audited_miners);
    audited.reserve(m);
    for (std::size_t j = 0; j < m; ++j) audited.push_back(j * n / m);
  } else {
    audited.resize(n);
    for (std::size_t i = 0; i < n; ++i) audited[i] = i;
  }

  // Exploitability: the best-response-gap certificate, computed from the
  // primitives rather than the solver's converged flag. Each audited miner
  // deviates against the full pool (opponent aggregates include the
  // unsampled remainder), in the surcharge-penalized game like
  // miner_exploitability.
  report.best_response_gap = 0.0;
  report.budget_slack.resize(audited.size());
  report.min_budget_slack = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < audited.size(); ++j) {
    const std::size_t i = audited[j];
    const MinerRequest& own = profile.request(i);
    MinerEnv env;
    env.reward = params.reward;
    env.fork_rate = params.fork_rate;
    env.edge_success = h;
    env.prices = prices;
    env.edge_surcharge = profile.surcharge;
    env.budget = scenario.budgets[i];
    env.others = {std::max(0.0, totals.edge - own.edge),
                  std::max(0.0, totals.cloud - own.cloud)};
    const double current = miner_penalized_utility(env, own);
    const double best = miner_penalized_utility(env, miner_best_response(env));
    report.best_response_gap =
        std::max(report.best_response_gap, best - current);
    report.budget_slack[j] = scenario.budgets[i] - request_cost(own, prices);
    report.min_budget_slack =
        std::min(report.min_budget_slack, report.budget_slack[j]);
  }

  report.capacity_violation =
      connected ? 0.0
                : std::max(0.0, totals.edge - params.edge_capacity);

  // Theorem-2 / Theorem-5 uniqueness condition: strict monotonicity of the
  // pseudo-gradient, probed empirically on a cloud around the point. Under
  // a sampled audit the cloud perturbs only the audited miners; the frozen
  // remainder enters through its fixed aggregate.
  std::vector<double> flat(2 * audited.size());
  std::vector<double> audited_budgets(audited.size());
  Totals rest = totals;
  for (std::size_t j = 0; j < audited.size(); ++j) {
    const MinerRequest& own = profile.request(audited[j]);
    flat[2 * j] = own.edge;
    flat[2 * j + 1] = own.cloud;
    audited_budgets[j] = scenario.budgets[audited[j]];
    rest.edge -= own.edge;
    rest.cloud -= own.cloud;
  }
  if (!subset) rest = {0.0, 0.0};
  rest.edge = std::max(0.0, rest.edge);
  rest.cloud = std::max(0.0, rest.cloud);
  const auto map = [&](const std::vector<double>& point) {
    return pseudo_gradient(params, prices, audited_budgets, h, point, rest);
  };
  const auto points =
      sample_cloud(flat, std::max(1, options.monotonicity_samples),
                   options.perturbation_scale, options.context.rng_root);
  report.monotonicity_quotient = num::monotonicity_quotient(map, points);
  report.uniqueness_ok = report.monotonicity_quotient > 0.0;

  report.mixed_price_condition =
      connected &&
      prices.cloud < mixed_strategy_cloud_price_bound(params, prices.edge);

  // Leader optimality gap: each SP scales its own price by (1 +/- step)
  // and the followers re-solve; any profit improvement bounds how far the
  // prices sit from a leader-stage best response at this scale.
  const auto oracle = make_follower_oracle(params, scenario.budgets,
                                           scenario.mode, options.context);
  const SpProfits base = sp_profits(params, prices, totals);
  const auto profit_at = [&](const Prices& candidate) {
    return sp_profits(params, candidate, oracle->solve(candidate).totals);
  };
  for (double factor :
       {1.0 + options.price_step, 1.0 / (1.0 + options.price_step)}) {
    Prices edge_probe = prices;
    edge_probe.edge *= factor;
    if (edge_probe.edge > 0.0)
      report.leader_gap_edge = std::max(
          report.leader_gap_edge, profit_at(edge_probe).edge - base.edge);
    Prices cloud_probe = prices;
    cloud_probe.cloud *= factor;
    if (cloud_probe.cloud > 0.0)
      report.leader_gap_cloud = std::max(
          report.leader_gap_cloud, profit_at(cloud_probe).cloud - base.cloud);
  }
  return report;
}

double worst_violation(const AuditReport& report) {
  return std::max({report.best_response_gap, report.capacity_violation,
                   std::max(0.0, -report.min_budget_slack)});
}

void record_audit(support::Telemetry& telemetry, const AuditReport& report) {
  support::MetricsRegistry& metrics = telemetry.metrics;
  metrics.gauge("audit.best_response_gap").set(report.best_response_gap);
  metrics.gauge("audit.min_budget_slack").set(report.min_budget_slack);
  metrics.gauge("audit.capacity_violation").set(report.capacity_violation);
  metrics.gauge("audit.monotonicity_quotient")
      .set(report.monotonicity_quotient);
  metrics.gauge("audit.uniqueness_ok").set(report.uniqueness_ok ? 1.0 : 0.0);
  metrics.gauge("audit.mixed_price_condition")
      .set(report.mixed_price_condition ? 1.0 : 0.0);
  metrics.gauge("audit.leader_gap_edge").set(report.leader_gap_edge);
  metrics.gauge("audit.leader_gap_cloud").set(report.leader_gap_cloud);
  metrics.gauge("audit.converged").set(report.converged ? 1.0 : 0.0);
}

void print_audit(std::ostream& os, const AuditReport& report) {
  support::Table table("audit metric", {"value"});
  table.add_row("best_response_gap", {report.best_response_gap});
  table.add_row("min_budget_slack", {report.min_budget_slack});
  table.add_row("capacity_violation", {report.capacity_violation});
  table.add_row("monotonicity_quotient", {report.monotonicity_quotient});
  table.add_row("uniqueness_ok", {report.uniqueness_ok ? 1.0 : 0.0});
  table.add_row("mixed_price_condition",
                {report.mixed_price_condition ? 1.0 : 0.0});
  table.add_row("leader_gap_edge", {report.leader_gap_edge});
  table.add_row("leader_gap_cloud", {report.leader_gap_cloud});
  table.add_row("solver_converged", {report.converged ? 1.0 : 0.0});
  table.add_row("solver_iterations",
                {static_cast<double>(report.iterations)});
  table.add_row("solver_residual", {report.residual});
  support::print_section(os, "equilibrium audit");
  table.print(os, 6);
}

}  // namespace hecmine::core

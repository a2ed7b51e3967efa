#include "core/closed_forms.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/poly.hpp"
#include "support/error.hpp"

namespace hecmine::core {

namespace {

void check_common(const NetworkParams& params, const Prices& prices, int n) {
  params.validate();
  HECMINE_REQUIRE(n >= 2, "homogeneous closed forms require n >= 2");
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "homogeneous closed forms require positive prices");
}

void check_mixed_condition(const NetworkParams& params, const Prices& prices,
                           double h) {
  HECMINE_REQUIRE(prices.edge > prices.cloud,
                  "mixed-strategy closed form requires P_e > P_c");
  const double bound = (1.0 - params.fork_rate) * prices.edge /
                       (1.0 - params.fork_rate + h * params.fork_rate);
  HECMINE_REQUIRE(prices.cloud < bound,
                  "mixed-strategy closed form requires "
                  "P_c < (1-beta) P_e / (1-beta+h beta)");
}

}  // namespace

double mixed_strategy_cloud_price_bound(const NetworkParams& params,
                                        double price_edge) {
  params.validate();
  HECMINE_REQUIRE(price_edge > 0.0, "price_edge must be positive");
  const double h = params.edge_success;
  return (1.0 - params.fork_rate) * price_edge /
         (1.0 - params.fork_rate + h * params.fork_rate);
}

double homogeneous_budget_threshold(const NetworkParams& params, int n) {
  params.validate();
  HECMINE_REQUIRE(n >= 2, "homogeneous_budget_threshold requires n >= 2");
  const double h = params.edge_success;
  const double beta = params.fork_rate;
  const double dn = static_cast<double>(n);
  return params.reward * (dn - 1.0) * (1.0 - beta + h * beta) / (dn * dn);
}

MinerRequest homogeneous_binding_request(const NetworkParams& params,
                                         const Prices& prices, double budget,
                                         int n) {
  check_common(params, prices, n);
  HECMINE_REQUIRE(budget > 0.0, "Theorem 3 requires a positive budget");
  const double h = params.edge_success;
  check_mixed_condition(params, prices, h);
  const double beta = params.fork_rate;
  const double denom = (1.0 - beta + beta * h) * (prices.edge - prices.cloud);
  MinerRequest request;
  request.edge = budget * beta * h / denom;
  request.cloud = budget *
                  ((1.0 - beta) * (prices.edge - prices.cloud) -
                   beta * h * prices.cloud) /
                  (prices.cloud * denom);
  return request;
}

MinerRequest homogeneous_sufficient_request(const NetworkParams& params,
                                            const Prices& prices, int n) {
  check_common(params, prices, n);
  const double h = params.edge_success;
  check_mixed_condition(params, prices, h);
  const double beta = params.fork_rate;
  const double dn = static_cast<double>(n);
  const double scale = params.reward * (dn - 1.0) / (dn * dn);
  MinerRequest request;
  request.edge = scale * h * beta / (prices.edge - prices.cloud);
  request.cloud = scale *
                  ((1.0 - beta) * (prices.edge - prices.cloud) -
                   h * beta * prices.cloud) /
                  (prices.cloud * (prices.edge - prices.cloud));
  return request;
}

MinerRequest homogeneous_connected_request(const NetworkParams& params,
                                           const Prices& prices, double budget,
                                           int n) {
  check_common(params, prices, n);
  HECMINE_REQUIRE(budget > 0.0,
                  "homogeneous_connected_request requires a positive budget");
  if (budget >= homogeneous_budget_threshold(params, n))
    return homogeneous_sufficient_request(params, prices, n);
  return homogeneous_binding_request(params, prices, budget, n);
}

MinerRequest homogeneous_edge_only_request(const NetworkParams& params,
                                           const Prices& prices, double budget,
                                           int n) {
  check_common(params, prices, n);
  HECMINE_REQUIRE(budget > 0.0,
                  "homogeneous_edge_only_request requires a positive budget");
  const double beta = params.fork_rate;
  const double prize =
      params.reward * (1.0 - beta + params.edge_success * beta);
  const double dn = static_cast<double>(n);
  const double tullock = prize * (dn - 1.0) / (dn * dn * prices.edge);
  return {std::min(tullock, budget / prices.edge), 0.0};
}

StandaloneSufficientEquilibrium standalone_sufficient_request(
    const NetworkParams& params, const Prices& prices, int n) {
  check_common(params, prices, n);
  HECMINE_REQUIRE(prices.edge > prices.cloud,
                  "standalone closed form requires P_e > P_c");
  const double beta = params.fork_rate;
  const double dn = static_cast<double>(n);
  const double edge_demand_unconstrained =
      beta * params.reward * (dn - 1.0) / (dn * (prices.edge - prices.cloud));
  // The grand-total FOC depends only on P_c, so S is unaffected by the cap:
  // S = (1-beta) R (n-1) / (n P_c).
  const double s_total =
      (1.0 - beta) * params.reward * (dn - 1.0) / (dn * prices.cloud);

  StandaloneSufficientEquilibrium equilibrium;
  double e_total = edge_demand_unconstrained;
  if (e_total > params.edge_capacity) {
    equilibrium.cap_active = true;
    e_total = params.edge_capacity;
    const double effective_edge_price =
        prices.cloud +
        beta * params.reward * (dn - 1.0) / (dn * params.edge_capacity);
    equilibrium.surcharge = effective_edge_price - prices.edge;
    HECMINE_REQUIRE(equilibrium.surcharge >= -1e-12,
                    "standalone closed form: inconsistent surcharge");
    equilibrium.surcharge = std::max(0.0, equilibrium.surcharge);
  }
  HECMINE_REQUIRE(s_total >= e_total,
                  "standalone closed form: mixed condition violated "
                  "(cloud demand would be negative)");
  equilibrium.request.edge = e_total / dn;
  equilibrium.request.cloud = (s_total - e_total) / dn;
  return equilibrium;
}

StandaloneSpClosedForm standalone_sp_closed_form(const NetworkParams& params,
                                                 int n) {
  params.validate();
  HECMINE_REQUIRE(n >= 2, "standalone_sp_closed_form requires n >= 2");
  const double beta = params.fork_rate;
  const double dn = static_cast<double>(n);
  const double demand_scale = params.reward * (dn - 1.0) / dn;

  StandaloneSpClosedForm closed;
  closed.prices.cloud = std::sqrt(params.cost_cloud * (1.0 - beta) *
                                  demand_scale / params.edge_capacity);
  closed.prices.edge =
      closed.prices.cloud + beta * demand_scale / params.edge_capacity;
  const double s_total = (1.0 - beta) * demand_scale / closed.prices.cloud;
  const double cloud_units = s_total - params.edge_capacity;
  closed.profit_edge =
      (closed.prices.edge - params.cost_edge) * params.edge_capacity;
  closed.profit_cloud = (closed.prices.cloud - params.cost_cloud) * cloud_units;
  closed.valid = cloud_units > 0.0 && closed.prices.cloud > params.cost_cloud &&
                 closed.prices.edge > params.cost_edge;
  return closed;
}

namespace {

/// Admissible root of the connected CSP first-order condition at edge
/// success h (see csp_reaction_sufficient_closed); negative when none.
double connected_reaction_root(const NetworkParams& params, double h,
                               double price_edge) {
  const double a = 1.0 - params.fork_rate;
  const double b = h * params.fork_rate;
  const double cost = params.cost_cloud;
  const double pe = price_edge;

  // V_c(x) ∝ f(x)/g(x) with
  //   f(x) = (x - C)(a pe - (a+b)x) = f0 + f1 x + f2 x^2,
  //   g(x) = x (pe - x).
  // FOC f' g - f g' = 0: the cubic terms cancel for this pair, leaving
  //   (f1 + f2 pe) x^2 + 2 f0 x - f0 pe = 0.
  const double f0 = -cost * a * pe;
  const double f1 = a * pe + (a + b) * cost;
  const double f2 = -(a + b);
  const auto roots =
      num::solve_quadratic(f1 + f2 * pe, 2.0 * f0, -f0 * pe);

  const double hi = std::min(pe, a * pe / (a + b));  // mixed-strategy bound
  for (double root : roots) {
    if (root > cost && root < hi) return root;
  }
  return -1.0;
}

}  // namespace

double csp_reaction_sufficient_closed(const NetworkParams& params,
                                      double price_edge) {
  params.validate();
  HECMINE_REQUIRE(price_edge > 0.0,
                  "csp_reaction_sufficient_closed: price_edge > 0");
  return connected_reaction_root(params, params.edge_success, price_edge);
}

StandaloneCspCandidates csp_reaction_standalone_closed(
    const NetworkParams& params, double budget, int n, double price_edge,
    double lo, double hi) {
  params.validate();
  HECMINE_REQUIRE(n >= 2, "csp_reaction_standalone_closed requires n >= 2");
  HECMINE_REQUIRE(price_edge > 0.0,
                  "csp_reaction_standalone_closed: price_edge > 0");
  HECMINE_REQUIRE(lo <= hi, "csp_reaction_standalone_closed: lo <= hi");
  StandaloneCspCandidates candidates;
  const double dn = static_cast<double>(n);
  const double demand = params.reward * (dn - 1.0) / dn;  // D
  if (budget < demand / dn) return candidates;  // R(n-1)/n^2: budgets bind
  const double total = (1.0 - params.fork_rate) * demand;  // K
  const double cost = params.cost_cloud;
  const double cap = params.edge_capacity;
  const double kink = price_edge - params.fork_rate * demand / cap;  // x_k

  if (kink >= lo) {
    const double peak = connected_reaction_root(params, 1.0, price_edge);
    candidates.slack = std::clamp(peak > 0.0 ? std::min(peak, kink) : kink,
                                  lo, std::min(kink, hi));
  }
  const double from = std::max({kink, cost, lo});
  const double to = std::min(total / cap, hi);  // x_end
  if (from <= to)
    candidates.binding = std::clamp(std::sqrt(total * cost / cap), from, to);
  return candidates;
}

}  // namespace hecmine::core

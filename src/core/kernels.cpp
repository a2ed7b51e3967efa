#include "core/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/miner.hpp"
#include "support/error.hpp"

namespace hecmine::core {

KernelEnv make_kernel_env(const NetworkParams& params, const Prices& prices,
                          double edge_success, double surcharge) {
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "KernelEnv: prices must be positive");
  HECMINE_REQUIRE(edge_success > 0.0 && edge_success <= 1.0,
                  "KernelEnv: edge_success must be in (0, 1]");
  HECMINE_REQUIRE(surcharge >= 0.0, "KernelEnv: surcharge must be >= 0");
  params.validate();
  KernelEnv env;
  env.reward = params.reward;
  env.fork_rate = params.fork_rate;
  env.edge_success = edge_success;
  env.price_edge = prices.edge;
  env.price_cloud = prices.cloud;
  return with_surcharge(env, surcharge);
}

KernelEnv make_kernel_env(const MinerEnv& env) {
  KernelEnv kernel;
  kernel.reward = env.reward;
  kernel.fork_rate = env.fork_rate;
  kernel.edge_success = env.edge_success;
  kernel.price_edge = env.prices.edge;
  kernel.price_cloud = env.prices.cloud;
  return with_surcharge(kernel, env.edge_surcharge);
}

KernelEnv with_surcharge(KernelEnv env, double surcharge) {
  env.surcharge = surcharge;
  // Expression order mirrors miner_interior_point so the interior
  // candidate below is bitwise-identical to the legacy one.
  env.effective_edge_price = env.price_edge + env.surcharge;
  env.share_coeff = env.reward * (1.0 - env.fork_rate);
  env.edge_coeff = env.reward * env.fork_rate * env.edge_success;
  env.sigma1_sq =
      env.effective_edge_price > env.price_cloud
          ? env.edge_success * env.fork_rate * env.reward /
                (env.effective_edge_price - env.price_cloud)
          : 0.0;
  env.sigma2_sq = (1.0 - env.fork_rate) * env.reward / env.price_cloud;
  return env;
}

double utility_kernel(const KernelEnv& env, double e, double c,
                      double others_edge, double others_grand) {
  // Term-for-term mirror of miner_utility / win_probability so the scalar
  // wrapper in core/miner.cpp stays a bitwise-identical entry point.
  const double own_total = e + c;
  const double s = others_grand + own_total;
  double win = 0.0;
  if (s > 0.0) {
    win = (1.0 - env.fork_rate) * own_total / s;
    if (e > 0.0) {
      const double e_total = others_edge + e;
      win += env.fork_rate * env.edge_success * e / e_total;
    }
  }
  return env.reward * win - (env.price_edge * e + env.price_cloud * c);
}

double penalized_utility_kernel(const KernelEnv& env, double e, double c,
                                double others_edge, double others_grand) {
  return utility_kernel(env, e, c, others_edge, others_grand) -
         env.surcharge * e;
}

void gradient_kernel(const KernelEnv& env, double e, double c,
                     double others_edge, double others_grand, double& du_de,
                     double& du_dc) {
  const double s = others_grand + (e + c);
  const double share_term =
      env.reward * (1.0 - env.fork_rate) * others_grand / (s * s);
  double edge_term = 0.0;
  const double e_total = others_edge + e;
  if (e_total > 0.0) {
    edge_term = env.reward * env.fork_rate * env.edge_success * others_edge /
                (e_total * e_total);
  }
  du_de = share_term + edge_term - env.price_edge - env.surcharge;
  du_dc = share_term - env.price_cloud;
}

namespace {

/// Safeguarded Newton for the 1-D concave boundary problems: maximizes a
/// differentiable concave phi on [0, t_max] given phi' (g) and phi'' (h).
/// Monotone-decreasing g makes the bracket exact; Newton steps that leave
/// it fall back to bisection. Converges to ~machine precision in a handful
/// of ~10-flop iterations (the legacy golden section took ~60 objective
/// evaluations through std::function to reach 1e-12).
template <typename DerivFn>
double concave_newton_argmax(double t_max, DerivFn&& deriv) {
  double g;
  double h;
  deriv(0.0, g, h);
  if (!(g > 0.0)) return 0.0;  // decreasing from the start: corner at 0
  deriv(t_max, g, h);
  if (!(g < 0.0)) return t_max;  // still increasing at the cap
  double lo = 0.0;
  double hi = t_max;
  double t = 0.5 * (lo + hi);
  for (int iteration = 0; iteration < 200; ++iteration) {
    deriv(t, g, h);
    if (g == 0.0) break;
    if (g > 0.0)
      lo = t;
    else
      hi = t;
    double next = h < 0.0 ? t - g / h : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    const double step = std::abs(next - t);
    t = next;
    if (step <= 1e-15 * (1.0 + std::abs(t))) break;
    if (hi - lo <= 1e-15 * (1.0 + hi)) break;
  }
  return t;
}

/// Golden-section fallback for the degenerate discontinuous cases
/// (opponents with zero edge demand but a live edge bonus). Mirrors
/// num::golden_section_maximize + the legacy maximize_on_segment tolerances
/// exactly, with the objective inlined (no std::function).
template <typename ObjectiveFn>
double golden_argmax(double lo, double hi, ObjectiveFn&& f) {
  if (hi <= lo) return lo;
  const double tolerance = 1e-12 * (1.0 + hi - lo);
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  double a = lo;
  double b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int iteration = 0; iteration < 400 && (b - a) > tolerance;
       ++iteration) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    }
  }
  double best_t = f1 >= f2 ? x1 : x2;
  double best_value = std::max(f1, f2);
  const double f_lo = f(lo);
  const double f_hi = f(hi);
  if (f_lo > best_value) {
    best_value = f_lo;
    best_t = lo;
  }
  if (f_hi > best_value) best_t = hi;
  return best_t;
}

}  // namespace

MinerRequest best_response_kernel(const KernelEnv& env, double budget,
                                  double others_edge, double others_grand) {
  if (budget <= 0.0) return {0.0, 0.0};
  const double max_edge = budget / env.price_edge;
  const double max_cloud = budget / env.price_cloud;

  // Degenerate opponents: the supremum is approached as the request shrinks
  // to zero, where the contest share jumps (epsilon-BR; see
  // miner_best_response's contract).
  if (others_grand <= 0.0) {
    const double probe = std::min(1e-6, 0.5 * max_edge);
    return {probe, 0.0};
  }

  // 1. Interior stationary point (Eq. 14 with lambda = 0). The penalized
  // objective is jointly concave on the budget polytope, so a feasible
  // interior stationary point IS the global best response — no boundary
  // search needed. Arithmetic mirrors miner_interior_point bit for bit.
  if (env.effective_edge_price > env.price_cloud && others_edge > 0.0) {
    const double e_total = std::sqrt(env.sigma1_sq * others_edge);
    const double s_total = std::sqrt(env.sigma2_sq * others_grand);
    MinerRequest interior;
    interior.edge = e_total - others_edge;
    interior.cloud = s_total - others_grand - interior.edge;
    if (interior.edge >= 0.0 && interior.cloud >= 0.0 &&
        env.price_edge * interior.edge + env.price_cloud * interior.cloud <=
            budget) {
      return interior;
    }
  }

  const double og = others_grand;
  const double oe = others_edge;
  const double A = env.share_coeff;
  const double H = env.edge_coeff;
  const bool edge_term = H > 0.0 && oe > 0.0;

  MinerRequest line_candidate;
  MinerRequest edge_candidate;
  if (H > 0.0 && oe <= 0.0) {
    // Opponents request no edge units but the edge bonus is live: the
    // objective jumps at e = 0, so the smooth Newton solvers don't apply
    // on the e-segments. Keep the legacy golden-section search (cold path:
    // iterates only hit it when opponents sit exactly on the cloud axis).
    const double le = golden_argmax(0.0, max_edge, [&](double e) {
      const double c = (budget - env.price_edge * e) / env.price_cloud;
      return penalized_utility_kernel(env, e, std::max(c, 0.0), oe, og);
    });
    const double lc = (budget - env.price_edge * le) / env.price_cloud;
    line_candidate = {le, std::max(lc, 0.0)};
    edge_candidate = {golden_argmax(0.0, max_edge,
                                    [&](double e) {
                                      return penalized_utility_kernel(
                                          env, e, 0.0, oe, og);
                                    }),
                      0.0};
  } else {
    // 2. Budget line P_e e + P_c c = B, parametrized by e in [0, B/P_e]:
    // own total T(e) = e + (B - P_e e)/P_c moves at T' = (P_c - P_e)/P_c
    // and the paid cost is constant, so only the surcharge survives in the
    // derivative.
    const double t_slope = (env.price_cloud - env.price_edge) / env.price_cloud;
    const double le = concave_newton_argmax(
        max_edge, [&](double e, double& g, double& h) {
          const double own_total =
              e + (budget - env.price_edge * e) / env.price_cloud;
          const double denom = og + own_total;
          const double share = A * og / (denom * denom);
          g = share * t_slope - env.surcharge;
          h = -2.0 * share * t_slope * t_slope / denom;
          if (edge_term) {
            const double ed = oe + e;
            g += H * oe / (ed * ed);
            h -= 2.0 * H * oe / (ed * ed * ed);
          }
        });
    const double lc = (budget - env.price_edge * le) / env.price_cloud;
    line_candidate = {le, std::max(lc, 0.0)};

    // 3. Edge axis (c = 0): phi'(e) = A S_{-i}/(S_{-i}+e)^2
    //                               + H E_{-i}/(E_{-i}+e)^2 - (P_e + mu).
    edge_candidate = {concave_newton_argmax(
                          max_edge,
                          [&](double e, double& g, double& h) {
                            const double denom = og + e;
                            g = A * og / (denom * denom) -
                                env.effective_edge_price;
                            h = -2.0 * A * og / (denom * denom * denom);
                            if (edge_term) {
                              const double ed = oe + e;
                              g += H * oe / (ed * ed);
                              h -= 2.0 * H * oe / (ed * ed * ed);
                            }
                          }),
                      0.0};
  }

  // 4. Cloud axis (e = 0): exact closed form of
  // d/dc [A c/(S_{-i}+c) - P_c c] = 0.
  const double cloud_star = std::sqrt(A * og / env.price_cloud) - og;
  const MinerRequest cloud_candidate{
      0.0, std::clamp(cloud_star, 0.0, max_cloud)};

  // Utility-maximal candidate against the origin baseline, in the legacy
  // evaluation order (line, edge axis, cloud axis; strict improvement).
  MinerRequest best{0.0, 0.0};
  double best_value = penalized_utility_kernel(env, 0.0, 0.0, oe, og);
  for (const MinerRequest& candidate :
       {line_candidate, edge_candidate, cloud_candidate}) {
    const double value = penalized_utility_kernel(env, candidate.edge,
                                                  candidate.cloud, oe, og);
    if (value > best_value) {
      best_value = value;
      best = candidate;
    }
  }
  return best;
}

namespace {

/// A contest term's marginal for one block member, and its slope.
struct Marginal {
  double value = 0.0;
  double slope = 0.0;
};

/// Marginal of one block member's contest term when all `members` play
/// the amount x against an outside total `rest`: with the block-inclusive
/// total T = rest + m x,
///   value = coeff (T - x) / T^2,   slope = coeff (2 m x - (m + 1) T) / T^3.
/// The slope is <= 0 for m >= 1, which is the concavity of the block
/// potential. At T = 0 the first unit takes the whole term, so the value
/// is +infinity.
Marginal block_marginal(double coeff, double rest, double members, double x) {
  const double total = rest + members * x;
  if (!(total > 0.0))
    return {coeff > 0.0 ? std::numeric_limits<double>::infinity() : 0.0, 0.0};
  return {coeff * (total - x) / (total * total),
          coeff * (2.0 * members * x - (members + 1.0) * total) /
              (total * total * total)};
}

/// Block-inclusive total T at which one contest term is stationary for all
/// members at once: T = sqrt(sigma^2 (T - x)) with T = rest + m x is a
/// quadratic in T (positive root taken); the member's amount is then
/// x = T - T^2 / sigma^2. m = 1 is the single-miner point
/// T = sqrt(sigma^2 rest).
double block_total(double sigma_sq, double rest, double members) {
  const double half = (members - 1.0) * sigma_sq / (2.0 * members);
  return half + std::sqrt(half * half + sigma_sq * rest / members);
}

}  // namespace

MinerRequest block_response_kernel(const KernelEnv& env, double budget,
                                   double members, double rest_edge,
                                   double rest_grand) {
  if (members <= 1.0)
    return best_response_kernel(env, budget, rest_edge, rest_grand);
  if (budget <= 0.0) return {0.0, 0.0};
  const double m = members;
  const double max_edge = budget / env.price_edge;
  const double A = env.share_coeff;
  const double H = env.edge_coeff;

  // 1. Interior: both contest terms stationary at once (Eq. 14 on the
  // block manifold). The potential is concave, so a feasible stationary
  // point is the answer.
  if (env.sigma1_sq > 0.0) {
    const double t_e = block_total(env.sigma1_sq, rest_edge, m);
    const double t_s = block_total(env.sigma2_sq, rest_grand, m);
    MinerRequest interior;
    interior.edge = t_e - t_e * t_e / env.sigma1_sq;
    interior.cloud = t_s - t_s * t_s / env.sigma2_sq - interior.edge;
    if (interior.edge >= 0.0 && interior.cloud >= 0.0 &&
        env.price_edge * interior.edge + env.price_cloud * interior.cloud <=
            budget)
      return interior;
  }

  // 2. Budget line, parametrized by e as in best_response_kernel: the
  // member total t(e) = e + (B - P_e e)/P_c moves at (P_c - P_e)/P_c.
  const double t_slope = (env.price_cloud - env.price_edge) / env.price_cloud;
  const auto line_total = [&](double e) {
    return e + (budget - env.price_edge * e) / env.price_cloud;
  };
  const double line_e = concave_newton_argmax(
      max_edge, [&](double e, double& g, double& h) {
        const Marginal share = block_marginal(A, rest_grand, m, line_total(e));
        const Marginal edge = block_marginal(H, rest_edge, m, e);
        g = share.value * t_slope + edge.value - env.surcharge;
        h = share.slope * t_slope * t_slope + edge.slope;
      });
  // The budget binds iff its multiplier is >= 0: lambda P_c is the cloud
  // marginal wherever c > 0 on the line, lambda P_e the edge marginal at
  // the line's edge end (c = 0).
  const double share_line =
      block_marginal(A, rest_grand, m, line_total(line_e)).value;
  const double budget_multiplier =
      line_e >= max_edge
          ? share_line + block_marginal(H, rest_edge, m, line_e).value -
                env.effective_edge_price
          : share_line - env.price_cloud;
  if (budget_multiplier >= 0.0)
    return {line_e, std::max(0.0, (budget - env.price_edge * line_e) /
                                      env.price_cloud)};

  // 3. Budget slack and no interior point: the optimum sits on an axis or
  // at the origin. The edge axis holds it iff the cloud marginal there is
  // <= 0.
  const double axis_e = concave_newton_argmax(
      max_edge, [&](double e, double& g, double& h) {
        const Marginal share = block_marginal(A, rest_grand, m, e);
        const Marginal edge = block_marginal(H, rest_edge, m, e);
        g = share.value + edge.value - env.effective_edge_price;
        h = share.slope + edge.slope;
      });
  if (block_marginal(A, rest_grand, m, axis_e).value <= env.price_cloud)
    return {axis_e, 0.0};

  // 4. Otherwise the cloud axis (the origin when its stationary point is
  // negative), in closed form.
  const double t_s = block_total(env.sigma2_sq, rest_grand, m);
  return {0.0, std::clamp(t_s - t_s * t_s / env.sigma2_sq, 0.0,
                          budget / env.price_cloud)};
}

}  // namespace hecmine::core

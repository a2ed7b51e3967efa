#include "core/sp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/closed_forms.hpp"
#include "game/stackelberg.hpp"
#include "numerics/optimize.hpp"
#include "numerics/roots.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

SpProfits sp_profits(const NetworkParams& params, const Prices& prices,
                     const Totals& totals) {
  params.validate();
  SpProfits profits;
  profits.edge = (prices.edge - params.cost_edge) * totals.edge;
  profits.cloud = (prices.cloud - params.cost_cloud) * totals.cloud;
  return profits;
}

namespace {

struct PriceBox {
  game::ActionBounds edge;
  game::ActionBounds cloud;
};

PriceBox price_box(const NetworkParams& params) {
  // Demand is ~R/n-scale per unit price gap, so prices beyond a few times
  // the cost plus a reward fraction sell nothing; keeping the box tight
  // keeps the scan resolution useful.
  const double ceiling =
      2.0 * std::max(params.cost_edge, params.cost_cloud) +
      0.5 * params.reward;
  PriceBox box;
  box.edge = {params.cost_edge * (1.0 + kPriceMargin) + 1e-9, ceiling};
  box.cloud = {params.cost_cloud * (1.0 + kPriceMargin) + 1e-9, ceiling};
  HECMINE_REQUIRE(box.edge.lo < box.edge.hi && box.cloud.lo < box.cloud.hi,
                  "SP solve: price ceiling below the cost floor");
  return box;
}

/// Leader-stage telemetry accessors: the phase trace and counters live in
/// the context's sink; absent sink = null trace (Scope no-ops) and no
/// counter touches.
support::SolveTrace* trace_of(const SolveContext& context) {
  return context.telemetry == nullptr ? nullptr : &context.telemetry->trace;
}

void count_leader_solve(const SolveContext& context) {
  if (context.telemetry != nullptr)
    context.telemetry->metrics.counter("sp.leader_solves").add();
}

void count_best_response_rounds(const SolveContext& context, int rounds) {
  if (context.telemetry != nullptr && rounds > 0)
    context.telemetry->metrics.counter("sp.best_response_rounds")
        .add(static_cast<std::uint64_t>(rounds));
  if (auto* work = support::prof::current_block();
      work != nullptr && rounds > 0)
    work->add(support::prof::WorkField::kConvergenceChecks,
              static_cast<std::uint64_t>(rounds));
}

/// One leader candidate evaluated (a price point priced through the
/// follower oracle into an SP profit).
void count_leader_eval() {
  if (auto* work = support::prof::current_block(); work != nullptr)
    work->add(support::prof::WorkField::kUtilityEvals, 1);
}

void count_sequential_fallback(const SolveContext& context) {
  if (context.telemetry != nullptr)
    context.telemetry->metrics.counter("sp.sequential_fallbacks").add();
}

/// Installs the context's sink as the issuing thread's telemetry for the
/// duration of a leader-stage entry point. The thread pool captures the
/// issuer's thread-local sink at dispatch time, so without this scope the
/// price-scan fan-outs would run untracked; a null sink installs nothing
/// (any outer scope stays in effect).
class StageTelemetryScope {
 public:
  explicit StageTelemetryScope(const SolveContext& context) {
    if (context.telemetry != nullptr) scope_.emplace(context.telemetry);
  }

 private:
  std::optional<support::TelemetryScope> scope_;
};

/// Finishes a leader-stage result from final prices. The result is
/// converged only when the leader step is (`leader_converged`: the price
/// scan converged, or the sequential construction ran) and the finishing
/// follower solve converged or passed its certificate.
LeaderStageResult finish_leader_stage(const NetworkParams& params,
                                      const FollowerOracle& oracle,
                                      const Prices& prices,
                                      bool leader_converged) {
  LeaderStageResult result;
  result.prices = prices;
  result.followers = oracle.solve(prices);
  result.profits = sp_profits(params, prices, result.followers.totals);
  result.converged = leader_converged && result.followers.converged;
  return result;
}

/// Algorithm 1/2's price scan: asynchronous leader best response over
/// prices with the follower oracle embedded in the payoff.
game::StackelbergResult run_leader_best_response(const NetworkParams& params,
                                                 const FollowerOracle& oracle,
                                                 const PriceBox& box,
                                                 const SpSolveOptions& options,
                                                 const SolveContext& context) {
  const game::LeaderPayoffFn payoff = [&](const std::vector<double>& actions,
                                          std::size_t leader) {
    count_leader_eval();
    const Prices prices{actions[0], actions[1]};
    const SpProfits profits =
        sp_profits(params, prices, oracle.solve(prices).totals);
    return leader == 0 ? profits.edge : profits.cloud;
  };
  game::StackelbergOptions driver;
  driver.tolerance = options.tolerance;
  driver.max_rounds = options.max_rounds;
  driver.grid_points = options.grid_points;
  driver.context = context;
  const std::vector<double> start{
      std::min(box.edge.hi, 2.0 * params.cost_edge + 1.0),
      std::min(box.cloud.hi, 2.0 * params.cost_cloud + 0.5)};
  return game::solve_stackelberg(payoff, start, {box.edge, box.cloud}, driver);
}

/// V_c at the given prices, with the followers from `oracle`.
double cloud_profit(const NetworkParams& params, const FollowerOracle& oracle,
                    const Prices& prices) {
  count_leader_eval();
  return sp_profits(params, prices, oracle.solve(prices).totals).cloud;
}

/// Numeric CSP reaction P_c*(P_e) against a given follower oracle over a
/// given price box: a 1-D scan of V_c. The leader stage uses it directly
/// for every pool but one budget class of n >= 2 miners;
/// homogeneous_csp_reaction falls back to it where no closed form applies.
double csp_reaction_with_oracle(const NetworkParams& params,
                                const FollowerOracle& oracle,
                                const PriceBox& box, double price_edge,
                                const SpSolveOptions& options) {
  num::Maximize1DOptions scan_options;
  scan_options.grid_points = options.grid_points;
  scan_options.tolerance = 1e-8;
  const auto objective = [&](double price_cloud) {
    return cloud_profit(params, oracle, {price_edge, price_cloud});
  };
  return num::maximize_scan(objective, box.cloud.lo, box.cloud.hi,
                            scan_options)
      .argmax;
}

/// CSP reaction P_c*(P_e) for n identical miners of budget B against the
/// homogeneous oracle. Takes the closed form where one applies:
/// Theorem 3 / Corollary 1 in connected mode (one root for every budget),
/// the Table II regions in standalone mode (two candidates, one per side of
/// the edge-cap kink, scored through the same oracle so the closed form
/// only proposes and V_c decides). Falls back to the numeric scan when the
/// root leaves the price box, no candidate exists, or the standalone budget
/// can bind. Shared by csp_reaction_homogeneous, Theorem 4's test and the
/// sequential construction, which reuse ONE oracle across the stage.
double homogeneous_csp_reaction(const NetworkParams& params, double budget,
                                int n, EdgeMode mode,
                                const FollowerOracle& oracle,
                                const PriceBox& box, double price_edge,
                                const SpSolveOptions& options) {
  if (mode == EdgeMode::kConnected) {
    const double root = csp_reaction_sufficient_closed(params, price_edge);
    if (root >= box.cloud.lo && root <= box.cloud.hi) return root;
  } else {
    const StandaloneCspCandidates closed = csp_reaction_standalone_closed(
        params, budget, n, price_edge, box.cloud.lo, box.cloud.hi);
    if (closed.slack > 0.0 && closed.binding > 0.0) {
      return cloud_profit(params, oracle, {price_edge, closed.binding}) >
                     cloud_profit(params, oracle, {price_edge, closed.slack})
                 ? closed.binding
                 : closed.slack;
    }
    if (closed.slack > 0.0) return closed.slack;
    if (closed.binding > 0.0) return closed.binding;
  }
  return csp_reaction_with_oracle(params, oracle, box, price_edge, options);
}

/// V_e/(1 - u) along the closed-form connected CSP reaction r(P_e) of
/// `params`, up to the price-free factor H: (P_e - C_e)/(P_e - r(P_e))
/// (docs/MATH.md §4). It reads no budget and no n.
double u_free_composite(const NetworkParams& params, double price_edge) {
  return (price_edge - params.cost_edge) /
         (price_edge - csp_reaction_sufficient_closed(params, price_edge));
}

/// The slope of u_free_composite in P_e, up to a positive factor:
/// C_e - r + (P_e - C_e) r', with r' from the implicit function theorem on
/// the reaction's quadratic Q(x, P_e) = 0 (docs/MATH.md §4).
double u_free_slope(const NetworkParams& params, double price_edge) {
  const double a = 1.0 - params.fork_rate;
  const double b = params.edge_success * params.fork_rate;
  const double cost = params.cost_cloud;
  const double reply = csp_reaction_sufficient_closed(params, price_edge);
  // Q = ((a+b) C_c - b P_e) x^2 - 2 a C_c P_e x + a C_c P_e^2.
  const double q_x =
      2.0 * (((a + b) * cost - b * price_edge) * reply - a * cost * price_edge);
  const double q_pe = -b * reply * reply - 2.0 * a * cost * reply +
                      2.0 * a * cost * price_edge;
  return params.cost_edge - reply +
         (price_edge - params.cost_edge) * (-q_pe / q_x);
}

/// The best point of u_free_composite on [lo, hi] among its stationary
/// point and the two ends. Wherever the reaction covers the box the
/// composite rises to one stationary point and falls after it (docs/MATH.md
/// §4), so a bracketed root of u_free_slope finds it.
double u_free_peak(const NetworkParams& params, double lo, double hi) {
  double best = lo;
  double best_value = u_free_composite(params, lo);
  const auto consider = [&](double price_edge) {
    const double value = u_free_composite(params, price_edge);
    if (value > best_value) {
      best = price_edge;
      best_value = value;
    }
  };
  if (u_free_slope(params, lo) > 0.0 && u_free_slope(params, hi) < 0.0) {
    num::RootOptions root;
    root.tolerance = 1e-13 * hi;
    consider(num::brent_root(
        [&](double price_edge) { return u_free_slope(params, price_edge); },
        lo, hi, root));
  }
  consider(hi);
  return best;
}

/// The ESP's best point on the closed-form CSP reaction of a one-class pool
/// of n >= 2 funded miners, picked from a few candidates instead of a scan
/// (docs/MATH.md §4). Returns nothing where the closed forms do not cover
/// the edge-price box; that pool keeps the composite scan.
/// - Connected: the reaction rises with P_e and stays below it, so it
///   covers the box when it clears the cloud floor at the box's left end.
///   The composite's stationary point and the box ends are compared on the
///   u-free composite, so the prices depend on neither n nor B.
/// - Standalone (the h = 1 game, B >= R(n-1)/n^2): the reaction sits on
///   the cap side of the kink x_k (E = E_max, V_e rising in P_e) on a left
///   interval of the box and on the cap-slack root r_1 after it. The
///   candidates are that interval's right end (where r_1 meets x_k, or the
///   sell-out spike where Table II's binding candidate stops beating the
///   slack one), the best point of the r_1 branch and the box ends, each
///   scored through the oracle.
template <typename Reaction>
std::optional<Prices> candidate_optimum(const NetworkParams& params,
                                        const FollowerOracle& oracle,
                                        const Reaction& reaction,
                                        const PriceBox& box) {
  const double lo = box.edge.lo;
  const double hi = box.edge.hi;
  if (oracle.mode() == EdgeMode::kConnected) {
    if (!(csp_reaction_sufficient_closed(params, lo) >= box.cloud.lo))
      return std::nullopt;
    const double price_edge = u_free_peak(params, lo, hi);
    return Prices{price_edge, reaction(price_edge)};
  }

  const double budget = oracle.classes().budgets.front();
  const int n = oracle.miner_count();
  NetworkParams unit = params;
  unit.edge_success = 1.0;
  const auto closed = [&](double price_edge) {
    return csp_reaction_standalone_closed(params, budget, n, price_edge,
                                          box.cloud.lo, box.cloud.hi);
  };
  const StandaloneCspCandidates first = closed(lo);
  if ((first.slack <= 0.0 && first.binding <= 0.0) ||
      !(csp_reaction_sufficient_closed(unit, lo) >= box.cloud.lo))
    return std::nullopt;

  // Table II's totals at one class, with D = R(n-1)/n and K = (1 - beta)
  // D: S = K/P_c, and E = E_max at or above the kink x_k = P_e - beta
  // D/E_max, E = beta D/(P_e - P_c) below it.
  const double dn = static_cast<double>(n);
  const double demand = params.reward * (dn - 1.0) / dn;
  const double total = (1.0 - params.fork_rate) * demand;
  const auto kink = [&](double price_edge) {
    return price_edge - params.fork_rate * demand / params.edge_capacity;
  };
  const auto cloud_profit_closed = [&](double price_edge, double price_cloud) {
    const double edge =
        price_cloud >= kink(price_edge)
            ? params.edge_capacity
            : params.fork_rate * demand / (price_edge - price_cloud);
    return (price_cloud - params.cost_cloud) * (total / price_cloud - edge);
  };
  // The closed-form reaction sits at or above the kink: Table II's binding
  // candidate wins (ties go to the slack one, as in
  // homogeneous_csp_reaction), or the slack candidate is the kink itself.
  const auto cap_side = [&](double price_edge) {
    const StandaloneCspCandidates c = closed(price_edge);
    return (c.binding > 0.0 &&
            (c.slack <= 0.0 || cloud_profit_closed(price_edge, c.binding) >
                                   cloud_profit_closed(price_edge, c.slack))) ||
           c.slack >= kink(price_edge);
  };

  std::vector<Prices> candidates;
  const auto add = [&](double price_edge) {
    candidates.push_back({price_edge, reaction(price_edge)});
  };
  add(lo);
  double branch_lo = lo;  // the r_1 branch starts here
  if (cap_side(lo)) {
    // The cap side's right end, bisected to adjacent doubles.
    double a = lo;
    double b = hi;
    if (cap_side(hi)) a = hi;
    for (double mid = 0.5 * (a + b); mid > a && mid < b; mid = 0.5 * (a + b))
      (cap_side(mid) ? a : b) = mid;
    branch_lo = a;
    // The oracle scores the reaction's two candidates itself, so near the
    // spike it may still pick the slack one; step left until it does not.
    double price_edge = a;
    double price_cloud = reaction(price_edge);
    double step = 2.0 * std::numeric_limits<double>::epsilon() * a;
    for (int i = 0; i < 8 && price_cloud < kink(price_edge) && price_edge > lo;
         ++i, step *= 4.0) {
      price_edge = std::max(lo, a - step);
      price_cloud = reaction(price_edge);
    }
    if (price_edge > lo && price_cloud >= kink(price_edge))
      candidates.push_back({price_edge, price_cloud});
  }
  if (branch_lo < hi) {
    const double peak = u_free_peak(unit, branch_lo, hi);
    if (peak > branch_lo && peak < hi) add(peak);
    add(hi);
  }

  const Prices* best = nullptr;
  double best_profit = 0.0;
  for (const Prices& prices : candidates) {
    count_leader_eval();
    const double profit =
        sp_profits(params, prices, oracle.solve(prices).totals).edge;
    if (best == nullptr || profit > best_profit) {
      best = &prices;
      best_profit = profit;
    }
  }
  return *best;
}

/// Theorem 4's sequential construction over one follower oracle: substitute
/// the CSP reaction curve P_c*(P_e) into V_e (the re-written Eq. 22),
/// maximize the one-dimensional composite over P_e, and finish at the
/// optimum. The reaction is picked once, from the oracle: the closed forms
/// of homogeneous_csp_reaction for one class of n >= 2 miners with a
/// positive budget, the numeric V_c scan for every other pool. Where the
/// closed forms cover the edge-price box, candidate_optimum picks the
/// optimum; every other pool scans the composite.
LeaderStageResult sequential_construction(const NetworkParams& params,
                                          const FollowerOracle& oracle,
                                          const PriceBox& box,
                                          const SpSolveOptions& options,
                                          const SolveContext& context) {
  const double budget = oracle.classes().budgets.front();
  const int n = oracle.miner_count();
  const bool closed_forms = oracle.class_count() == 1 && n >= 2 && budget > 0.0;
  const auto reaction = [&](double price_edge) {
    return closed_forms
               ? homogeneous_csp_reaction(params, budget, n, oracle.mode(),
                                          oracle, box, price_edge, options)
               : csp_reaction_with_oracle(params, oracle, box, price_edge,
                                          options);
  };
  std::optional<Prices> prices;
  if (closed_forms) prices = candidate_optimum(params, oracle, reaction, box);
  if (!prices) {
    num::Maximize1DOptions composite_scan;
    // The composite objective can carry a narrow spike at the capacity
    // sell-out price (the ESP's optimum sits just below the point where the
    // CSP would rather undercut), so the outer scan is run much finer than
    // the inner reaction scans.
    composite_scan.grid_points = std::max(4 * options.grid_points, 160);
    composite_scan.tolerance = 1e-7;
    // Each composite point is one reaction solve (closed form, else a
    // nested serial scan), so the outer scan is the stage to fan out.
    const auto composite = [&](double price_edge) {
      count_leader_eval();
      const Prices point{price_edge, reaction(price_edge)};
      return sp_profits(params, point, oracle.solve(point).totals).edge;
    };
    const auto best = num::maximize_scan_parallel(composite, box.edge.lo,
                                                  box.edge.hi, composite_scan,
                                                  context.threads);
    prices = Prices{best.argmax, reaction(best.argmax)};
  }
  auto result = finish_leader_stage(params, oracle, *prices, true);
  result.method = SpSolveMethod::kSequential;
  result.rounds = 1;
  return result;
}

/// Theorem 4's test (docs/MATH.md §4): true when the price game over `box`
/// has no pure equilibrium that the price scan could settle on, so the
/// scan could only cycle. The follower totals are (1 - u) times a function
/// of the prices, so on the mixed-price region V_e's slope in P_e has the
/// sign of C_e - P_c: the ESP answers a P_c below C_e with the ceiling and
/// a P_c above it with the point where the CSP sells nothing (standalone:
/// or the sell-out price), which the CSP undercuts. Left to rule out are a
/// rest at the ceiling and one at the cloud floor. Every pool the argument
/// does not cover keeps the scan.
bool pure_equilibrium_ruled_out(const NetworkParams& params,
                                const FollowerOracle& oracle,
                                const PriceBox& box,
                                const SpSolveOptions& options) {
  // The scan stops once a round moves both prices by less than its
  // tolerance, and it finds the CSP's reply only to about sqrt(machine
  // epsilon) relative (V_c is flat to rounding at its peak), so a price
  // gap the argument turns on counts only when it is clearly wider.
  const auto clears = [&](double below, double above) {
    return above - below > 4.0 * options.tolerance + 1e-6 * above;
  };
  // 1. An edge bonus to compete for (h > 0 holds by params.validate()).
  // 2. A share solution, and in standalone mode no binding class.
  // 3. Room below C_e, so the CSP can undercut any P_c above it.
  const std::optional<std::size_t> binding = oracle.binding_classes();
  const bool connected = oracle.mode() == EdgeMode::kConnected;
  if (!(params.fork_rate > 0.0) || !binding || (!connected && *binding > 0) ||
      !clears(box.cloud.lo, params.cost_edge))
    return false;
  // 4. The CSP answers the ceiling above C_e. The (1 - u) factor scales
  //    V_c without moving its argmax, so the sufficient-budget closed forms
  //    give the reply of every connected pool, and of every all-slack
  //    standalone pool of that many miners while the cap stays slack.
  const double ceiling = box.edge.hi;
  if (connected) {
    const double reply = csp_reaction_sufficient_closed(params, ceiling);
    return reply >= box.cloud.lo && reply <= box.cloud.hi &&
           clears(params.cost_edge, reply);
  }
  const double reply = homogeneous_csp_reaction(
      params, oracle.classes().budgets.front(), oracle.miner_count(),
      EdgeMode::kStandalone, oracle, box, ceiling, options);
  return clears(params.cost_edge, reply) &&
         !oracle.solve({ceiling, reply}).cap_active;
}

/// The leader stage over one follower oracle. Where Theorem 4 rules out a
/// pure price equilibrium (pure_equilibrium_ruled_out) it runs the
/// sequential construction directly. Every other pool runs Algorithm 1
/// (connected) / Algorithm 2 (standalone) asynchronous price best response
/// first; when that cycles, the scan stops at the first exact repeat of the
/// prices and the stage falls back to the sequential construction on the
/// same oracle. The construction never reads the scan's state, so skipping
/// a doomed scan changes no answer. The CSP reaction is picked once, from
/// the oracle: the closed forms of homogeneous_csp_reaction for one class
/// of n >= 2 miners with a positive budget, the numeric V_c scan for every
/// other pool.
LeaderStageResult leader_stage(const NetworkParams& params,
                               const FollowerOracle& oracle,
                               const SpSolveOptions& options) {
  const SolveContext& context = options.context;
  count_leader_solve(context);
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context), "leader_stage");
  const PriceBox box = price_box(params);
  int scan_rounds = 0;
  if (!pure_equilibrium_ruled_out(params, oracle, box, options)) {
    game::StackelbergResult leader;
    {
      const support::SolveTrace::Scope phase(trace_of(context),
                                             "best_response");
      leader = run_leader_best_response(params, oracle, box, options, context);
    }
    count_best_response_rounds(context, leader.rounds);
    if (leader.converged) {
      const support::SolveTrace::Scope phase(trace_of(context), "finish");
      auto result = finish_leader_stage(params, oracle,
                                        {leader.actions[0], leader.actions[1]},
                                        leader.converged);
      result.method = SpSolveMethod::kBestResponse;
      result.rounds = leader.rounds;
      return result;
    }
    scan_rounds = leader.rounds;
  }
  count_sequential_fallback(context);
  const support::SolveTrace::Scope phase(trace_of(context), "sequential");
  auto result = sequential_construction(params, oracle, box, options, context);
  result.rounds += scan_rounds;
  return result;
}

}  // namespace

LeaderStageResult solve_leader_stage_homogeneous(const NetworkParams& params,
                                                 double budget, int n,
                                                 EdgeMode mode,
                                                 const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(budget > 0.0, "SP solve: budget must be positive");
  HECMINE_REQUIRE(n >= 2, "SP solve: n >= 2 required");
  return leader_stage(params,
                      FollowerOracle(params, budget, n, mode, options.context),
                      options);
}

double csp_reaction_homogeneous(const NetworkParams& params, double budget,
                                int n, EdgeMode mode, double price_edge,
                                const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(price_edge > 0.0, "csp_reaction: price_edge must be > 0");
  const PriceBox box = price_box(params);
  const FollowerOracle oracle(params, budget, n, mode, options.context);
  return homogeneous_csp_reaction(params, budget, n, mode, oracle, box,
                                  price_edge, options);
}

LeaderStageResult solve_leader_stage_sequential(const NetworkParams& params,
                                                double budget, int n,
                                                EdgeMode mode,
                                                const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(budget > 0.0, "SP solve: budget must be positive");
  HECMINE_REQUIRE(n >= 2, "SP solve: n >= 2 required");
  const SolveContext& context = options.context;
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.sequential");
  return sequential_construction(params,
                                 FollowerOracle(params, budget, n, mode, context),
                                 price_box(params), options, context);
}

LeaderStageResult solve_leader_stage_sellout(const NetworkParams& params,
                                             double budget, int n,
                                             const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(budget > 0.0, "SP solve: budget must be positive");
  HECMINE_REQUIRE(n >= 2, "SP solve: n >= 2 required");
  const SolveContext& context = options.context;
  count_leader_solve(context);
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.sellout");
  const PriceBox box = price_box(params);

  // Unconstrained (cap-free) standalone edge demand at the given prices:
  // the h = 1 connected game.
  NetworkParams uncapped = params;
  uncapped.edge_success = 1.0;
  const FollowerOracle demand_oracle(uncapped, budget, n,
                                     EdgeMode::kConnected, context);
  const auto edge_demand = [&](const Prices& prices) {
    return demand_oracle.solve(prices).totals.edge;
  };

  // Sell-out price: demand is decreasing in P_e; find the crossing with
  // E_max (exists whenever capacity is scarce near the CSP price).
  const auto sellout_price = [&](double price_cloud) {
    const double lo = std::max(box.edge.lo, price_cloud * (1.0 + 1e-6));
    const auto excess = [&](double pe) {
      return edge_demand({pe, price_cloud}) - params.edge_capacity;
    };
    if (excess(lo) <= 0.0) return lo;  // capacity slack even at the floor
    num::RootOptions root;
    root.tolerance = 1e-9;
    return num::decreasing_root_unbounded(excess, lo, lo + 1.0, root);
  };

  // CSP profit under the sell-out constraint.
  const FollowerOracle oracle(params, budget, n, EdgeMode::kStandalone,
                              context);
  num::Maximize1DOptions scan;
  scan.grid_points = options.grid_points;
  scan.tolerance = 1e-7;
  const auto csp_profit = [&](double price_cloud) {
    count_leader_eval();
    const Prices prices{sellout_price(price_cloud), price_cloud};
    const EquilibriumProfile eq = oracle.solve(prices);
    return (price_cloud - params.cost_cloud) * eq.totals.cloud;
  };
  // Each point runs a sell-out root-find plus a GNEP solve; independent
  // across the scan, so fan out like the sequential composite above.
  const auto best_cloud = num::maximize_scan_parallel(
      csp_profit, box.cloud.lo, box.cloud.hi, scan, context.threads);

  Prices prices;
  prices.cloud = best_cloud.argmax;
  prices.edge = sellout_price(prices.cloud);
  auto result = finish_leader_stage(params, oracle, prices, true);
  result.method = SpSolveMethod::kSequential;
  result.rounds = 1;
  if (result.followers.totals.edge < params.edge_capacity * (1.0 - 0.05)) {
    throw support::ConvergenceError(
        "solve_leader_stage_sellout: capacity is not scarce at the "
        "computed prices; the sell-out equilibrium of Problem 2c does not "
        "apply");
  }
  return result;
}

LeaderStageResult solve_leader_stage(const NetworkParams& params,
                                     const std::vector<double>& budgets,
                                     EdgeMode mode,
                                     const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(!budgets.empty(), "SP solve: no miners");
  return leader_stage(params,
                      FollowerOracle(params, budgets, mode, options.context),
                      options);
}

}  // namespace hecmine::core

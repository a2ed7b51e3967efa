#include "core/sp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

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

PriceBox price_box(const NetworkParams& params, const SpSolveOptions& options) {
  // Default ceiling: demand is ~R/n-scale per unit price gap, so prices
  // beyond a few times the cost plus a reward fraction sell nothing;
  // keeping the box tight keeps the scan resolution useful.
  const double ceiling =
      options.price_ceiling > 0.0
          ? options.price_ceiling
          : 2.0 * std::max(params.cost_edge, params.cost_cloud) +
                0.5 * params.reward;
  PriceBox box;
  box.edge = {params.cost_edge * (1.0 + options.price_margin) + 1e-9, ceiling};
  box.cloud = {params.cost_cloud * (1.0 + options.price_margin) + 1e-9,
               ceiling};
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

/// The follower oracle for n identical miners of budget B (one class).
std::unique_ptr<FollowerOracle> homogeneous_oracle(const NetworkParams& params,
                                                   double budget, int n,
                                                   EdgeMode mode,
                                                   const SolveContext& context) {
  return make_follower_oracle(
      params, std::vector<double>(static_cast<std::size_t>(n), budget), mode,
      context);
}

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

/// Shared Algorithm 1/2 driver: asynchronous leader best response over
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
/// given price box: a 1-D scan of V_c. The heterogeneous sequential
/// construction uses it directly; the homogeneous one only where no closed
/// form applies (homogeneous_csp_reaction).
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
/// can bind. Shared by csp_reaction_homogeneous and the sequential leader
/// solver, which reuses ONE oracle across its whole composite scan.
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

/// Theorem 4's sequential construction: substitute the CSP reaction curve
/// P_c*(P_e) into V_e (the re-written Eq. 22), maximize the
/// one-dimensional composite over P_e, and finish at the optimum.
/// solve_leader_stage_sequential passes the homogeneous reaction (closed
/// forms where they apply); solve_leader_stage's heterogeneous cycle
/// fallback passes the numeric reaction against its oracle.
template <typename Reaction>
LeaderStageResult sequential_construction(const NetworkParams& params,
                                          const FollowerOracle& oracle,
                                          const Reaction& reaction,
                                          const PriceBox& box,
                                          const SpSolveOptions& options,
                                          const SolveContext& context) {
  num::Maximize1DOptions composite_scan;
  // The composite objective can carry a narrow spike at the capacity
  // sell-out price (the ESP's optimum sits just below the point where the
  // CSP would rather undercut), so the outer scan is run much finer than
  // the inner reaction scans.
  composite_scan.grid_points = std::max(4 * options.grid_points, 160);
  composite_scan.tolerance = 1e-7;
  // Each composite point is one reaction solve (closed form, else a nested
  // serial scan), so the outer scan is the stage to fan out.
  const auto composite = [&](double price_edge) {
    count_leader_eval();
    const Prices prices{price_edge, reaction(price_edge)};
    return sp_profits(params, prices, oracle.solve(prices).totals).edge;
  };
  const auto best = num::maximize_scan_parallel(composite, box.edge.lo,
                                                box.edge.hi, composite_scan,
                                                context.threads);
  Prices prices;
  prices.edge = best.argmax;
  prices.cloud = reaction(prices.edge);
  auto result = finish_leader_stage(params, oracle, prices, true);
  result.method = SpSolveMethod::kSequential;
  result.rounds = 1;
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
  const SolveContext& context = options.context;
  count_leader_solve(context);
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.homogeneous");
  const PriceBox box = price_box(params, options);
  const auto oracle = homogeneous_oracle(params, budget, n, mode, context);
  game::StackelbergResult leader;
  {
    const support::SolveTrace::Scope phase(trace_of(context), "best_response");
    leader = run_leader_best_response(params, *oracle, box, options, context);
  }
  count_best_response_rounds(context, leader.rounds);

  if (leader.converged || !options.sequential_fallback) {
    const support::SolveTrace::Scope phase(trace_of(context), "finish");
    auto result = finish_leader_stage(params, *oracle,
                                      {leader.actions[0], leader.actions[1]},
                                      leader.converged);
    result.method = SpSolveMethod::kBestResponse;
    result.rounds = leader.rounds;
    return result;
  }
  // The simultaneous price game cycles (no pure NE): fall back to the
  // sequential construction that Theorem 4 analyzes.
  count_sequential_fallback(context);
  auto result =
      solve_leader_stage_sequential(params, budget, n, mode, options);
  result.rounds += leader.rounds;
  return result;
}

double csp_reaction_homogeneous(const NetworkParams& params, double budget,
                                int n, EdgeMode mode, double price_edge,
                                const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(price_edge > 0.0, "csp_reaction: price_edge must be > 0");
  const SolveContext& context = options.context;
  const PriceBox box = price_box(params, options);
  const auto oracle = homogeneous_oracle(params, budget, n, mode, context);
  return homogeneous_csp_reaction(params, budget, n, mode, *oracle, box,
                                  price_edge, options);
}

LeaderStageResult solve_leader_stage_sequential(const NetworkParams& params,
                                                double budget, int n,
                                                EdgeMode mode,
                                                const SpSolveOptions& options) {
  params.validate();
  const SolveContext& context = options.context;
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.sequential");
  const PriceBox box = price_box(params, options);
  // The reaction shares the composite's oracle: rebuilding it per
  // composite point would redo the oracle setup a few hundred times.
  const auto oracle = homogeneous_oracle(params, budget, n, mode, context);
  const auto reaction = [&](double price_edge) {
    return homogeneous_csp_reaction(params, budget, n, mode, *oracle, box,
                                    price_edge, options);
  };
  return sequential_construction(params, *oracle, reaction, box, options,
                                 context);
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
  const PriceBox box = price_box(params, options);

  // Unconstrained (cap-free) standalone edge demand at the given prices:
  // the h = 1 connected game.
  NetworkParams uncapped = params;
  uncapped.edge_success = 1.0;
  const auto demand_oracle =
      homogeneous_oracle(uncapped, budget, n, EdgeMode::kConnected, context);
  const auto edge_demand = [&](const Prices& prices) {
    return demand_oracle->solve(prices).totals.edge;
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
  const auto oracle =
      homogeneous_oracle(params, budget, n, EdgeMode::kStandalone, context);
  num::Maximize1DOptions scan;
  scan.grid_points = options.grid_points;
  scan.tolerance = 1e-7;
  const auto csp_profit = [&](double price_cloud) {
    count_leader_eval();
    const Prices prices{sellout_price(price_cloud), price_cloud};
    const EquilibriumProfile eq = oracle->solve(prices);
    return (price_cloud - params.cost_cloud) * eq.totals.cloud;
  };
  // Each point runs a sell-out root-find plus a GNEP solve; independent
  // across the scan, so fan out like the sequential composite above.
  const auto best_cloud = num::maximize_scan_parallel(
      csp_profit, box.cloud.lo, box.cloud.hi, scan, context.threads);

  Prices prices;
  prices.cloud = best_cloud.argmax;
  prices.edge = sellout_price(prices.cloud);
  auto result = finish_leader_stage(params, *oracle, prices, true);
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
  const bool homogeneous =
      !options.force_profile_oracle && budgets.size() >= 2 &&
      budgets.front() > 0.0 &&
      std::all_of(budgets.begin(), budgets.end(),
                  [&](double b) { return b == budgets.front(); });
  if (homogeneous) {
    // Identical budgets: the homogeneous stage, whose CSP reaction has
    // closed forms (Theorem 4 / Table II).
    return solve_leader_stage_homogeneous(params, budgets.front(),
                                          static_cast<int>(budgets.size()),
                                          mode, options);
  }
  const SolveContext& context = options.context;
  count_leader_solve(context);
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.profile");
  const PriceBox box = price_box(params, options);
  const auto oracle = make_follower_oracle(params, budgets, mode, context);
  game::StackelbergResult leader;
  {
    const support::SolveTrace::Scope phase(trace_of(context), "best_response");
    leader = run_leader_best_response(params, *oracle, box, options, context);
  }
  count_best_response_rounds(context, leader.rounds);
  if (leader.converged || !options.sequential_fallback) {
    const support::SolveTrace::Scope phase(trace_of(context), "finish");
    auto result = finish_leader_stage(params, *oracle,
                                      {leader.actions[0], leader.actions[1]},
                                      leader.converged);
    result.method = SpSolveMethod::kBestResponse;
    result.rounds = leader.rounds;
    return result;
  }
  // Same cycle fallback as the homogeneous path (Theorem 4's sequential
  // construction), so auto-dispatch never changes the equilibrium concept.
  count_sequential_fallback(context);
  const support::SolveTrace::Scope phase(trace_of(context), "sequential");
  const auto reaction = [&](double price_edge) {
    return csp_reaction_with_oracle(params, *oracle, box, price_edge, options);
  };
  auto result = sequential_construction(params, *oracle, reaction, box,
                                        options, context);
  result.rounds += leader.rounds;
  return result;
}

}  // namespace hecmine::core

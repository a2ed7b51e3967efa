#include "game/stackelberg.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/optimize.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace hecmine::game {

StackelbergResult solve_stackelberg(const LeaderPayoffFn& payoff,
                                    std::vector<double> start,
                                    const std::vector<ActionBounds>& bounds,
                                    const StackelbergOptions& options) {
  HECMINE_REQUIRE(!start.empty(), "solve_stackelberg requires leaders");
  HECMINE_REQUIRE(start.size() == bounds.size(),
                  "solve_stackelberg requires bounds per leader");
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    HECMINE_REQUIRE(bounds[i].lo < bounds[i].hi,
                    "solve_stackelberg requires lo < hi per leader");
    start[i] = std::clamp(start[i], bounds[i].lo, bounds[i].hi);
  }

  StackelbergResult result;
  result.actions = std::move(start);
  result.payoffs.resize(result.actions.size());
  num::Maximize1DOptions scan_options;
  scan_options.grid_points = options.grid_points;
  scan_options.tolerance = kRefineTolerance;
  const int threads = support::resolve_thread_count(options.context.threads);

  // Leader-round records go to the context sink's stream (the leader stage
  // runs above the instrumented oracle, so no thread-local scope is
  // installed here); the two-leader pricing game maps actions 0/1 to
  // (P_e, P_c).
  support::TelemetryFlusher* flight =
      options.context.telemetry != nullptr ? options.context.telemetry->stream
                                           : nullptr;
  const std::uint64_t solve_id =
      flight != nullptr ? flight->next_solve_id() : 0;

  support::SolveTrace* trace = options.context.telemetry != nullptr
                                   ? &options.context.telemetry->trace
                                   : nullptr;

  // Every action vector the iteration has held, the start state first:
  // an exact repeat means the rounds replay a cycle (see cycle_period).
  std::vector<std::vector<double>> visited{result.actions};
  for (int round = 0; round < options.max_rounds; ++round) {
    const support::SolveTrace::Scope round_span(trace, "leader.round");
    result.rounds = round + 1;
    double round_change = 0.0;
    for (std::size_t leader = 0; leader < result.actions.size(); ++leader) {
      // Copies the action vector per evaluation so candidates for one
      // leader can be scored concurrently; every follower-equilibrium
      // solve behind `payoff` is independent of the others.
      const auto objective = [&, leader](double action) {
        auto candidate = result.actions;
        candidate[leader] = action;
        return payoff(candidate, leader);
      };
      const auto best =
          num::maximize_scan_parallel(objective, bounds[leader].lo,
                                      bounds[leader].hi, scan_options, threads);
      round_change =
          std::max(round_change, std::abs(best.argmax - result.actions[leader]));
      result.actions[leader] = best.argmax;
      // Reuse the scan's value instead of re-solving one follower
      // equilibrium per leader after the loop (see StackelbergResult).
      result.payoffs[leader] = best.value;
    }
    result.residual = round_change;
    if (flight != nullptr) {
      support::IterationRecord record;
      record.solver = "stackelberg.leader_round";
      record.solve = solve_id;
      record.iteration = result.rounds;
      record.residual = round_change;
      record.tolerance = options.tolerance;
      if (!result.actions.empty()) record.price_edge = result.actions[0];
      if (result.actions.size() > 1) record.price_cloud = result.actions[1];
      flight->record(record);
    }
    if (round_change < options.tolerance) {
      result.converged = true;
      break;
    }
    const auto repeat =
        std::find(visited.begin(), visited.end(), result.actions);
    if (repeat != visited.end()) {
      result.cycle_period = static_cast<int>(visited.end() - repeat);
      break;
    }
    visited.push_back(result.actions);
  }
  if (result.rounds == 0) {  // max_rounds == 0: no scan values to reuse
    for (std::size_t leader = 0; leader < result.actions.size(); ++leader)
      result.payoffs[leader] = payoff(result.actions, leader);
  }
  return result;
}

}  // namespace hecmine::game

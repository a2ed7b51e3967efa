// The follower stage's independent numeric reference and its certificate.
//
// The production solver is FollowerOracle (core/oracle.hpp), the class
// solver of core/aggregate_oracle.hpp.
// This header keeps what checks it from outside: the extragradient method
// on the equivalent variational inequality (numerics/vi.hpp), which solves
// either edge mode from the miners' utility gradients alone — connected
// mode (Problem 1a, Theorem 2) over the per-miner budget polytopes with
// edge success h, standalone mode (Problem 1c, Theorem 5) over the jointly
// constrained polytope with the shared cap E <= E_max — and the
// exploitability certificate, the largest gain any miner gets by a
// unilateral deviation (best_response_kernel).
#pragma once

#include <vector>

#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// Follower equilibrium at `prices` by the extragradient method on
/// VI(K, F), with F the stacked negated utility gradients. Returns a dense
/// profile (one entry per miner). Slow; kept as the independent reference
/// for tests and validate_model. At E = 0 the edge term's marginal
/// beta h R E_{-i}/E^2 is unbounded, so a point with no edge demand is
/// never reported as converged (a one-miner deviation gains there).
[[nodiscard]] EquilibriumProfile solve_followers_vi(
    const NetworkParams& params, const Prices& prices,
    const std::vector<double>& budgets, EdgeMode mode,
    const MinerSolveOptions& options = {});

/// Largest unilateral gain any miner can get by deviating from `requests`
/// (connected mode when mode_connected, else the mu-penalized standalone
/// game). ~0 certifies a Nash equilibrium.
[[nodiscard]] double miner_exploitability(const NetworkParams& params,
                                          const Prices& prices,
                                          const std::vector<double>& budgets,
                                          const std::vector<MinerRequest>& requests,
                                          bool mode_connected,
                                          double surcharge = 0.0);

}  // namespace hecmine::core

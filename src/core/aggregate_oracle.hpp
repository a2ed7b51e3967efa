// The class solver: how core::FollowerOracle (core/oracle.hpp) solves
// every fixed pool of miners. This header holds the budget partition; the
// solver is the oracle's own implementation (aggregate_oracle.cpp).
//
// Every best response in the follower stage depends on opponents only
// through the aggregates E_{-i}, S_{-i} (paper Eq. 14), and Theorem 2's
// uniqueness makes the equilibrium symmetric within any group of miners
// sharing a budget. So a pool of N miners drawn from K distinct budgets
// has an equilibrium fully described by K class requests, and one solver
// over budget classes covers every pool: K = 1 is the homogeneous game of
// Theorem 3 / Corollary 1 / Table II, K = N the dense game, and K << N the
// crowd. Profiles are class-shaped (EquilibriumProfile::ClassShape):
// per-miner requests and utilities expand lazily through the class map.
//
// The partition is one O(N) hash pass over the budgets (provisional class
// ids in first-seen order), then a sort of the K distinct keys that
// renumbers the class map in place. The oracle buckets a budget vector
// once; a solved profile's shape rebuilds an oracle without bucketing
// again (the audit's leader-gap re-solves do this).
//
// Each class is settled by block_response_kernel (core/kernels.hpp), the
// exact common request of a class's m miners against the rest of the pool.
//   * K = 1: one kernel call with no outside aggregates is the exact
//     symmetric equilibrium; in standalone mode a binding cap pins
//     e = E_max/n, and c and the shared surcharge follow from the class's
//     KKT conditions. No iteration, no scratch state.
//   * K > 1: a damped Gauss-Seidel fixed point over class requests. Each
//     sweep first solves a joint block — every class that can afford the
//     common request of the richest class's block response — in one kernel
//     call, then settles the remaining classes one kernel call each. When
//     no class peels, the block is the whole pool with nothing outside it:
//     its response is the symmetric equilibrium of all N miners, which
//     every budget affords, so by Theorem 2's uniqueness it is the
//     equilibrium. That sweep takes it undamped and the next one confirms
//     it, so an all-slack pool settles within two sweeps.
//     Standalone mode bisects the shared surcharge to complementarity on
//     E <= E_max (Theorem 5's shared-multiplier decomposition).
//
// A result is `converged` when the sweep movement falls below the
// tolerance, or when no class's miner can gain more than 1e-7 R by a
// unilateral deviation (the class certificate, computed with
// best_response_kernel). The oracle's instrumentation (oracle.cpp) wraps
// the solve; the solver itself records work counters, iteration-probe
// records and the `oracle.aggregate.*` instruments into whatever sink is
// installed on its thread.
#pragma once

#include <cstdint>
#include <vector>

#include "core/oracle.hpp"

namespace hecmine::core {

/// One budget class: the shared budget key and how many miners hold it.
struct MinerClass {
  double budget = 0.0;
  int count = 0;
};

/// Deterministic bucketing of a budget pool: classes sorted ascending by
/// budget key, plus the miner-index -> class-index map.
struct ClassPartition {
  std::vector<MinerClass> classes;
  std::vector<std::uint32_t> class_of;
};

/// Buckets `budgets` into classes keyed by exact budget value, in one pass
/// over the budgets; the only O(N) allocation is the class map. Keys
/// ascend, an equal key keeps its first-seen value (+0.0 and -0.0 are one
/// class), and a negative or NaN budget throws. The result is a pure
/// function of the inputs, independent of thread count.
[[nodiscard]] ClassPartition partition_budget_classes(
    const std::vector<double>& budgets);

}  // namespace hecmine::core

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
// The solve is the share equation of aggregative games (docs/MATH.md §2).
// At totals (E, S) that include its own request, a class's KKT system is
// linear in that request, so every class takes the same share f_k of both
// totals: the slack share u, or B_k / ((1 - u) Q) where its budget binds,
// Q = R (1 - beta + beta h). The binding classes are a prefix of the
// ascending budgets, so u is one quadratic per prefix, solved once per
// pool (it depends on no price). A solve at given prices is then O(K):
//   * E = (1 - u) R beta h / (P_e - P_c) and S = (1 - u) R (1 - beta) / P_c
//     under Theorem 3's condition, E = S = (1 - u) Q / P_e otherwise;
//     K = 1 is Theorem 3 / Corollary 1, an all-slack pool u = 1/N. A slack
//     class keeps the one-class closed form's rounding where it is
//     accurate (see solve_classes).
//     The profile reports the class sums as its totals.
//   * Standalone mode with the cap binding: E = E_max. If K = 1 or the
//     poorest class affords the symmetric cap request, every class plays
//     the one-class closed form (Table II, extended to binding budgets);
//     otherwise the shared surcharge and S are bracketed roots, and the
//     profile reports the roots' totals (E_max, S).
//
// `converged` is a certificate: the totals match the class sums, and each
// class's request matches best_response_kernel's reply to the rest, each
// to a stated relative bound. The largest class residual is the profile's
// `residual`. The oracle's instrumentation (oracle.cpp) wraps the solve;
// the solver itself records only work counters, into whatever sink is
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

// The follower solver: one oracle for every fixed pool of miners.
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
// Each class is settled by block_response_kernel (core/kernels.hpp), the
// exact common request of a class's m miners against the rest of the pool.
//   * K = 1: one kernel call with no outside aggregates is the exact
//     symmetric equilibrium; in standalone mode a binding cap pins
//     e = E_max/n, and c and the shared surcharge follow from the class's
//     KKT conditions. No iteration, no scratch state.
//   * K > 1: a damped Gauss-Seidel fixed point over class requests. Each
//     sweep first solves a joint block — every class that can afford the
//     common request of the richest class's block response — in one kernel
//     call, then settles the remaining classes one kernel call each.
//     Standalone mode bisects the shared surcharge to complementarity on
//     E <= E_max (Theorem 5's shared-multiplier decomposition).
//
// A result is `converged` when the sweep movement falls below the
// tolerance, or when no class's miner can gain more than 1e-7 R by a
// unilateral deviation (the class certificate, computed with
// best_response_kernel).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/oracle.hpp"

namespace hecmine::core {

struct KernelEnv;  // core/kernels.hpp

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

/// Buckets `budgets` into classes keyed by exact budget value. The result
/// is a pure function of the inputs, independent of thread count or
/// iteration order.
[[nodiscard]] ClassPartition partition_budget_classes(
    const std::vector<double>& budgets);

/// The follower oracle for a fixed pool (see the file comment). Returns
/// class-shaped EquilibriumProfiles: requests/utilities hold one entry per
/// class, and a one-class shape carries no miner-to-class map.
class ClassAggregateOracle final : public FollowerOracle {
 public:
  ClassAggregateOracle(NetworkParams params,
                       const std::vector<double>& budgets, EdgeMode mode,
                       MinerSolveOptions options = {});

  /// One class of n miners of budget `budget`, without a budget vector.
  ClassAggregateOracle(NetworkParams params, double budget, int n,
                       EdgeMode mode, MinerSolveOptions options = {});

  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const override;
  [[nodiscard]] int miner_count() const override { return miner_count_; }
  [[nodiscard]] EdgeMode mode() const override { return mode_; }

  /// Number of budget classes (K).
  [[nodiscard]] int class_count() const noexcept {
    return static_cast<int>(shape_->counts.size());
  }

 private:
  /// K = 1: the exact symmetric equilibrium, no iteration.
  [[nodiscard]] EquilibriumProfile single_class(const Prices& prices) const;

  /// K > 1: damped Gauss-Seidel fixed point over class requests at the
  /// surcharge baked into `env`; `state` is the warm start and receives
  /// the final requests.
  [[nodiscard]] EquilibriumProfile fixed_point(
      const KernelEnv& env, std::vector<MinerRequest>& state) const;

  NetworkParams params_;
  EdgeMode mode_;
  MinerSolveOptions options_;
  int miner_count_;
  /// The budget partition, shared with every profile this oracle returns
  /// (O(K) profile copies).
  std::shared_ptr<const EquilibriumProfile::ClassShape> shape_;
};

}  // namespace hecmine::core

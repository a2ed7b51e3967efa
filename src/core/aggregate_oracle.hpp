// Aggregate-statistics follower solves: the O(K) route to 10^6 miners.
//
// Every best response in the follower stage depends on opponents only
// through the aggregates E_{-i}, S_{-i} (paper Eq. 14), and Theorem 2's
// uniqueness makes the equilibrium symmetric within any group of miners
// sharing a budget. So a pool of N miners drawn from K distinct budgets
// (K << N) has an equilibrium fully described by K class representatives —
// the ClassAggregateOracle iterates a K-dimensional fixed point over class
// totals instead of N per-miner sweeps, then expands per-miner requests and
// utilities lazily through EquilibriumProfile::request(i) (class-shaped
// profiles; see EquilibriumProfile::ClassShape). Standalone mode reuses the
// shared-multiplier decomposition of Theorem 5: the class fixed point runs
// inside a surcharge bisection to complementarity on E <= E_max, exactly
// mirroring solve_symmetric_standalone.
//
// Class state is stored structure-of-arrays so the per-sweep update is a
// branch-light sqrt/div chain (the exact interior KKT point of Eq. 14 with
// lambda = 0, which joint concavity makes the exact global best response
// whenever it is feasible); infeasible classes fall back to the full
// miner_best_response boundary search, so the class solve is exact, not an
// approximation.
//
// Dispatch is opt-in: make_profile_oracle consults
// SolveContext::aggregate (AggregateOracleOptions) and picks this oracle
// only when the pool is large enough and buckets into few enough classes;
// default options disable it entirely, so existing callers see identical
// behavior.
#pragma once

#include <cstdint>
#include <memory>
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

/// Buckets `budgets` into classes keyed by exact budget value. The result
/// is a pure function of the inputs, independent of thread count or
/// iteration order.
[[nodiscard]] ClassPartition partition_budget_classes(
    const std::vector<double>& budgets);

/// Follower oracle solving the K-dimensional class-aggregate fixed point.
/// Returns class-shaped EquilibriumProfiles: requests/utilities hold one
/// entry per class and per-miner views expand lazily through the shared
/// ClassShape. Exact at equilibrium (see file comment).
class ClassAggregateOracle final : public FollowerOracle {
 public:
  ClassAggregateOracle(NetworkParams params,
                       const std::vector<double>& budgets, EdgeMode mode,
                       MinerSolveOptions options = {});

  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const override;
  [[nodiscard]] int miner_count() const override { return miner_count_; }
  [[nodiscard]] EdgeMode mode() const override { return mode_; }

  /// Number of budget classes (K).
  [[nodiscard]] int class_count() const noexcept {
    return static_cast<int>(shape_->counts.size());
  }

 private:
  /// Damped Gauss-Seidel fixed point over class representatives at a fixed
  /// edge surcharge; fills requests (per class) and convergence fields.
  [[nodiscard]] EquilibriumProfile fixed_point(const Prices& prices,
                                               double edge_success,
                                               double surcharge,
                                               std::vector<MinerRequest>& seed)
      const;

  NetworkParams params_;
  EdgeMode mode_;
  MinerSolveOptions options_;
  int miner_count_;
  /// The budget partition, shared with every profile this oracle returns
  /// (O(K) profile copies).
  std::shared_ptr<const EquilibriumProfile::ClassShape> shape_;
};

/// Profile-oracle factory with aggregate dispatch: the ClassAggregateOracle
/// when context.aggregate opts in (dispatch_threshold > 0, pool size >=
/// threshold, bucketing yields <= max_classes classes), else the dense
/// ConnectedNepOracle / StandaloneGnepOracle for `mode`. The pool is
/// bucketed once: the class count is read off the built oracle. Returns
/// the bare oracle — callers layer decorate_follower_oracle themselves (as
/// make_follower_oracle and the leader stage do).
[[nodiscard]] std::unique_ptr<FollowerOracle> make_profile_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context = {});

}  // namespace hecmine::core

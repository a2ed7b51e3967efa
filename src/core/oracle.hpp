// The follower oracle: the one follower-stage solve every layer uses.
//
// Upper layers — the SP leader stage, the audit, sweeps and benches — only
// ever need "equilibrium at these prices" for a fixed pool of miners, so
// the follower stage is one concrete type:
//
//   FollowerOracle(params, budgets, mode, context)
//     solve(prices) -> EquilibriumProfile    (the one result type)
//
// It is the class solver (core/aggregate_oracle.hpp): a pool of N miners
// drawn from K distinct budgets is solved over K budget classes, which
// covers the homogeneous game (K = 1, Thm 3 / Cor 1 / Table II), the dense
// game (K = N) and everything in between, in both edge modes. When the
// SolveContext carries a telemetry sink the oracle counts its own solves
// (see FollowerOracle::solve); it opens no span and reads no clock, since a
// solve costs well under a microsecond: spans belong to the stages that
// call it. The extragradient VI solver
// (core/equilibrium.hpp) is the independent numeric reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"
#include "support/convergence.hpp"

namespace hecmine::support {
class Counter;
class Gauge;
class Telemetry;
}  // namespace hecmine::support

namespace hecmine::core {

/// Follower-stage equilibrium: the one result type of every follower solve.
/// Oracle solves are class-shaped (`classes` set): requests/utilities hold
/// one entry per budget class. The VI reference returns a dense profile
/// (`classes` null, one entry per miner). The accessors hide the
/// difference, so consumers never branch on the shape.
struct EquilibriumProfile {
  /// Budget-class shape: requests/utilities hold one entry per class and
  /// `of` maps each miner index to its class (empty for a one-class pool,
  /// where every miner maps to class 0). The shape is shared and immutable
  /// so profile copies stay O(K), not O(N).
  struct ClassShape {
    std::vector<std::uint32_t> of;  ///< miner -> class (size n; empty if K = 1)
    std::vector<int> counts;        ///< miners per class (size K)
    std::vector<double> budgets;    ///< class budget keys (size K)
  };

  int miner_count = 0;       ///< n — number of followers represented
  std::vector<MinerRequest> requests;  ///< per class (or per miner if dense)
  Totals totals;             ///< E*, C* across all miner_count miners
  std::vector<double> utilities;       ///< U at equilibrium, same indexing
  /// The class shape; null only for dense (VI reference) profiles.
  std::shared_ptr<const ClassShape> classes;
  double surcharge = 0.0;    ///< GNEP shadow price on E <= E_max (0 if slack)
  bool cap_active = false;   ///< standalone only: capacity constraint binds
  bool converged = false;
  int iterations = 0;        ///< cap-root steps (0: closed form), VI iterations
  /// Largest relative best-response residual of a class (class solver) /
  /// VI natural residual.
  double residual = 0.0;

  /// True when the profile carries a class-aggregate shape.
  [[nodiscard]] bool class_shaped() const noexcept {
    return classes != nullptr;
  }

  /// Miner i's request, through the class map when class-shaped (lazy
  /// expansion — no per-miner storage is materialized).
  [[nodiscard]] const MinerRequest& request(std::size_t i = 0) const;
  /// Miner i's equilibrium utility, indexed like request(i).
  [[nodiscard]] double utility(std::size_t i = 0) const;
  /// Full per-miner request vector of size miner_count.
  [[nodiscard]] std::vector<MinerRequest> expanded() const;

  /// Convergence summary in the cross-solver vocabulary
  /// (support/convergence.hpp); VIResult exposes the same accessor.
  [[nodiscard]] support::ConvergenceReport report() const noexcept {
    return {converged, iterations, residual};
  }
};

struct KernelEnv;  // core/kernels.hpp

/// The follower oracle for a fixed pool: everything but the prices is fixed
/// at construction, so upper layers treat the follower stage as a pure
/// function of prices. Solves are class-shaped: requests/utilities hold one
/// entry per budget class, and a one-class shape carries no miner-to-class
/// map. The solver is described in core/aggregate_oracle.hpp.
class FollowerOracle final {
 public:
  /// The pool a class shape describes, sharing the shape (a solved
  /// profile's `classes` rebuilds its own oracle without bucketing again).
  /// The shape must be a partition: one budget and a positive count per
  /// class, budgets strictly ascending and >= 0, and a class map whose
  /// entries are class indices matching the counts (empty when K = 1).
  /// Reads only context.follower (the cap root's step budget) and
  /// context.telemetry (the instrumentation sink).
  FollowerOracle(NetworkParams params,
                 std::shared_ptr<const EquilibriumProfile::ClassShape> shape,
                 EdgeMode mode, const SolveContext& context = {});

  /// One miner per entry of `budgets`, bucketed by
  /// partition_budget_classes (core/aggregate_oracle.hpp).
  FollowerOracle(NetworkParams params, const std::vector<double>& budgets,
                 EdgeMode mode, const SolveContext& context = {});

  /// One class of n miners of budget `budget`, without a budget vector.
  FollowerOracle(NetworkParams params, double budget, int n, EdgeMode mode,
                 const SolveContext& context = {});

  /// Equilibrium of the pool at `prices`. With a telemetry sink the solve
  /// runs with the sink as the thread's telemetry (support::TelemetryScope,
  /// installed unless the thread's current sink already is this one) — on
  /// whichever pool worker runs it, so the class solver's work counters
  /// land in the sink — counts `oracle.solves` and `oracle.nonconverged`,
  /// and raises `oracle.residual_max` to the solve's residual.
  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const;

  /// Number of followers in the pool (n).
  [[nodiscard]] int miner_count() const noexcept { return miner_count_; }

  /// Edge operation mode of the pool.
  [[nodiscard]] EdgeMode mode() const noexcept { return mode_; }

  /// Number of budget classes (K).
  [[nodiscard]] int class_count() const noexcept {
    return static_cast<int>(shape_->counts.size());
  }

  /// The budget partition: class budgets (ascending) and class sizes.
  [[nodiscard]] const EquilibriumProfile::ClassShape& classes() const noexcept {
    return *shape_;
  }

  /// How many classes the share equation binds (docs/MATH.md §2): a prefix
  /// of the ascending budgets that spends its whole budget at every price.
  /// Empty when fewer than two miners hold a budget, so the pool has no
  /// share solution.
  [[nodiscard]] std::optional<std::size_t> binding_classes() const noexcept {
    if (shares_.of_class.empty()) return std::nullopt;
    return shares_.bound;
  }

 private:
  /// Resolves the instruments and sets `oracle.aggregate.classes` when
  /// `telemetry` is set (every constructor).
  void instrument(support::Telemetry* telemetry);

  /// The class solve itself, without instrumentation.
  [[nodiscard]] EquilibriumProfile solve_classes(const Prices& prices) const;

  /// Standalone mode with the cap binding: rewrites `out` to E = E_max and
  /// returns the kernel environment at the shared surcharge.
  [[nodiscard]] KernelEnv solve_cap(const KernelEnv& env,
                                    EquilibriumProfile& out) const;

  /// The certificate: checks `out`'s requests against the totals the
  /// solve aimed at (then reported, or replaced by the class sums when
  /// `report_sums`) and against their best responses to the rest, and sets
  /// utilities, residual and `converged`.
  void certify(const KernelEnv& env, EquilibriumProfile& out,
               bool report_sums) const;

  NetworkParams params_;
  EdgeMode mode_;
  MinerSolveOptions options_;
  int miner_count_;
  /// The budget partition, shared with every profile this oracle returns
  /// (O(K) profile copies).
  std::shared_ptr<const EquilibriumProfile::ClassShape> shape_;
  /// The share equation's answer (docs/MATH.md), which depends on no
  /// price: each class's share of the pool's totals (empty when fewer than
  /// two miners hold a budget), how many classes bind (a prefix), and the
  /// share 1 - u left to the rest, kept as a ratio so that an all-slack
  /// pool's totals round as (N - 1) sigma^2 / N.
  struct Shares {
    std::vector<double> of_class;
    std::size_t bound = 0;
    double rest_numerator = 0.0;
    double rest_denominator = 1.0;
  };
  Shares shares_;

  /// Solves the share equation of a pool with `shape`, with
  /// Q = R (1 - beta + beta h) = `spend_scale` (aggregate_oracle.cpp).
  [[nodiscard]] static Shares solve_shares(
      const EquilibriumProfile::ClassShape& shape, double spend_scale);
  // Instruments are resolved once at construction; registry handles are
  // stable for the sink's lifetime, so solves never touch a stripe mutex.
  // All null without a sink.
  support::Telemetry* telemetry_ = nullptr;
  support::Counter* solves_ = nullptr;
  support::Counter* nonconverged_ = nullptr;
  support::Gauge* residual_max_ = nullptr;
};

/// Builds the oracle for a follower game over `budgets` in `mode`
/// (the cap root's step budget from context.follower, instrumented when
/// context.telemetry is set).
[[nodiscard]] std::unique_ptr<FollowerOracle> make_follower_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context = {});

/// One-shot: equilibrium at `prices` of the pool over `budgets`. With a
/// telemetry sink the stage (bucketing, share solve and solve) is one
/// `followers` span.
[[nodiscard]] EquilibriumProfile solve_followers(
    const NetworkParams& params, const Prices& prices,
    const std::vector<double>& budgets, EdgeMode mode,
    const SolveContext& context = {});

/// One-shot homogeneous solve: n identical miners of budget B (one class,
/// no budget vector built), in a `followers` span like solve_followers.
[[nodiscard]] EquilibriumProfile solve_followers_symmetric(
    const NetworkParams& params, const Prices& prices, double budget, int n,
    EdgeMode mode, const SolveContext& context = {});

/// Exploitability certificate for a unified profile: largest unilateral
/// gain any miner can get by deviating (the mode and the profile's
/// surcharge select the penalized game — see the vector overload in
/// core/equilibrium.hpp). `budgets` must have miner_count entries, or a
/// single entry shared by all miners of a one-class profile.
[[nodiscard]] double miner_exploitability(const NetworkParams& params,
                                          const Prices& prices,
                                          const std::vector<double>& budgets,
                                          const EquilibriumProfile& profile,
                                          EdgeMode mode);

}  // namespace hecmine::core

// The FollowerOracle layer: one interface for every follower-stage solve.
//
// Upper layers — the SP leader stage, the dynamic-population game, RL
// references, sweeps and benches — only ever need "equilibrium at these
// prices", so the follower stage sits behind a single abstract oracle:
//
//   FollowerOracle
//     solve(prices) -> EquilibriumProfile    (the one result type)
//
// One solver backs every fixed pool: ClassAggregateOracle
// (core/aggregate_oracle.hpp), which covers the homogeneous game (K = 1
// budget class, Thm 3 / Cor 1 / Table II), the dense game (K = N) and
// everything in between, in both edge modes. Decorators add
// instrumentation (InstrumentedFollowerOracle) and population uncertainty
// (PopulationExpectationOracle, Sec. V's random miner count by
// deterministic Monte-Carlo). make_follower_oracle builds the class oracle
// and layers the instrumentation when the SolveContext carries a telemetry
// sink, so a new workload is a constructor call — not a new solver family.
// The extragradient VI solver (core/equilibrium.hpp) is the independent
// numeric reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/population.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"
#include "support/convergence.hpp"

namespace hecmine::support {
class Counter;
class HistogramMetric;
class Telemetry;
}  // namespace hecmine::support

namespace hecmine::core {

struct Scenario;  // core/scenario.hpp

/// Follower-stage equilibrium: the one result type every oracle returns.
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
  int iterations = 0;        ///< class sweeps (0 for K = 1), VI iterations
  double residual = 0.0;     ///< last profile change / VI natural residual

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

/// Abstract follower-equilibrium oracle: everything but the prices is
/// fixed at construction, so upper layers treat the follower stage as a
/// pure function of prices.
class FollowerOracle {
 public:
  virtual ~FollowerOracle() = default;

  /// Equilibrium of the wrapped follower game at `prices`.
  [[nodiscard]] virtual EquilibriumProfile solve(const Prices& prices) const = 0;

  /// Number of followers the oracle represents (the expected count for
  /// population oracles).
  [[nodiscard]] virtual int miner_count() const = 0;

  /// Edge operation mode of the wrapped game.
  [[nodiscard]] virtual EdgeMode mode() const = 0;
};

/// Observability decorator: counts solves and non-converged results and
/// histograms per-solve wall time and iteration counts into a
/// support::Telemetry sink (metric names `oracle.solves`,
/// `oracle.nonconverged`, `oracle.solve_ms`, `oracle.iterations`). It also
/// installs the sink as the thread-local telemetry for the duration of each
/// solve — on whichever pool worker runs it — so the deep numeric layers
/// (the class fixed point, the VI extragradient) can record through
/// support::current_telemetry() without signature changes.
class InstrumentedFollowerOracle final : public FollowerOracle {
 public:
  InstrumentedFollowerOracle(std::unique_ptr<FollowerOracle> inner,
                             support::Telemetry& telemetry);

  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const override;
  [[nodiscard]] int miner_count() const override;
  [[nodiscard]] EdgeMode mode() const override;
  [[nodiscard]] const FollowerOracle& inner() const noexcept { return *inner_; }

 private:
  std::unique_ptr<FollowerOracle> inner_;
  support::Telemetry* telemetry_;
  // Instruments are resolved once at construction; registry handles are
  // stable for the sink's lifetime, so solves never touch a stripe mutex.
  support::Counter& solves_;
  support::Counter& nonconverged_;
  support::HistogramMetric& solve_ms_;
  support::HistogramMetric& iterations_;
};

/// Applies the context's cross-cutting decorator to a bare oracle:
/// instrumentation when context.telemetry is set, else the oracle itself.
/// Both factories and the leader stage funnel through this helper.
[[nodiscard]] std::unique_ptr<FollowerOracle> decorate_follower_oracle(
    std::unique_ptr<FollowerOracle> oracle, const SolveContext& context);

/// Population-uncertainty decorator (paper Sec. V): the miner count is a
/// random variable, so the oracle reports the Monte-Carlo expectation of
/// the symmetric (K = 1) equilibrium over sampled counts. Draws are a
/// function of context.rng_root alone (one fixed stream, counts histogrammed before
/// solving), distinct counts are solved concurrently via context.threads,
/// and the mixture is accumulated in count order — bitwise deterministic
/// for every thread setting. Sampled counts are clamped to >= 2 (the
/// symmetric game needs an opponent). totals hold E[N * request]; the
/// one-class profile's request/utility hold the expectation over counts.
class PopulationExpectationOracle final : public FollowerOracle {
 public:
  PopulationExpectationOracle(NetworkParams params, double budget,
                              PopulationModel population, EdgeMode mode,
                              int samples, SolveContext context = {});

  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const override;
  /// Expected miner count (rounded truncated-law mean, clamped to >= 2).
  [[nodiscard]] int miner_count() const override;
  [[nodiscard]] EdgeMode mode() const override { return mode_; }

 private:
  NetworkParams params_;
  double budget_;
  PopulationModel population_;
  EdgeMode mode_;
  int samples_;
  SolveContext context_;
};

/// Builds the oracle for a follower game: the ClassAggregateOracle over
/// `budgets` in `mode`, instrumented when context.telemetry is set.
/// Tolerances come from context.follower.
[[nodiscard]] std::unique_ptr<FollowerOracle> make_follower_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context = {});

/// Scenario convenience: a PopulationExpectationOracle when the scenario
/// carries a population model (`population_samples` Monte-Carlo draws),
/// else the oracle above.
[[nodiscard]] std::unique_ptr<FollowerOracle> make_follower_oracle(
    const Scenario& scenario, const SolveContext& context = {},
    int population_samples = 256);

/// One-shot: equilibrium at `prices` through make_follower_oracle.
[[nodiscard]] EquilibriumProfile solve_followers(
    const NetworkParams& params, const Prices& prices,
    const std::vector<double>& budgets, EdgeMode mode,
    const SolveContext& context = {});

/// One-shot homogeneous solve: n identical miners of budget B (one class,
/// no budget vector built).
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

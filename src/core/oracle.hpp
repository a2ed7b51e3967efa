// The FollowerOracle layer: one interface for every follower-stage solve.
//
// The paper exposes the follower stage through two edge modes (connected
// NEP, Thm 2; standalone GNEP, Thm 5) and a homogeneous fast path
// (Thm 3/4, Table II), which historically meant six entry points with
// three incompatible result structs. Upper layers — the SP leader stage,
// the dynamic-population game, RL references, sweeps and benches — only
// ever need "equilibrium at these prices", so this header collapses the
// family behind a single abstract oracle:
//
//   FollowerOracle
//     solve(prices) -> EquilibriumProfile    (the one unified result type)
//
// Concrete oracles wrap each solver (ConnectedNepOracle,
// StandaloneGnepOracle with a shared-price/VI algorithm switch,
// SymmetricFollowerOracle for the homogeneous fixed point,
// ClassAggregateOracle in core/aggregate_oracle.hpp); decorators add
// instrumentation (InstrumentedFollowerOracle) and population uncertainty
// (PopulationExpectationOracle, Sec. V's random miner count by
// deterministic Monte-Carlo). make_follower_oracle picks the symmetric
// fast path automatically when all budgets are equal
// (Scenario::homogeneous()) and layers the instrumentation when the
// SolveContext carries a telemetry sink, so a new workload is a
// constructor call — not a new solver family.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/equilibrium.hpp"
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

/// Unified follower-stage equilibrium: the one result type every oracle
/// returns. Symmetric solves store a single per-miner request/utility
/// (requests.size() == 1, symmetric == true); profile solves store all n.
/// Accessors hide the difference so consumers never branch on the shape.
struct EquilibriumProfile {
  /// Budget-class shape of a class-aggregate solve (ClassAggregateOracle,
  /// core/aggregate_oracle.hpp): requests/utilities then hold one entry per
  /// class and `of` maps each miner index to its class. The shape is shared
  /// and immutable so profile copies stay O(K), not O(N).
  struct ClassShape {
    std::vector<std::uint32_t> of;  ///< miner index -> class index (size n)
    std::vector<int> counts;        ///< miners per class (size K)
    std::vector<double> budgets;    ///< class budget keys (size K)
  };

  int miner_count = 0;       ///< n — number of followers represented
  bool symmetric = false;    ///< true: requests/utilities hold one entry
  std::vector<MinerRequest> requests;  ///< per-miner NE requests (or 1/K)
  Totals totals;             ///< E*, C* across all miner_count miners
  std::vector<double> utilities;       ///< U_i at equilibrium (or 1/K)
  /// Null for dense and symmetric solves; set by class-aggregate solves,
  /// in which case requests/utilities are per class (see ClassShape).
  std::shared_ptr<const ClassShape> classes;
  double surcharge = 0.0;    ///< GNEP shadow price on E <= E_max (0 if slack)
  bool cap_active = false;   ///< standalone only: capacity constraint binds
  bool converged = false;
  int iterations = 0;        ///< solver sweeps (inner solves for GNEP)
  double residual = 0.0;     ///< last profile change / VI natural residual

  /// True when the profile carries a class-aggregate shape.
  [[nodiscard]] bool class_shaped() const noexcept {
    return classes != nullptr;
  }

  /// Miner i's request; any index maps to the shared entry when symmetric,
  /// and through the class map when class-shaped (lazy expansion — no
  /// per-miner storage is materialized).
  [[nodiscard]] const MinerRequest& request(std::size_t i = 0) const;
  /// Miner i's equilibrium utility; symmetric maps every index to entry 0,
  /// class-shaped maps through the class map.
  [[nodiscard]] double utility(std::size_t i = 0) const;
  /// Full per-miner request vector of size miner_count (replicates the
  /// shared request when symmetric, expands the class map when
  /// class-shaped).
  [[nodiscard]] std::vector<MinerRequest> expanded() const;

  /// Convergence summary in the cross-solver vocabulary
  /// (support/convergence.hpp); ViResult and SharedPriceGnepResult expose
  /// the same accessor.
  [[nodiscard]] support::ConvergenceReport report() const noexcept {
    return {converged, iterations, residual};
  }
};

/// MinerEquilibrium -> unified profile (heterogeneous shape).
[[nodiscard]] EquilibriumProfile to_profile(const MinerEquilibrium& eq);

/// SymmetricEquilibrium -> unified profile. The symmetric result has no
/// utilities, so they are recomputed from the fixed point (budget, n and
/// mode say which utility function applies).
[[nodiscard]] EquilibriumProfile to_profile(const SymmetricEquilibrium& eq,
                                            const NetworkParams& params,
                                            const Prices& prices, double budget,
                                            int n, EdgeMode mode);

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

/// Connected-mode NEP oracle (Problem 1a, Theorem 2): heterogeneous
/// budgets, full profile via damped best response.
class ConnectedNepOracle final : public FollowerOracle {
 public:
  ConnectedNepOracle(NetworkParams params, std::vector<double> budgets,
                     MinerSolveOptions options = {});

  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const override;
  [[nodiscard]] int miner_count() const override;
  [[nodiscard]] EdgeMode mode() const override { return EdgeMode::kConnected; }

 private:
  NetworkParams params_;
  std::vector<double> budgets_;
  MinerSolveOptions options_;
};

/// Which algorithm a StandaloneGnepOracle runs. Both compute the same
/// variational equilibrium; the VI route is slower and kept as an
/// independent cross-check (tests assert agreement).
enum class GnepAlgorithm {
  kSharedPrice,  ///< shared-surcharge decomposition (Algorithm 2 structure)
  kVi,           ///< extragradient on the equivalent VI(K, F)
};

/// Standalone-mode GNEP oracle (Problem 1c, Theorem 5): heterogeneous
/// budgets under the shared edge-capacity constraint.
class StandaloneGnepOracle final : public FollowerOracle {
 public:
  StandaloneGnepOracle(NetworkParams params, std::vector<double> budgets,
                       GnepAlgorithm algorithm = GnepAlgorithm::kSharedPrice,
                       MinerSolveOptions options = {});

  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const override;
  [[nodiscard]] int miner_count() const override;
  [[nodiscard]] EdgeMode mode() const override { return EdgeMode::kStandalone; }
  [[nodiscard]] GnepAlgorithm algorithm() const noexcept { return algorithm_; }

 private:
  NetworkParams params_;
  std::vector<double> budgets_;
  GnepAlgorithm algorithm_;
  MinerSolveOptions options_;
};

/// Homogeneous fast-path oracle: the symmetric fixed point (closed forms of
/// Thm 3/4 and Table II when they verify, damped iteration otherwise).
/// O(n) cheaper than the profile oracles; make_follower_oracle dispatches
/// here automatically when every budget is equal.
class SymmetricFollowerOracle final : public FollowerOracle {
 public:
  SymmetricFollowerOracle(NetworkParams params, double budget, int n,
                          EdgeMode mode, MinerSolveOptions options = {});

  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const override;
  [[nodiscard]] int miner_count() const override { return n_; }
  [[nodiscard]] EdgeMode mode() const override { return mode_; }

 private:
  NetworkParams params_;
  double budget_;
  int n_;
  EdgeMode mode_;
  MinerSolveOptions options_;
};

/// Observability decorator: counts solves and non-converged results and
/// histograms per-solve wall time and iteration counts into a
/// support::Telemetry sink (metric names `oracle.solves`,
/// `oracle.nonconverged`, `oracle.solve_ms`, `oracle.iterations`). It also
/// installs the sink as the thread-local telemetry for the duration of each
/// solve — on whichever pool worker runs it — so the deep numeric layers
/// (VI extragradient, GNEP bisection) can record through
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
/// the symmetric equilibrium over sampled counts. Draws are a function of
/// context.rng_root alone (one fixed stream, counts histogrammed before
/// solving), distinct counts are solved concurrently via context.threads,
/// and the mixture is accumulated in count order — bitwise deterministic
/// for every thread setting. Sampled counts are clamped to >= 2 (the
/// symmetric game needs an opponent). totals hold E[N * request]; the
/// per-miner request/utility entries hold the expectation over counts.
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

/// Builds the right oracle for a follower game: the symmetric fast path
/// when all budgets are equal and n >= 2, otherwise the full-profile
/// NEP/GNEP for `mode` (the class-aggregate oracle when context.aggregate
/// opts in); instrumented when context.telemetry is set. Tolerances come
/// from context.follower.
[[nodiscard]] std::unique_ptr<FollowerOracle> make_follower_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context = {});

/// Scenario convenience: dispatches on Scenario::homogeneous() and wraps
/// in a PopulationExpectationOracle when the scenario carries a population
/// model (`population_samples` Monte-Carlo draws).
[[nodiscard]] std::unique_ptr<FollowerOracle> make_follower_oracle(
    const Scenario& scenario, const SolveContext& context = {},
    int population_samples = 256);

/// One-shot: equilibrium at `prices` through make_follower_oracle.
[[nodiscard]] EquilibriumProfile solve_followers(
    const NetworkParams& params, const Prices& prices,
    const std::vector<double>& budgets, EdgeMode mode,
    const SolveContext& context = {});

/// One-shot symmetric fast path: n identical miners of budget B.
[[nodiscard]] EquilibriumProfile solve_followers_symmetric(
    const NetworkParams& params, const Prices& prices, double budget, int n,
    EdgeMode mode, const SolveContext& context = {});

/// Exploitability certificate for a unified profile: largest unilateral
/// gain any miner can get by deviating (the mode and the profile's
/// surcharge select the penalized game — see the vector overload in
/// core/equilibrium.hpp). `budgets` must have miner_count entries, or a
/// single entry shared by all miners when the profile is symmetric.
[[nodiscard]] double miner_exploitability(const NetworkParams& params,
                                          const Prices& prices,
                                          const std::vector<double>& budgets,
                                          const EquilibriumProfile& profile,
                                          EdgeMode mode);

}  // namespace hecmine::core

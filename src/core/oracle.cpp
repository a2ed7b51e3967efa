#include "core/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/aggregate_oracle.hpp"
#include "core/kernels.hpp"
#include "core/miner.hpp"
#include "core/scenario.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

const MinerRequest& EquilibriumProfile::request(std::size_t i) const {
  HECMINE_REQUIRE(!requests.empty(), "EquilibriumProfile: empty profile");
  if (symmetric) return requests.front();
  if (classes != nullptr) {
    HECMINE_REQUIRE(i < classes->of.size(),
                    "EquilibriumProfile: miner index out of range");
    return requests[classes->of[i]];
  }
  HECMINE_REQUIRE(i < requests.size(),
                  "EquilibriumProfile: miner index out of range");
  return requests[i];
}

double EquilibriumProfile::utility(std::size_t i) const {
  HECMINE_REQUIRE(!utilities.empty(), "EquilibriumProfile: empty profile");
  if (symmetric) return utilities.front();
  if (classes != nullptr) {
    HECMINE_REQUIRE(i < classes->of.size(),
                    "EquilibriumProfile: miner index out of range");
    return utilities[classes->of[i]];
  }
  HECMINE_REQUIRE(i < utilities.size(),
                  "EquilibriumProfile: miner index out of range");
  return utilities[i];
}

std::vector<MinerRequest> EquilibriumProfile::expanded() const {
  if (symmetric) {
    HECMINE_REQUIRE(!requests.empty(), "EquilibriumProfile: empty profile");
    return std::vector<MinerRequest>(static_cast<std::size_t>(miner_count),
                                     requests.front());
  }
  if (classes != nullptr) {
    std::vector<MinerRequest> out;
    out.reserve(classes->of.size());
    for (std::uint32_t k : classes->of) out.push_back(requests[k]);
    return out;
  }
  return requests;
}

EquilibriumProfile to_profile(const MinerEquilibrium& eq) {
  EquilibriumProfile profile;
  profile.miner_count = static_cast<int>(eq.requests.size());
  profile.symmetric = false;
  profile.requests = eq.requests;
  profile.totals = eq.totals;
  profile.utilities = eq.utilities;
  profile.surcharge = eq.surcharge;
  profile.cap_active = eq.cap_active;
  profile.converged = eq.converged;
  profile.iterations = eq.iterations;
  profile.residual = eq.residual;
  return profile;
}

EquilibriumProfile to_profile(const SymmetricEquilibrium& eq,
                              const NetworkParams& params, const Prices& prices,
                              [[maybe_unused]] double budget, int n,
                              EdgeMode mode) {
  HECMINE_REQUIRE(n >= 1, "to_profile: miner count must be >= 1");
  EquilibriumProfile profile;
  profile.miner_count = n;
  profile.symmetric = true;
  profile.requests = {eq.request};
  const double dn = static_cast<double>(n);
  profile.totals = {dn * eq.request.edge, dn * eq.request.cloud};
  // True (surcharge-free) utility at the symmetric point, as in the profile
  // solvers; one kernel env replaces the per-call MinerEnv construction.
  const double edge_success =
      mode == EdgeMode::kConnected ? params.edge_success : 1.0;
  const KernelEnv env = make_kernel_env(params, prices, edge_success, 0.0);
  const double others_edge = (dn - 1.0) * eq.request.edge;
  const double others_grand = others_edge + (dn - 1.0) * eq.request.cloud;
  profile.utilities = {utility_kernel(env, eq.request.edge, eq.request.cloud,
                                      others_edge, others_grand)};
  profile.surcharge = eq.surcharge;
  profile.cap_active = eq.cap_active;
  profile.converged = eq.converged;
  profile.iterations = eq.iterations;
  profile.residual = 0.0;
  return profile;
}

ConnectedNepOracle::ConnectedNepOracle(NetworkParams params,
                                       std::vector<double> budgets,
                                       MinerSolveOptions options)
    : params_(params), budgets_(std::move(budgets)), options_(options) {
  HECMINE_REQUIRE(!budgets_.empty(), "ConnectedNepOracle: no miners");
}

EquilibriumProfile ConnectedNepOracle::solve(const Prices& prices) const {
  return to_profile(solve_connected_nep(params_, prices, budgets_, options_));
}

int ConnectedNepOracle::miner_count() const {
  return static_cast<int>(budgets_.size());
}

StandaloneGnepOracle::StandaloneGnepOracle(NetworkParams params,
                                           std::vector<double> budgets,
                                           GnepAlgorithm algorithm,
                                           MinerSolveOptions options)
    : params_(params),
      budgets_(std::move(budgets)),
      algorithm_(algorithm),
      options_(options) {
  HECMINE_REQUIRE(!budgets_.empty(), "StandaloneGnepOracle: no miners");
}

EquilibriumProfile StandaloneGnepOracle::solve(const Prices& prices) const {
  const MinerEquilibrium eq =
      algorithm_ == GnepAlgorithm::kSharedPrice
          ? solve_standalone_gnep(params_, prices, budgets_, options_)
          : solve_standalone_gnep_vi(params_, prices, budgets_, options_);
  return to_profile(eq);
}

int StandaloneGnepOracle::miner_count() const {
  return static_cast<int>(budgets_.size());
}

SymmetricFollowerOracle::SymmetricFollowerOracle(NetworkParams params,
                                                 double budget, int n,
                                                 EdgeMode mode,
                                                 MinerSolveOptions options)
    : params_(params), budget_(budget), n_(n), mode_(mode), options_(options) {
  HECMINE_REQUIRE(n >= 2, "SymmetricFollowerOracle: n >= 2 required");
}

EquilibriumProfile SymmetricFollowerOracle::solve(const Prices& prices) const {
  const SymmetricEquilibrium eq =
      mode_ == EdgeMode::kConnected
          ? solve_symmetric_connected(params_, prices, budget_, n_, options_)
          : solve_symmetric_standalone(params_, prices, budget_, n_, options_);
  return to_profile(eq, params_, prices, budget_, n_, mode_);
}

InstrumentedFollowerOracle::InstrumentedFollowerOracle(
    std::unique_ptr<FollowerOracle> inner, support::Telemetry& telemetry)
    : inner_(std::move(inner)),
      telemetry_(&telemetry),
      solves_(telemetry.metrics.counter("oracle.solves")),
      nonconverged_(telemetry.metrics.counter("oracle.nonconverged")),
      solve_ms_(telemetry.metrics.histogram(
          "oracle.solve_ms", support::geometric_edges(0.001, 2.0, 24))),
      iterations_(telemetry.metrics.histogram(
          "oracle.iterations", support::geometric_edges(1.0, 2.0, 16))) {
  HECMINE_REQUIRE(inner_ != nullptr,
                  "InstrumentedFollowerOracle: null inner oracle");
}

EquilibriumProfile InstrumentedFollowerOracle::solve(
    const Prices& prices) const {
  // The scope makes the sink visible to the VI/GNEP layers on this thread
  // for exactly the duration of the inner solve.
  const support::TelemetryScope scope(telemetry_);
  const support::SolveTrace::Scope span(&telemetry_->trace, "oracle.solve");
  support::ScopedTimer timer(&solve_ms_);
  const EquilibriumProfile profile = inner_->solve(prices);
  const support::ConvergenceReport report = profile.report();
  solves_.add();
  if (!report.converged) nonconverged_.add();
  iterations_.observe(static_cast<double>(report.iterations));
  return profile;
}

int InstrumentedFollowerOracle::miner_count() const {
  return inner_->miner_count();
}

EdgeMode InstrumentedFollowerOracle::mode() const { return inner_->mode(); }

std::unique_ptr<FollowerOracle> decorate_follower_oracle(
    std::unique_ptr<FollowerOracle> oracle, const SolveContext& context) {
  HECMINE_REQUIRE(oracle != nullptr, "decorate_follower_oracle: null oracle");
  if (context.telemetry != nullptr)
    oracle = std::make_unique<InstrumentedFollowerOracle>(std::move(oracle),
                                                          *context.telemetry);
  return oracle;
}

PopulationExpectationOracle::PopulationExpectationOracle(
    NetworkParams params, double budget, PopulationModel population,
    EdgeMode mode, int samples, SolveContext context)
    : params_(params),
      budget_(budget),
      population_(std::move(population)),
      mode_(mode),
      samples_(samples),
      context_(context) {
  HECMINE_REQUIRE(samples >= 1,
                  "PopulationExpectationOracle: samples >= 1 required");
}

EquilibriumProfile PopulationExpectationOracle::solve(
    const Prices& prices) const {
  // Draws depend on rng_root alone; the histogram decouples sampling from
  // solving so the thread schedule can never reorder the accumulation.
  support::Rng rng(context_.rng_root);
  std::map<int, int> histogram;
  for (int s = 0; s < samples_; ++s) {
    const int count = std::max(2, population_.sample(rng));
    ++histogram[count];
  }
  std::vector<std::pair<int, int>> counts(histogram.begin(), histogram.end());

  const auto solved = support::parallel_map(
      counts.size(),
      [&](std::size_t i) {
        const int n = counts[i].first;
        const SymmetricEquilibrium eq =
            mode_ == EdgeMode::kConnected
                ? solve_symmetric_connected(params_, prices, budget_, n,
                                            context_.follower)
                : solve_symmetric_standalone(params_, prices, budget_, n,
                                             context_.follower);
        return to_profile(eq, params_, prices, budget_, n, mode_);
      },
      context_.threads);

  EquilibriumProfile result;
  result.symmetric = true;
  result.converged = true;
  MinerRequest request;
  double utility = 0.0;
  double expected_count = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double weight = static_cast<double>(counts[i].second) /
                          static_cast<double>(samples_);
    const EquilibriumProfile& part = solved[i];
    request.edge += weight * part.requests.front().edge;
    request.cloud += weight * part.requests.front().cloud;
    result.totals.edge += weight * part.totals.edge;
    result.totals.cloud += weight * part.totals.cloud;
    utility += weight * part.utilities.front();
    result.surcharge += weight * part.surcharge;
    result.cap_active = result.cap_active || part.cap_active;
    result.converged = result.converged && part.converged;
    result.iterations += part.iterations;
    expected_count += weight * static_cast<double>(counts[i].first);
  }
  result.requests = {request};
  result.utilities = {utility};
  result.miner_count =
      std::max(2, static_cast<int>(std::lround(expected_count)));
  return result;
}

int PopulationExpectationOracle::miner_count() const {
  return std::max(2, static_cast<int>(std::lround(population_.mean())));
}

std::unique_ptr<FollowerOracle> make_follower_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context) {
  HECMINE_REQUIRE(!budgets.empty(), "make_follower_oracle: no miners");
  // The symmetric fast path needs a strictly positive budget; degenerate
  // all-zero pools fall through to the profile oracles, which return the
  // empty equilibrium instead of rejecting the input.
  const bool homogeneous =
      budgets.size() >= 2 && budgets.front() > 0.0 &&
      std::all_of(budgets.begin(), budgets.end(),
                  [&](double b) { return b == budgets.front(); });
  std::unique_ptr<FollowerOracle> oracle;
  if (homogeneous) {
    oracle = std::make_unique<SymmetricFollowerOracle>(
        params, budgets.front(), static_cast<int>(budgets.size()), mode,
        context.follower);
  } else {
    // Heterogeneous pools route through the profile-oracle factory, which
    // honors context.aggregate's opt-in class-aggregate dispatch.
    oracle = make_profile_oracle(params, budgets, mode, context);
  }
  return decorate_follower_oracle(std::move(oracle), context);
}

std::unique_ptr<FollowerOracle> make_follower_oracle(const Scenario& scenario,
                                                     const SolveContext& context,
                                                     int population_samples) {
  if (scenario.population.has_value()) {
    HECMINE_REQUIRE(scenario.homogeneous(),
                    "make_follower_oracle: population scenarios need "
                    "homogeneous budgets");
    HECMINE_REQUIRE(!scenario.budgets.empty(),
                    "make_follower_oracle: no miners");
    // Sec. V dynamics: the edge success of the dynamic game replaces the
    // static h (matches fixed_population_benchmark in core/dynamic.cpp).
    NetworkParams params = scenario.params;
    if (scenario.mode == EdgeMode::kConnected)
      params.edge_success = scenario.edge_success_dynamic;
    std::unique_ptr<FollowerOracle> oracle =
        std::make_unique<PopulationExpectationOracle>(
            params, scenario.budgets.front(), *scenario.population,
            scenario.mode, population_samples, context);
    return decorate_follower_oracle(std::move(oracle), context);
  }
  return make_follower_oracle(scenario.params, scenario.budgets, scenario.mode,
                              context);
}

EquilibriumProfile solve_followers(const NetworkParams& params,
                                   const Prices& prices,
                                   const std::vector<double>& budgets,
                                   EdgeMode mode, const SolveContext& context) {
  return make_follower_oracle(params, budgets, mode, context)->solve(prices);
}

EquilibriumProfile solve_followers_symmetric(const NetworkParams& params,
                                             const Prices& prices,
                                             double budget, int n,
                                             EdgeMode mode,
                                             const SolveContext& context) {
  std::unique_ptr<FollowerOracle> oracle =
      std::make_unique<SymmetricFollowerOracle>(params, budget, n, mode,
                                                context.follower);
  return decorate_follower_oracle(std::move(oracle), context)->solve(prices);
}

double miner_exploitability(const NetworkParams& params, const Prices& prices,
                            const std::vector<double>& budgets,
                            const EquilibriumProfile& profile, EdgeMode mode) {
  const auto n = static_cast<std::size_t>(profile.miner_count);
  std::vector<double> per_miner;
  if (profile.symmetric && budgets.size() == 1) {
    per_miner.assign(n, budgets.front());
  } else {
    HECMINE_REQUIRE(budgets.size() == n,
                    "miner_exploitability: profile/budget size mismatch");
    per_miner = budgets;
  }
  return miner_exploitability(params, prices, per_miner, profile.expanded(),
                              mode == EdgeMode::kConnected, profile.surcharge);
}

}  // namespace hecmine::core

#include "core/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/aggregate_oracle.hpp"
#include "core/equilibrium.hpp"
#include "core/scenario.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

namespace {

/// Index of miner i's entry in a profile's requests/utilities.
std::size_t entry_of(const EquilibriumProfile& profile, std::size_t i) {
  HECMINE_REQUIRE(i < static_cast<std::size_t>(profile.miner_count),
                  "EquilibriumProfile: miner index out of range");
  if (profile.classes == nullptr) return i;
  return profile.classes->of.empty() ? 0 : profile.classes->of[i];
}

}  // namespace

const MinerRequest& EquilibriumProfile::request(std::size_t i) const {
  HECMINE_REQUIRE(!requests.empty(), "EquilibriumProfile: empty profile");
  return requests[entry_of(*this, i)];
}

double EquilibriumProfile::utility(std::size_t i) const {
  HECMINE_REQUIRE(!utilities.empty(), "EquilibriumProfile: empty profile");
  return utilities[entry_of(*this, i)];
}

std::vector<MinerRequest> EquilibriumProfile::expanded() const {
  const auto n = static_cast<std::size_t>(miner_count);
  std::vector<MinerRequest> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(request(i));
  return out;
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
        return ClassAggregateOracle(params_, budget_, counts[i].first, mode_,
                                    context_.follower)
            .solve(prices);
      },
      context_.threads);

  EquilibriumProfile result;
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
  auto shape = std::make_shared<EquilibriumProfile::ClassShape>();
  shape->counts = {result.miner_count};
  shape->budgets = {budget_};
  result.classes = std::move(shape);
  return result;
}

int PopulationExpectationOracle::miner_count() const {
  return std::max(2, static_cast<int>(std::lround(population_.mean())));
}

std::unique_ptr<FollowerOracle> make_follower_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context) {
  return decorate_follower_oracle(
      std::make_unique<ClassAggregateOracle>(params, budgets, mode,
                                             context.follower),
      context);
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
  return decorate_follower_oracle(
             std::make_unique<ClassAggregateOracle>(params, budget, n, mode,
                                                    context.follower),
             context)
      ->solve(prices);
}

double miner_exploitability(const NetworkParams& params, const Prices& prices,
                            const std::vector<double>& budgets,
                            const EquilibriumProfile& profile, EdgeMode mode) {
  const auto n = static_cast<std::size_t>(profile.miner_count);
  std::vector<double> per_miner;
  if (budgets.size() == 1 && profile.requests.size() == 1) {
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

#include "core/oracle.hpp"

#include "core/equilibrium.hpp"
#include "support/error.hpp"
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

void FollowerOracle::instrument(support::Telemetry* telemetry) {
  if (telemetry == nullptr) return;
  telemetry_ = telemetry;
  solves_ = &telemetry->metrics.counter("oracle.solves");
  nonconverged_ = &telemetry->metrics.counter("oracle.nonconverged");
  solve_ms_ = &telemetry->metrics.histogram(
      "oracle.solve_ms", support::geometric_edges(0.001, 2.0, 24));
  iterations_ = &telemetry->metrics.histogram(
      "oracle.iterations", support::geometric_edges(1.0, 2.0, 16));
}

EquilibriumProfile FollowerOracle::solve(const Prices& prices) const {
  if (telemetry_ == nullptr) return solve_classes(prices);
  // The scope makes the sink visible to the class solver on this thread
  // for exactly the duration of the solve.
  const support::TelemetryScope scope(telemetry_);
  const support::SolveTrace::Scope span(&telemetry_->trace, "oracle.solve");
  support::ScopedTimer timer(solve_ms_);
  const EquilibriumProfile profile = solve_classes(prices);
  const support::ConvergenceReport report = profile.report();
  solves_->add();
  if (!report.converged) nonconverged_->add();
  iterations_->observe(static_cast<double>(report.iterations));
  return profile;
}

std::unique_ptr<FollowerOracle> make_follower_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context) {
  return std::make_unique<FollowerOracle>(params, budgets, mode, context);
}

EquilibriumProfile solve_followers(const NetworkParams& params,
                                   const Prices& prices,
                                   const std::vector<double>& budgets,
                                   EdgeMode mode, const SolveContext& context) {
  return FollowerOracle(params, budgets, mode, context).solve(prices);
}

EquilibriumProfile solve_followers_symmetric(const NetworkParams& params,
                                             const Prices& prices,
                                             double budget, int n,
                                             EdgeMode mode,
                                             const SolveContext& context) {
  return FollowerOracle(params, budget, n, mode, context).solve(prices);
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

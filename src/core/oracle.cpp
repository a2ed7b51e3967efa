#include "core/oracle.hpp"

#include <optional>

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

/// The trace of a one-shot follower stage's `followers` span (null, so the
/// span records nothing, without a sink).
support::SolveTrace* followers_trace(const SolveContext& context) {
  return context.telemetry == nullptr ? nullptr : &context.telemetry->trace;
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
  residual_max_ = &telemetry->metrics.gauge("oracle.residual_max");
  telemetry->metrics.gauge("oracle.aggregate.classes")
      .set(static_cast<double>(class_count()));
}

EquilibriumProfile FollowerOracle::solve(const Prices& prices) const {
  if (telemetry_ == nullptr) return solve_classes(prices);
  // The class solver's work counters land in the thread's current sink.
  // The leader stage and the pool's tasks install this sink once for all
  // their solves; only a solve called outside them installs it here.
  std::optional<support::TelemetryScope> scope;
  if (support::current_telemetry() != telemetry_) scope.emplace(telemetry_);
  EquilibriumProfile profile = solve_classes(prices);
  solves_->add();
  if (!profile.converged) nonconverged_->add();
  residual_max_->raise_to(profile.residual);
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
  const support::SolveTrace::Scope span(followers_trace(context), "followers");
  return FollowerOracle(params, budgets, mode, context).solve(prices);
}

EquilibriumProfile solve_followers_symmetric(const NetworkParams& params,
                                             const Prices& prices,
                                             double budget, int n,
                                             EdgeMode mode,
                                             const SolveContext& context) {
  const support::SolveTrace::Scope span(followers_trace(context), "followers");
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

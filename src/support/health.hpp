// The watchdog vocabulary of the campaign drift monitor
// (net::CampaignMonitor): the escalation policy, the classification and the
// typed abort error, and the hecmine.health.v1 event line the flight
// stream carries.
//
// The monitor raises an incident when a campaign's empirical win rates
// drift from the reference equilibrium; the policy decides what follows:
// observe keeps the gauges and the retained events, warn also logs one line
// per incident, and abort throws SolverHealthError from the offending block
// (hecmine_cli exits 5).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "support/provenance.hpp"

namespace hecmine::support::health {

/// What the watchdog does when it raises an incident.
enum class WatchdogAction {
  kObserve,  ///< record gauges + events only
  kWarn,     ///< observe + log a warning per incident
  kAbort,    ///< warn + throw SolverHealthError
};

/// Parses "observe" / "warn" / "abort" (throws PreconditionError otherwise).
[[nodiscard]] WatchdogAction parse_watchdog_action(const std::string& text);
[[nodiscard]] const char* watchdog_action_name(WatchdogAction action);

/// Classification carried by an incident.
enum class LoopState {
  kHealthy,
  kStalled,
  kOscillating,
  kDiverging,
};

[[nodiscard]] const char* loop_state_name(LoopState state);

/// Typed error thrown by the abort escalation path. Unwinds the loop that
/// raised the incident, on that loop's own thread.
class SolverHealthError : public std::runtime_error {
 public:
  SolverHealthError(std::string solver, std::uint64_t solve, int iteration,
                    LoopState state, double rho, double residual);

  [[nodiscard]] const std::string& solver() const noexcept { return solver_; }
  [[nodiscard]] std::uint64_t solve() const noexcept { return solve_; }
  [[nodiscard]] int iteration() const noexcept { return iteration_; }
  [[nodiscard]] LoopState state() const noexcept { return state_; }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] double residual() const noexcept { return residual_; }

 private:
  std::string solver_;
  std::uint64_t solve_;
  int iteration_;
  LoopState state_;
  double rho_;
  double residual_;
};

/// One structured watchdog event (schema hecmine.health.v1).
struct HealthEvent {
  std::string solver;  ///< label of the loop that raised it
  std::uint64_t solve = 0;
  int iteration = 0;
  LoopState classification = LoopState::kHealthy;
  double residual = 0.0;
  double tolerance = 0.0;
  double rho = 0.0;
  double window_min = 0.0;
  double window_max = 0.0;
  double predicted_iterations = 0.0;
  WatchdogAction action = WatchdogAction::kObserve;
};

/// Serializes one event as a single hecmine.health.v1 JSON line (newline
/// included). When `manifest` is non-null its git sha is embedded so a
/// flight tail can be traced back to the producing build.
[[nodiscard]] std::string event_json(
    const HealthEvent& event,
    const provenance::RunManifest* manifest = nullptr);

}  // namespace hecmine::support::health

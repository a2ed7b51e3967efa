#include "support/health.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/json.hpp"

namespace hecmine::support::health {

WatchdogAction parse_watchdog_action(const std::string& text) {
  if (text == "observe") return WatchdogAction::kObserve;
  if (text == "warn") return WatchdogAction::kWarn;
  if (text == "abort") return WatchdogAction::kAbort;
  throw PreconditionError("unknown watchdog action: '" + text +
                          "' (expected observe|warn|abort)");
}

const char* watchdog_action_name(WatchdogAction action) {
  switch (action) {
    case WatchdogAction::kObserve:
      return "observe";
    case WatchdogAction::kWarn:
      return "warn";
    case WatchdogAction::kAbort:
      return "abort";
  }
  return "?";
}

const char* loop_state_name(LoopState state) {
  switch (state) {
    case LoopState::kHealthy:
      return "healthy";
    case LoopState::kStalled:
      return "stalled";
    case LoopState::kOscillating:
      return "oscillating";
    case LoopState::kDiverging:
      return "diverging";
  }
  return "?";
}

SolverHealthError::SolverHealthError(std::string solver, std::uint64_t solve,
                                     int iteration, LoopState state,
                                     double rho, double residual)
    : std::runtime_error([&] {
        std::ostringstream os;
        os << "solver health watchdog aborted " << solver << " solve #"
           << solve << " at iteration " << iteration << ": "
           << loop_state_name(state) << " (rho=" << rho
           << ", residual=" << residual << ")";
        return os.str();
      }()),
      solver_(std::move(solver)),
      solve_(solve),
      iteration_(iteration),
      state_(state),
      rho_(rho),
      residual_(residual) {}

std::string event_json(const HealthEvent& event,
                       const provenance::RunManifest* manifest) {
  std::ostringstream os;
  json::Writer writer(os);
  writer.begin_object();
  writer.member("schema", "hecmine.health.v1");
  writer.member("solver", event.solver);
  writer.member("solve", event.solve);
  writer.member("iteration", event.iteration);
  writer.member("classification", loop_state_name(event.classification));
  writer.member("residual", event.residual);
  writer.member("tolerance", event.tolerance);
  writer.member("rho", event.rho);
  writer.member("window_min", event.window_min);
  writer.member("window_max", event.window_max);
  writer.member("predicted_iterations", event.predicted_iterations);
  writer.member("action", watchdog_action_name(event.action));
  if (manifest != nullptr) writer.member("git_sha", manifest->git_sha);
  writer.end_object();
  writer.finish();
  return os.str();
}

}  // namespace hecmine::support::health

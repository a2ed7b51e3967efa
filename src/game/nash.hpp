// Strategy-profile vocabulary shared by the follower solvers: per-player
// strategy vectors, their flat (VI) layout, and the iteration-probe binding
// the batched sweeps (core/kernels.hpp) feed.
#pragma once

#include <cstddef>
#include <vector>

namespace hecmine::game {

/// A strategy profile stored per player.
using Profile = std::vector<std::vector<double>>;

/// Flattens a profile into one contiguous vector (player-major order).
[[nodiscard]] std::vector<double> flatten(const Profile& profile);

/// Splits a flat vector back into per-player strategies of the given sizes.
[[nodiscard]] Profile unflatten(const std::vector<double>& flat,
                                const std::vector<std::size_t>& sizes);

/// Binds an IterationProbe feed to a best-response solve. The sweep loop
/// knows nothing about prices, so the caller supplies the label and the
/// price context that should ride along on every record; the loop adds the
/// per-iteration state (residual, damping, aggregates). Records flow to
/// the thread's current telemetry sink (support::current_telemetry()) and
/// only when its probe is armed, so the binding itself costs nothing on
/// the null-sink path.
struct ProbeBinding {
  const char* solver = "nash.best_response";  ///< static label, never null
  double price_edge = 0.0;
  double price_cloud = 0.0;
};

}  // namespace hecmine::game

// OpenMetrics text exporter: the telemetry sink as a Prometheus-scrapable
// snapshot.
//
// render_openmetrics() serializes the metrics registry (counters, gauges,
// histograms — including the health.* gauges when a HealthMonitor is
// attached), the deterministic work-counter totals, and the run-provenance
// manifest as one OpenMetrics 1.0 text document:
//
//   # TYPE hecmine_oracle_solves counter
//   hecmine_oracle_solves_total 42
//   # TYPE hecmine_campaign_incidents gauge
//   hecmine_campaign_incidents 0
//   # TYPE hecmine_solve_ms histogram
//   hecmine_solve_ms_bucket{le="1"} 3
//   ...
//   # EOF
//
// Dotted hecmine metric names are mangled to the Prometheus charset
// (dots -> underscores) under a "hecmine_" prefix; build provenance rides
// as a `hecmine_build` info metric. The document is deterministic for a
// fixed registry state (instruments sorted by name), so a snapshot file
// can be diffed or golden-tested. This file is what a later `hecmined`
// daemon will serve verbatim from /metrics; until then a --run-dir bundle
// carries it as metrics.om next to the other run artifacts, where
// node_exporter's textfile collector (or `promtool check metrics`) can
// pick it up.
//
// lint_openmetrics() is the structural validator CI runs over emitted
// snapshots: exposition-format line shapes, TYPE-before-samples, counter
// `_total` naming, histogram bucket monotonicity + `+Inf` coverage, and
// the `# EOF` terminator.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/telemetry.hpp"

namespace hecmine::support {

/// Mangles a dotted instrument name to the OpenMetrics charset under the
/// "hecmine_" prefix ("oracle.solves" -> "hecmine_oracle_solves").
[[nodiscard]] std::string openmetrics_name(std::string_view name);

/// The sink as one OpenMetrics text document (terminated by "# EOF\n").
[[nodiscard]] std::string render_openmetrics(const Telemetry& telemetry);

/// Writes render_openmetrics() to `path`, creating parent directories.
/// Throws on I/O failure.
void write_openmetrics(const Telemetry& telemetry, const std::string& path);

/// Structural validation of an OpenMetrics text document. Returns one
/// message per violation (empty = valid).
[[nodiscard]] std::vector<std::string> lint_openmetrics(std::string_view text);

}  // namespace hecmine::support

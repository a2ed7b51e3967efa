// "Where did the work go": the `hecmine_report prof` hot-path report.
//
// A hecmine.trace.v1 timeline records, for every span, its wall time and
// the work-counter deltas its own thread performed while it was open
// (same-thread inclusive). This module folds that timeline into a
// per-span-name table of *exclusive* cost — time and work with each
// span's direct children subtracted — which is the table that answers
// "which phase actually burns the evaluations", not "which phase
// contains them". Rows also carry throughput (exclusive evals per
// exclusive second) and work-per-span (inclusive evals / span count: for
// leader_stage rows this is evals-per-stage, the quantity the bench
// counter gate tracks).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/prof.hpp"

namespace hecmine::support::json {
class Value;
}  // namespace hecmine::support::json

namespace hecmine::support::prof {

/// One aggregated span-name row of the hot-path table.
struct ReportRow {
  std::string name;
  std::uint64_t spans = 0;        ///< closed spans bearing this name
  double inclusive_ms = 0.0;      ///< summed span durations
  double exclusive_ms = 0.0;      ///< durations minus direct children
  WorkCounters inclusive_work;    ///< summed span work deltas
  WorkCounters exclusive_work;    ///< work minus direct children's work
  /// Exclusive kernel evaluations per exclusive second (0 when no time).
  [[nodiscard]] double evals_per_sec() const noexcept {
    return exclusive_ms > 0.0
               ? static_cast<double>(exclusive_work.evals()) /
                     (exclusive_ms * 1e-3)
               : 0.0;
  }
  /// Inclusive kernel evaluations per span occurrence.
  [[nodiscard]] double evals_per_span() const noexcept {
    return spans > 0
               ? static_cast<double>(inclusive_work.evals()) /
                     static_cast<double>(spans)
               : 0.0;
  }
};

/// The folded hot-path report, rows sorted by exclusive time descending
/// (ties broken by name so the report is deterministic).
struct Report {
  std::vector<ReportRow> rows;
  std::uint64_t spans = 0;      ///< closed spans consumed
  std::uint64_t dropped = 0;    ///< spans the recording trace dropped
  double total_ms = 0.0;        ///< summed root-span durations
  WorkCounters total_work;      ///< summed exclusive work (= total work)
};

/// Folds a parsed hecmine.trace.v1 document (the to_chrome_trace output)
/// into the hot-path report. Only the wall-clock spans (pid 1) count; the
/// sim-time campaign track (pid 2) is skipped. Throws support errors on a
/// document without a traceEvents array.
[[nodiscard]] Report build_report(const json::Value& trace);

/// Renders the report as an aligned table plus a totals footer, which says
/// so when the trace dropped spans (the table then covers part of the run).
void print_report(std::ostream& os, const Report& report);

}  // namespace hecmine::support::prof

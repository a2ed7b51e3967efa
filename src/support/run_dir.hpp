// One run, one bundle: the directory a `--run-dir DIR` run writes.
//
// Every export of a run lands in one directory under fixed file names,
// each in an existing schema, each embedding the same manifest:
//
//   manifest.json   hecmine.manifest.v1 (provenance::to_json)
//   telemetry.json  hecmine.telemetry.v1 (write_json)
//   trace.json      hecmine.trace.v1 (write_chrome_trace)
//   iterlog.jsonl   hecmine.iterlog.v1, streamed while the run goes;
//                   only when a solver loop records an iterate
//   flight.jsonl    hecmine.flight.v1, one snapshot every 500 ms
//   blocklog.jsonl  hecmine.blocklog.v1, campaign runs only: support does
//                   not see chain, so the caller opens its
//                   chain::BlockLogWriter at path(kBlockLog)
//
// `hecmine_report DIR` reads a bundle back, one report per file present.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "support/telemetry.hpp"

namespace hecmine::support {

class RunDir {
 public:
  static constexpr const char* kManifest = "manifest.json";
  static constexpr const char* kTelemetry = "telemetry.json";
  static constexpr const char* kTrace = "trace.json";
  static constexpr const char* kIterlog = "iterlog.jsonl";
  static constexpr const char* kFlight = "flight.jsonl";
  static constexpr const char* kBlockLog = "blocklog.jsonl";

  /// Creates `dir` and removes the bundle files an earlier run left there,
  /// including the metrics.om that bundles once carried (other files are
  /// untouched), writes manifest.json from `telemetry.manifest`, points the
  /// iteration probe at iterlog.jsonl and starts the flight recorder.
  /// Stamp the manifest before constructing; `telemetry` must outlive the
  /// bundle. Throws on I/O failure.
  RunDir(std::string dir, Telemetry& telemetry);
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  /// A file inside the bundle.
  [[nodiscard]] std::string path(std::string_view name) const;

  /// Hands the flight recorder the monitors' event drain. Everything the
  /// drain reads must outlive this RunDir: its destructor's final flush
  /// (also on an exception unwind, e.g. the watchdog abort) calls it.
  void set_event_drain(TelemetryFlusher::EventDrain drain);

  /// Stops the flight recorder (its final flush drains pending events),
  /// flushes iterlog.jsonl, writes telemetry.json and trace.json, and
  /// prints the telemetry summary and one line naming the directory and
  /// its files.
  void finish(std::ostream& os);

 private:
  std::string dir_;
  Telemetry& telemetry_;
  std::optional<TelemetryFlusher> flusher_;
};

}  // namespace hecmine::support

// One run, one bundle: the directory a `--run-dir DIR` run writes.
//
// Every export of a run lands in one directory under fixed file names,
// each in an existing schema, each embedding the same manifest:
//
//   flight.jsonl    hecmine.flight.v1, the run's one JSONL stream: the
//                   manifest header, a snapshot every 500 ms and a final
//                   one, and the iteration records and hecmine.health.v1
//                   incidents as they happen (TelemetryFlusher)
//   trace.json      hecmine.trace.v1 (write_chrome_trace)
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
  static constexpr const char* kTrace = "trace.json";
  static constexpr const char* kFlight = "flight.jsonl";
  static constexpr const char* kBlockLog = "blocklog.jsonl";

  /// Creates `dir` and removes the bundle files an earlier run left there,
  /// including the files that older bundles carried (other files are
  /// untouched), starts the flight recorder and attaches it as
  /// `telemetry.stream`. Stamp the manifest before constructing;
  /// `telemetry` must outlive the bundle. Throws on I/O failure.
  RunDir(std::string dir, Telemetry& telemetry);
  /// Detaches the stream; the flight recorder's destructor then writes
  /// the final snapshot, also on an exception unwind.
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  /// A file inside the bundle.
  [[nodiscard]] std::string path(std::string_view name) const;

  /// Detaches the stream and stops the flight recorder (its final
  /// snapshot), writes trace.json, and prints the telemetry summary and
  /// one line naming the directory and its files.
  void finish(std::ostream& os);

 private:
  std::string dir_;
  Telemetry& telemetry_;
  std::optional<TelemetryFlusher> flusher_;
};

}  // namespace hecmine::support

#include "support/run_dir.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <vector>

#include "support/error.hpp"

namespace hecmine::support {

RunDir::RunDir(std::string dir, Telemetry& telemetry)
    : dir_(std::move(dir)), telemetry_(telemetry) {
  HECMINE_REQUIRE(!dir_.empty(), "run directory must not be empty");
  std::filesystem::create_directories(dir_);
  // A bundle holds one run: files an earlier run left under the bundle's
  // names (a block log, an iteration log, a rotated flight generation, the
  // end-of-run files of an aborted run, the retired OpenMetrics snapshot)
  // would be read back as this run's.
  for (const char* name : {kManifest, kTelemetry, kTrace, kIterlog, kFlight,
                           kBlockLog, "metrics.om"})
    std::filesystem::remove(path(name));
  std::filesystem::remove(path(kFlight) + ".1");
  {
    std::ofstream out(path(kManifest));
    HECMINE_REQUIRE(out.good(), "cannot open " + path(kManifest));
    out << provenance::to_json(telemetry_.manifest) << "\n";
    HECMINE_REQUIRE(out.good(), "failed writing " + path(kManifest));
  }
  telemetry_.probe.stream_to(path(kIterlog), &telemetry_.manifest);
  flusher_.emplace(telemetry_, path(kFlight));
}

std::string RunDir::path(std::string_view name) const {
  return (std::filesystem::path(dir_) / name).string();
}

void RunDir::set_event_drain(TelemetryFlusher::EventDrain drain) {
  flusher_->set_event_drain(std::move(drain));
}

void RunDir::finish(std::ostream& os) {
  flusher_->stop();
  telemetry_.probe.flush();
  write_json(telemetry_, path(kTelemetry));
  write_chrome_trace(telemetry_, path(kTrace));
  print_summary(os, telemetry_);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    if (entry.is_regular_file())
      files.push_back(entry.path().filename().string());
  std::sort(files.begin(), files.end());
  os << "[run-dir] " << dir_ << ":";
  for (const std::string& file : files) os << " " << file;
  os << "\n";
}

}  // namespace hecmine::support

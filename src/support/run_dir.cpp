#include "support/run_dir.hpp"

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <vector>

#include "support/error.hpp"

namespace hecmine::support {

RunDir::RunDir(std::string dir, Telemetry& telemetry)
    : dir_(std::move(dir)), telemetry_(telemetry) {
  HECMINE_REQUIRE(!dir_.empty(), "run directory must not be empty");
  std::filesystem::create_directories(dir_);
  // A bundle holds one run: files an earlier run left under the bundle's
  // names (a block log, a rotated flight generation, the end-of-run trace
  // of an aborted run, the files older bundles carried) would be read
  // back as this run's.
  for (const char* name : {kTrace, kFlight, kBlockLog, "telemetry.json",
                           "manifest.json", "iterlog.jsonl", "metrics.om"})
    std::filesystem::remove(path(name));
  std::filesystem::remove(path(kFlight) + ".1");
  flusher_.emplace(telemetry_, path(kFlight));
  telemetry_.stream = &*flusher_;
}

RunDir::~RunDir() { telemetry_.stream = nullptr; }

std::string RunDir::path(std::string_view name) const {
  return (std::filesystem::path(dir_) / name).string();
}

void RunDir::finish(std::ostream& os) {
  telemetry_.stream = nullptr;
  flusher_->stop();
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

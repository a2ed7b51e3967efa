#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "support/error.hpp"

namespace hecmine::support {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";  // bare boolean flag
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double CliArgs::get(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  HECMINE_REQUIRE(end != nullptr && *end == '\0',
                  "flag --" + name + " is not a number: " + it->second);
  return value;
}

int CliArgs::get(const std::string& name, int fallback) const {
  const double value = get(name, static_cast<double>(fallback));
  return static_cast<int>(value);
}

namespace {

/// Validated thread-count parse shared by the flag and environment paths.
int parse_thread_count(const std::string& text, const std::string& origin) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  HECMINE_REQUIRE(end != nullptr && *end == '\0' && value >= 0 &&
                      value <= 4096,
                  origin + " is not a thread count (0..4096): " + text);
  return static_cast<int>(value);
}

}  // namespace

std::string CliArgs::flag_or_env(const std::string& name, const char* env_var,
                                 const std::string& fallback) const {
  // An explicit flag wins outright: the environment variable is only
  // consulted (and validated by the caller) when the flag is absent.
  if (has(name)) return get(name, fallback);
  const char* raw = std::getenv(env_var);
  return raw == nullptr || *raw == '\0' ? fallback : std::string{raw};
}

int CliArgs::threads() const {
  return parse_thread_count(flag_or_env("threads", "HECMINE_THREADS", "0"),
                            "--threads/HECMINE_THREADS");
}

LogLevel CliArgs::log_level() const {
  return parse_log_level(
      flag_or_env("log-level", "HECMINE_LOG_LEVEL", "info"));
}

void CliArgs::apply_log_level() const { set_log_level(log_level()); }

std::string CliArgs::run_dir() const {
  return flag_or_env("run-dir", "HECMINE_RUN_DIR");
}

int CliArgs::positive_int(const std::string& name, int fallback) const {
  const int value = get(name, fallback);
  HECMINE_REQUIRE(value > 0,
                  "--" + name + " must be a positive integer (got " +
                      std::to_string(value) + ")");
  return value;
}

double CliArgs::positive_double(const std::string& name,
                                double fallback) const {
  const double value = get(name, fallback);
  HECMINE_REQUIRE(value > 0.0, "--" + name + " must be positive");
  return value;
}

std::string CliArgs::health() const {
  const std::string value = flag_or_env("health", "HECMINE_HEALTH", "warn");
  HECMINE_REQUIRE(value == "observe" || value == "warn" || value == "abort",
                  "--health/HECMINE_HEALTH must be observe|warn|abort, "
                  "got: " + value);
  return value;
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  throw PreconditionError("unknown log level: " + name +
                          " (expected debug|info|warn|error)");
}

LogLevel env_log_level() {
  const char* raw = std::getenv("HECMINE_LOG_LEVEL");
  if (raw == nullptr || *raw == '\0') return LogLevel::kInfo;
  return parse_log_level(raw);
}

int env_thread_override() {
  const char* raw = std::getenv("HECMINE_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  return parse_thread_count(raw, "HECMINE_THREADS");
}

bool CliArgs::reject_unknown_flags(const std::vector<std::string>& accepted,
                                   const std::string& program) const {
  bool rejected = false;
  for (const auto& [name, _] : flags_) {
    if (std::find(accepted.begin(), accepted.end(), name) != accepted.end())
      continue;
    std::cerr << program << ": unknown flag --" << name << "\n";
    rejected = true;
  }
  return rejected;
}

}  // namespace hecmine::support

// Minimal command-line flag parsing for the examples and bench binaries.
//
// Supported syntax: --name=value and --name value; everything else is a
// positional argument. A program rejects the flags it does not read with
// reject_unknown_flags() before doing any work.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "support/log.hpp"

namespace hecmine::support {

/// Parsed command line with typed, defaulted accessors.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  /// `--threads` flag with the HECMINE_THREADS environment variable as the
  /// fallback (0 = auto-detect; see support::resolve_thread_count).
  [[nodiscard]] int threads() const;
  /// `--log-level` flag (debug|info|warn|error) with the HECMINE_LOG_LEVEL
  /// environment variable as the fallback; same precedence as threads():
  /// an explicit flag wins outright. Defaults to kInfo.
  [[nodiscard]] LogLevel log_level() const;
  /// Applies log_level() to the process-wide logger (set_log_level).
  void apply_log_level() const;
  /// `--run-dir` flag (the directory one run's bundle is written to, see
  /// support::RunDir) with the HECMINE_RUN_DIR environment variable as the
  /// fallback; empty = no bundle.
  [[nodiscard]] std::string run_dir() const;
  /// `--health` flag (observe|warn|abort — the campaign drift watchdog
  /// policy, see support::health) with the HECMINE_HEALTH environment
  /// variable as the fallback; defaults to "warn".
  [[nodiscard]] std::string health() const;
  /// Flag-beats-environment resolution shared by every flag/env pair: the
  /// flag's value when present (even when empty), the environment variable
  /// otherwise, `fallback` when neither is set. All such pairs (threads,
  /// log-level, run-dir, health) resolve through this one helper so
  /// precedence cannot drift between them.
  [[nodiscard]] std::string flag_or_env(const std::string& name,
                                        const char* env_var,
                                        const std::string& fallback = {}) const;
  /// String flag value or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Numeric flag value or `fallback`; throws on a malformed number.
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] int get(const std::string& name, int fallback) const;
  /// Duration/size flag (block counts, round counts, strides, intervals):
  /// like get(), but rejects zero and negative values with a clear error
  /// instead of letting them reach a loop bound or a sleep. `fallback`
  /// must itself be positive.
  [[nodiscard]] int positive_int(const std::string& name, int fallback) const;
  /// Positive-real counterpart of positive_int (tolerances, thresholds,
  /// scale factors that must stay > 0).
  [[nodiscard]] double positive_double(const std::string& name,
                                       double fallback) const;
  /// Usage check: prints "<program>: unknown flag --name" to stderr for
  /// every flag given that is not in `accepted`, and returns whether there
  /// was one. Programs call it before any work with every flag the chosen
  /// command reads and exit 2 when it returns true, so a retired or
  /// misspelled flag is an error rather than a silent no-op.
  [[nodiscard]] bool reject_unknown_flags(
      const std::vector<std::string>& accepted,
      const std::string& program) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Parses the HECMINE_THREADS environment variable: 0 when unset or empty,
/// its value otherwise. Throws PreconditionError on a malformed or negative
/// value rather than silently running with a surprising thread count.
[[nodiscard]] int env_thread_override();

/// Parses a log-level name (debug|info|warn|error, case-sensitive). Throws
/// PreconditionError on anything else.
[[nodiscard]] LogLevel parse_log_level(const std::string& name);

/// Parses the HECMINE_LOG_LEVEL environment variable: kInfo when unset or
/// empty, the named level otherwise (throws on an unknown name).
[[nodiscard]] LogLevel env_log_level();

}  // namespace hecmine::support

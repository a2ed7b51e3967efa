// Run provenance: the "which exact build/seed/params produced this
// artifact" record embedded in every machine-readable export.
//
// Telemetry profiles, iteration logs, trace timelines, flight-recorder
// streams and perfbench ledgers are only trustworthy when the reader can tell
// *what* produced them: comparing a Release run against a TSan one, or a
// trace from last week's tree against today's, silently lies. A
// RunManifest (schema hecmine.manifest.v1) pins down:
//
//   * the build  — git sha (baked at configure time), CMake build type,
//     compiler id + version, sanitizer mode, ISA flag string,
//   * the host   — OS/hostname and hardware concurrency,
//   * the run    — resolved thread count, RNG root seed, CLI arguments,
//   * the schemas — the version of every artifact format this binary
//     emits, so a reader can refuse formats it does not understand.
//
// collect() fills the build/host half from compile-time definitions and
// uname; the run half (threads/seed/args) is the caller's. The manifest is
// deliberately timestamp-free: identical inputs serialize identically, so
// manifests can be compared byte-wise and golden tests stay deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hecmine::support::json {
class Writer;
}  // namespace hecmine::support::json

namespace hecmine::support::provenance {

/// Schema identifier of the manifest record itself.
inline constexpr const char* kManifestSchema = "hecmine.manifest.v1";

/// One emitted artifact format and its current version tag. The table is
/// fixed at compile time; bump a version here when its format changes.
struct SchemaVersion {
  const char* artifact;  ///< e.g. "telemetry"
  const char* version;   ///< e.g. "hecmine.telemetry.v1"
};

/// Every artifact schema this binary can emit, sorted by artifact name.
[[nodiscard]] const std::vector<SchemaVersion>& schema_versions();

/// Version tag for one artifact name ("telemetry", "trace", "iterlog",
/// "bench", "flight", "manifest"); empty when unknown.
[[nodiscard]] std::string schema_version(const std::string& artifact);

/// The provenance record. Build/host fields come from collect(); the run
/// fields default to "unset" values the caller overrides.
struct RunManifest {
  std::string git_sha;     ///< sha of the commit last built ("unknown"
                           ///< outside git)
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string compiler;    ///< compiler id + __VERSION__
  std::string sanitizer;   ///< HECMINE_SANITIZE ("" = none)
  std::string isa;         ///< target ISA ("generic"; older ledgers may
                           ///< carry other strings)
  std::string os;          ///< uname sysname + release
  std::string host;        ///< uname nodename
  int hardware_concurrency = 0;
  int threads = 0;          ///< resolved executor count of the run
  std::uint64_t seed = 0;   ///< RNG root seed (SolveContext::rng_root)
  std::vector<std::string> args;  ///< CLI arguments (argv[1..])
};

/// Build + host half of the manifest; run fields stay at their defaults.
[[nodiscard]] RunManifest collect();

/// collect() with the run half filled in one call. `argv` may be null
/// (then args stays empty); argv[0] is skipped.
[[nodiscard]] RunManifest collect(int threads, std::uint64_t seed,
                                  int argc = 0,
                                  const char* const* argv = nullptr);

/// Emits the manifest as one JSON object (the "hecmine.manifest.v1"
/// block) through the shared writer. Deterministic for fixed fields.
void write(json::Writer& writer, const RunManifest& manifest);

/// The manifest object as a standalone compact JSON document.
[[nodiscard]] std::string to_json(const RunManifest& manifest);

}  // namespace hecmine::support::provenance

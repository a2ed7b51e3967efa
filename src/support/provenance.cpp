#include "support/provenance.hpp"

#include <thread>

#include "support/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

// The sha header is stamped at build time and the other macros are baked
// in as definitions, both by src/support/CMakeLists.txt; fall back so
// non-CMake builds (and IDE previews) still compile.
#if __has_include("hecmine_git_sha.hpp")
#include "hecmine_git_sha.hpp"
#endif
#ifndef HECMINE_GIT_SHA
#define HECMINE_GIT_SHA "unknown"
#endif
#ifndef HECMINE_BUILD_TYPE
#define HECMINE_BUILD_TYPE "unknown"
#endif
#ifndef HECMINE_SANITIZE_MODE
#define HECMINE_SANITIZE_MODE ""
#endif
#ifndef HECMINE_ISA
#define HECMINE_ISA "generic"
#endif

namespace hecmine::support::provenance {

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const std::vector<SchemaVersion>& schema_versions() {
  // Sorted by artifact so manifests serialize deterministically.
  static const std::vector<SchemaVersion> kVersions = {
      {"bench", "hecmine.bench.v1"},
      {"blocklog", "hecmine.blocklog.v1"},
      {"flight", "hecmine.flight.v1"},
      {"health", "hecmine.health.v1"},
      {"manifest", kManifestSchema},
      {"trace", "hecmine.trace.v1"},
  };
  return kVersions;
}

std::string schema_version(const std::string& artifact) {
  for (const SchemaVersion& schema : schema_versions())
    if (artifact == schema.artifact) return schema.version;
  return {};
}

RunManifest collect() {
  RunManifest manifest;
  manifest.git_sha = HECMINE_GIT_SHA;
  manifest.build_type = HECMINE_BUILD_TYPE;
  manifest.compiler = compiler_string();
  manifest.sanitizer = HECMINE_SANITIZE_MODE;
  manifest.isa = HECMINE_ISA;
  manifest.hardware_concurrency =
      static_cast<int>(std::thread::hardware_concurrency());
#if defined(__unix__) || defined(__APPLE__)
  utsname names{};
  if (uname(&names) == 0) {
    manifest.os = std::string(names.sysname) + " " + names.release;
    manifest.host = names.nodename;
  }
#endif
  if (manifest.os.empty()) manifest.os = "unknown";
  if (manifest.host.empty()) manifest.host = "unknown";
  return manifest;
}

RunManifest collect(int threads, std::uint64_t seed, int argc,
                    const char* const* argv) {
  RunManifest manifest = collect();
  manifest.threads = threads;
  manifest.seed = seed;
  if (argv != nullptr) {
    for (int i = 1; i < argc; ++i)
      manifest.args.emplace_back(argv[i]);
  }
  return manifest;
}

void write(json::Writer& writer, const RunManifest& manifest) {
  writer.begin_object();
  writer.member("schema", kManifestSchema);
  writer.member("git_sha", manifest.git_sha);
  writer.member("build_type", manifest.build_type);
  writer.member("compiler", manifest.compiler);
  writer.member("sanitizer", manifest.sanitizer);
  writer.member("isa", manifest.isa);
  writer.member("os", manifest.os);
  writer.member("host", manifest.host);
  writer.member("hardware_concurrency", manifest.hardware_concurrency);
  writer.member("threads", manifest.threads);
  writer.member("seed", manifest.seed);
  writer.key("args");
  writer.begin_array();
  for (const std::string& arg : manifest.args) writer.value(arg);
  writer.end_array();
  writer.key("schemas");
  writer.begin_object();
  for (const SchemaVersion& schema : schema_versions())
    writer.member(schema.artifact, schema.version);
  writer.end_object();
  writer.end_object();
}

}  // namespace hecmine::support::provenance

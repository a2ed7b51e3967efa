// Run-provenance tests: manifest determinism (identical inputs serialize
// identically, no timestamps), the schema-version table, run-half
// stamping from CLI arguments, and the embedded-manifest JSON shape that
// hecmine_report and the trace/flight readers rely on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/provenance.hpp"

namespace {

using namespace hecmine;
namespace provenance = support::provenance;
using support::json::Value;

/// The manifest object as a standalone compact JSON document.
std::string manifest_json(const provenance::RunManifest& manifest) {
  std::ostringstream os;
  support::json::Writer writer(os);
  provenance::write(writer, manifest);
  return os.str();
}

TEST(Provenance, CollectIsDeterministic) {
  // The manifest is deliberately timestamp-free: two collections in the
  // same process must serialize byte-identically.
  const provenance::RunManifest first = provenance::collect();
  const provenance::RunManifest second = provenance::collect();
  EXPECT_EQ(manifest_json(first), manifest_json(second));
}

TEST(Provenance, BuildHalfIsFilled) {
  const provenance::RunManifest manifest = provenance::collect();
  EXPECT_FALSE(manifest.git_sha.empty());
  EXPECT_FALSE(manifest.build_type.empty());
  EXPECT_FALSE(manifest.compiler.empty());
  EXPECT_FALSE(manifest.os.empty());
  EXPECT_GE(manifest.hardware_concurrency, 1);
  // Run half stays at defaults until the caller stamps it.
  EXPECT_EQ(manifest.threads, 0);
  EXPECT_EQ(manifest.seed, 0u);
  EXPECT_TRUE(manifest.args.empty());
}

TEST(Provenance, RunHalfStampsThreadsSeedAndArgs) {
  const char* argv[] = {"hecmine_cli", "leader", "--miners=4"};
  const provenance::RunManifest manifest =
      provenance::collect(8, 1234, 3, argv);
  EXPECT_EQ(manifest.threads, 8);
  EXPECT_EQ(manifest.seed, 1234u);
  // argv[0] (the binary path) is skipped.
  ASSERT_EQ(manifest.args.size(), 2u);
  EXPECT_EQ(manifest.args[0], "leader");
  EXPECT_EQ(manifest.args[1], "--miners=4");
}

TEST(Provenance, NullArgvYieldsEmptyArgs) {
  const provenance::RunManifest manifest =
      provenance::collect(2, 7, 5, nullptr);
  EXPECT_TRUE(manifest.args.empty());
}

TEST(Provenance, SchemaTableCoversEveryArtifact) {
  const auto& versions = provenance::schema_versions();
  ASSERT_FALSE(versions.empty());
  // Sorted by artifact name so the manifest's schemas block is
  // deterministic.
  for (std::size_t i = 1; i < versions.size(); ++i) {
    EXPECT_LT(std::string(versions[i - 1].artifact),
              std::string(versions[i].artifact));
  }
  EXPECT_EQ(versions.size(), 6u);
  EXPECT_EQ(provenance::schema_version("bench"), "hecmine.bench.v1");
  EXPECT_EQ(provenance::schema_version("blocklog"), "hecmine.blocklog.v1");
  EXPECT_EQ(provenance::schema_version("flight"), "hecmine.flight.v1");
  EXPECT_EQ(provenance::schema_version("health"), "hecmine.health.v1");
  EXPECT_EQ(provenance::schema_version("manifest"), "hecmine.manifest.v1");
  EXPECT_EQ(provenance::schema_version("trace"), "hecmine.trace.v1");
  EXPECT_TRUE(provenance::schema_version("no-such-artifact").empty());
}

TEST(Provenance, JsonShapeMatchesManifestSchema) {
  provenance::RunManifest manifest = provenance::collect();
  manifest.threads = 4;
  manifest.seed = 42;
  manifest.args = {"leader", "--grid=8"};
  const Value doc = support::json::parse(manifest_json(manifest));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").as_string(), provenance::kManifestSchema);
  EXPECT_EQ(doc.at("git_sha").as_string(), manifest.git_sha);
  EXPECT_EQ(doc.at("build_type").as_string(), manifest.build_type);
  EXPECT_EQ(doc.at("compiler").as_string(), manifest.compiler);
  EXPECT_TRUE(doc.contains("sanitizer"));
  EXPECT_EQ(doc.at("isa").as_string(), manifest.isa);
  EXPECT_EQ(doc.at("os").as_string(), manifest.os);
  EXPECT_EQ(doc.at("host").as_string(), manifest.host);
  EXPECT_DOUBLE_EQ(doc.at("threads").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(doc.at("seed").as_number(), 42.0);
  const auto& args = doc.at("args").as_array();
  ASSERT_EQ(args.size(), 2u);
  EXPECT_EQ(args[0].as_string(), "leader");
  EXPECT_EQ(args[1].as_string(), "--grid=8");
  // Every emittable artifact format is pinned in the schemas block.
  const Value& schemas = doc.at("schemas");
  ASSERT_TRUE(schemas.is_object());
  EXPECT_EQ(schemas.at("trace").as_string(), "hecmine.trace.v1");
  EXPECT_EQ(schemas.as_object().size(),
            provenance::schema_versions().size());
}

TEST(Provenance, WriterEmbeddingMatchesStandaloneDocument) {
  const provenance::RunManifest manifest = provenance::collect(2, 9, 0);
  std::ostringstream embedded;
  {
    support::json::Writer writer(embedded);
    writer.begin_object();
    writer.key("manifest");
    provenance::write(writer, manifest);
    writer.end_object();
    writer.finish();
  }
  const Value outer = support::json::parse(embedded.str());
  const Value standalone = support::json::parse(manifest_json(manifest));
  EXPECT_EQ(outer.at("manifest").at("git_sha").as_string(),
            standalone.at("git_sha").as_string());
  EXPECT_EQ(outer.at("manifest").at("schemas").as_object().size(),
            standalone.at("schemas").as_object().size());
}

}  // namespace

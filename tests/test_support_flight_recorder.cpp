// Flight-recorder tests: JSONL stream shape (header + snapshot lines,
// every line parseable), manifest embedding, explicit and periodic
// flushing, rotation once the file outgrows max_bytes, clean shutdown
// semantics (final flush on stop, flush_now a no-op afterwards), and the
// run bundle that attaches the stream to its sink.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hpp"
#include "support/run_dir.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace hecmine;
using support::json::Value;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FlightRecorder, StreamStartsWithManifestHeader) {
  support::Telemetry telemetry;
  telemetry.manifest = support::provenance::collect(4, 99);
  const std::string path = testing::TempDir() + "/hecmine_flight_hdr.jsonl";
  {
    support::TelemetryFlusher::Options options;
    options.interval = std::chrono::milliseconds(10'000);  // manual only
    support::TelemetryFlusher flusher(telemetry, path, options);
    flusher.stop();
  }
  const auto lines = support::json::parse_lines(slurp(path));
  ASSERT_EQ(lines.size(), 2u);  // header + the final snapshot
  EXPECT_EQ(lines[0].at("schema").as_string(), "hecmine.flight.v1");
  EXPECT_EQ(lines[0].at("manifest").at("schema").as_string(),
            "hecmine.manifest.v1");
  EXPECT_DOUBLE_EQ(lines[0].at("manifest").at("seed").as_number(), 99.0);
  // An empty sink's snapshot is well formed.
  EXPECT_TRUE(lines[1].at("counters").as_object().empty());
  std::remove(path.c_str());
}

TEST(FlightRecorder, SnapshotLinesCarryLiveInstrumentValues) {
  support::Telemetry telemetry;
  telemetry.metrics.counter("fl.count").add(3);
  telemetry.metrics.gauge("fl.gauge").set(0.5);
  telemetry.metrics.gauge("fl.bad").set(std::nan(""));
  telemetry.metrics.histogram("fl.hist", {1.0, 2.0}).observe(1.5);
  {
    const support::TelemetryScope scope(&telemetry);
    support::prof::current_block()->add(
        support::prof::WorkField::kBestResponseEvals, 5);
  }
  const std::string path = testing::TempDir() + "/hecmine_flight_vals.jsonl";
  {
    support::TelemetryFlusher::Options options;
    options.interval = std::chrono::milliseconds(10'000);
    support::TelemetryFlusher flusher(telemetry, path, options);
    flusher.flush_now();
    telemetry.metrics.counter("fl.count").add(4);
    flusher.flush_now();
    EXPECT_EQ(flusher.flushes(), 2u);
    flusher.stop();  // final flush
    EXPECT_EQ(flusher.flushes(), 3u);
  }
  const std::string text = slurp(path);
  const auto lines = support::json::parse_lines(text);
  ASSERT_EQ(lines.size(), 4u);  // header + three snapshots
  const Value& first = lines[1];
  const Value& second = lines[2];
  EXPECT_DOUBLE_EQ(first.at("seq").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(second.at("seq").as_number(), 1.0);
  EXPECT_GE(first.at("uptime_ms").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(first.at("counters").at("fl.count").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(second.at("counters").at("fl.count").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(first.at("gauges").at("fl.gauge").as_number(), 0.5);
  // A non-finite gauge degrades to null (the snapshots follow the header).
  EXPECT_TRUE(first.at("gauges").at("fl.bad").is_null());
  EXPECT_EQ(text.find("nan", text.find('\n')), std::string::npos) << text;
  // The full histogram: edges, bucket counts (last = overflow), extrema.
  const Value& hist = first.at("histograms").at("fl.hist");
  const Value::Array& edges = hist.at("edges").as_array();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges[1].as_number(), 2.0);
  std::vector<double> counts;
  for (const Value& bucket : hist.at("counts").as_array())
    counts.push_back(bucket.as_number());
  EXPECT_EQ(counts, (std::vector<double>{0.0, 1.0, 0.0}));
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(hist.at("min").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(hist.at("max").as_number(), 1.5);
  EXPECT_TRUE(hist.contains("p50"));
  EXPECT_TRUE(hist.contains("p95"));
  EXPECT_TRUE(hist.contains("p99"));
  // The work totals: every field of the taxonomy, zeros included.
  const Value& work = first.at("work");
  EXPECT_EQ(work.as_object().size(), support::prof::kWorkFieldCount);
  EXPECT_DOUBLE_EQ(work.at("best_response_evals").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(work.at("sweeps").as_number(), 0.0);
  std::remove(path.c_str());
}

TEST(FlightRecorder, PeriodicThreadFlushesOnItsOwn) {
  support::Telemetry telemetry;
  telemetry.metrics.counter("fl.ticks").add();
  const std::string path = testing::TempDir() + "/hecmine_flight_tick.jsonl";
  {
    support::TelemetryFlusher::Options options;
    options.interval = std::chrono::milliseconds(5);
    support::TelemetryFlusher flusher(telemetry, path, options);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (flusher.flushes() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(flusher.flushes(), 2u);
  }
  for (const Value& line : support::json::parse_lines(slurp(path)))
    EXPECT_TRUE(line.is_object());  // every line parses
  std::remove(path.c_str());
}

TEST(FlightRecorder, RotatesPastMaxBytesAndKeepsOneGeneration) {
  support::Telemetry telemetry;
  // Plenty of instruments so each snapshot line is a few hundred bytes.
  for (int i = 0; i < 16; ++i)
    telemetry.metrics.counter("fl.rot." + std::to_string(i)).add();
  const std::string path = testing::TempDir() + "/hecmine_flight_rot.jsonl";
  const std::string rotated = path + ".1";
  std::remove(rotated.c_str());
  {
    support::TelemetryFlusher::Options options;
    options.interval = std::chrono::milliseconds(10'000);
    options.max_bytes = 512;  // force rotations quickly
    support::TelemetryFlusher flusher(telemetry, path, options);
    for (int i = 0; i < 12; ++i) flusher.flush_now();
    flusher.stop();
    EXPECT_GE(flusher.rotations(), 1u);
  }
  // Both generations exist and each starts with a fresh header.
  for (const std::string& file : {path, rotated}) {
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
    const auto lines = support::json::parse_lines(slurp(file));
    ASSERT_GE(lines.size(), 1u) << file;
    EXPECT_EQ(lines[0].at("schema").as_string(), "hecmine.flight.v1");
  }
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST(FlightRecorder, StopIsIdempotentAndDisablesFlushNow) {
  support::Telemetry telemetry;
  const std::string path = testing::TempDir() + "/hecmine_flight_stop.jsonl";
  support::TelemetryFlusher::Options options;
  options.interval = std::chrono::milliseconds(10'000);
  support::TelemetryFlusher flusher(telemetry, path, options);
  flusher.stop();
  const std::uint64_t after_stop = flusher.flushes();
  EXPECT_GE(after_stop, 1u);  // the final flush
  flusher.stop();  // idempotent
  flusher.flush_now();  // no-op once the stream is closed
  EXPECT_EQ(flusher.flushes(), after_stop);
  std::remove(path.c_str());
}

/// Structural equality of two parsed JSON values.
bool same(const Value& a, const Value& b) {
  if (a.is_object() && b.is_object()) {
    const Value::Object& x = a.as_object();
    const Value::Object& y = b.as_object();
    if (x.size() != y.size()) return false;
    for (const auto& [key, value] : x)
      if (!b.contains(key) || !same(value, b.at(key))) return false;
    return true;
  }
  if (a.is_array() && b.is_array()) {
    const Value::Array& x = a.as_array();
    const Value::Array& y = b.as_array();
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (!same(x[i], y[i])) return false;
    return true;
  }
  if (a.is_string() && b.is_string()) return a.as_string() == b.as_string();
  if (a.is_number() && b.is_number()) return a.as_number() == b.as_number();
  if (a.is_bool() && b.is_bool()) return a.as_bool() == b.as_bool();
  return a.is_null() && b.is_null();
}

TEST(RunDir, WritesEveryFileUnderOneManifest) {
  support::Telemetry telemetry;
  const char* argv[] = {"bench", "--run-dir=bundle"};
  telemetry.manifest = support::provenance::collect(3, 42, 2, argv);
  const std::string dir = testing::TempDir() + "/hecmine_run_dir_files";
  std::filesystem::remove_all(dir);
  std::ostringstream out;
  {
    support::RunDir run_dir(dir, telemetry);
    ASSERT_NE(telemetry.stream, nullptr);
    telemetry.metrics.counter("test.solves").add();
    telemetry.stream->record({"test.loop", 1, 1, 0.5});
    { const support::SolveTrace::Scope span(&telemetry.trace, "test.span"); }
    run_dir.finish(out);
    EXPECT_EQ(telemetry.stream, nullptr);
  }
  EXPECT_NE(out.str().find("[run-dir] " + dir + ": flight.jsonl trace.json"),
            std::string::npos)
      << out.str();

  const auto lines = support::json::parse_lines(slurp(dir + "/flight.jsonl"));
  ASSERT_EQ(lines.size(), 3u);  // header, the record, the final snapshot
  EXPECT_EQ(lines[0].at("schema").as_string(), "hecmine.flight.v1");
  const Value& manifest = lines[0].at("manifest");
  EXPECT_EQ(manifest.at("schema").as_string(), "hecmine.manifest.v1");
  EXPECT_DOUBLE_EQ(manifest.at("seed").as_number(), 42.0);
  EXPECT_TRUE(same(
      support::json::parse(slurp(dir + "/trace.json")).at("manifest"),
      manifest));
  EXPECT_EQ(lines[1].at("kind").as_string(), "iteration");
  EXPECT_EQ(lines[1].at("solver").as_string(), "test.loop");
  EXPECT_DOUBLE_EQ(lines[2].at("counters").at("test.solves").as_number(),
                   1.0);
  std::filesystem::remove_all(dir);
}

TEST(RunDir, ReplacesTheFilesOfAnEarlierRun) {
  // A campaign bundle rerun as a solve must not keep the campaign's block
  // log (a drift gate would pass on it), nor an earlier run's rotated
  // flight generation or trace, nor the files older bundles held; files
  // outside the bundle's names stay.
  const std::string dir = testing::TempDir() + "/hecmine_run_dir_rerun";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const char* name : {"blocklog.jsonl", "trace.json", "metrics.om",
                           "flight.jsonl.1", "notes.txt"})
    std::ofstream(dir + "/" + name) << "stale\n";
  support::Telemetry telemetry;
  {
    support::RunDir run_dir(dir, telemetry);
    EXPECT_FALSE(std::filesystem::exists(dir + "/blocklog.jsonl"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/trace.json"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/metrics.om"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/flight.jsonl.1"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/flight.jsonl"));
    std::ostringstream out;
    run_dir.finish(out);
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/metrics.om"));
  EXPECT_EQ(slurp(dir + "/notes.txt"), "stale\n");
  std::filesystem::remove_all(dir);
}

TEST(RunDir, UnwindStillFlushesTheMonitorEvents) {
  // The watchdog abort path leaves the scope by an exception, without
  // finish(): the line written before the throw stays, the recorder still
  // writes its final snapshot, and the sink's stream is detached.
  support::Telemetry telemetry;
  const std::string dir = testing::TempDir() + "/hecmine_run_dir_unwind";
  std::filesystem::remove_all(dir);
  try {
    support::RunDir run_dir(dir, telemetry);
    telemetry.stream->write_line("{\"schema\": \"hecmine.health.v1\"}\n");
    throw std::runtime_error("abort");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(telemetry.stream, nullptr);
  const auto lines = support::json::parse_lines(slurp(dir + "/flight.jsonl"));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].at("schema").as_string(), "hecmine.health.v1");
  EXPECT_TRUE(lines[2].contains("seq"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/trace.json"));
  std::filesystem::remove_all(dir);
}

}  // namespace

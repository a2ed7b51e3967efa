// Perf-regression ledger gate tests: self-comparison passes, synthetic
// slowdowns fail, noise-floor and label mismatches are skipped (not
// failed), config mismatches refuse the comparison, and equilibrium
// quality drift fails even when the timings improved.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "compare.hpp"
#include "support/json.hpp"

namespace {

using namespace hecmine;
using support::json::Value;

std::string ledger(double serial_ms, double parallel_ms, double gap,
                   double violation, int grid = 8) {
  std::ostringstream out;
  out << R"({"schema": "hecmine.bench.v1", "bench": "leader_stage",)"
      << R"( "config": {"miners": 4, "grid": )" << grid << "},"
      << R"( "runs": [)"
      << R"({"label": "homogeneous/serial", "wall_ms": )" << serial_ms * 0.9
      << R"(, "wall_ms_p50": )" << serial_ms << "},"
      << R"({"label": "homogeneous/parallel", "wall_ms": )" << parallel_ms * 0.9
      << R"(, "wall_ms_p50": )" << parallel_ms << "}],"
      << R"( "audit": {"best_response_gap": )" << gap
      << R"(, "capacity_violation": )" << violation << "}}";
  return out.str();
}

Value parse(const std::string& text) { return support::json::parse(text); }

TEST(BenchCompare, SelfComparisonIsClean) {
  const Value doc = parse(ledger(100.0, 50.0, 0.0, 0.0));
  const auto result = bench::compare_bench_json(doc, doc);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.error.empty());
  for (const auto& delta : result.deltas) {
    EXPECT_FALSE(delta.regressed) << delta.label;
  }
}

TEST(BenchCompare, FlagsSlowdownBeyondTolerance) {
  const Value baseline = parse(ledger(100.0, 50.0, 0.0, 0.0));
  const Value slowed = parse(ledger(130.0, 50.0, 0.0, 0.0));  // +30%
  const auto result = bench::compare_bench_json(baseline, slowed);
  EXPECT_FALSE(result.ok);
  bool found = false;
  for (const auto& delta : result.deltas) {
    if (delta.label == "homogeneous/serial") {
      EXPECT_TRUE(delta.regressed);
      EXPECT_NEAR(delta.ratio, 1.3, 1e-12);
      found = true;
    } else {
      EXPECT_FALSE(delta.regressed) << delta.label;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchCompare, ToleranceIsConfigurable) {
  const Value baseline = parse(ledger(100.0, 50.0, 0.0, 0.0));
  const Value slowed = parse(ledger(130.0, 50.0, 0.0, 0.0));
  bench::CompareOptions generous;
  generous.max_regression = 0.5;
  EXPECT_TRUE(bench::compare_bench_json(baseline, slowed, generous).ok);
}

TEST(BenchCompare, SpeedupIsNotARegression) {
  const Value baseline = parse(ledger(100.0, 50.0, 0.0, 0.0));
  const Value faster = parse(ledger(40.0, 20.0, 0.0, 0.0));
  EXPECT_TRUE(bench::compare_bench_json(baseline, faster).ok);
}

TEST(BenchCompare, NoiseFloorSkipsSubMillisecondRuns) {
  // 0.2ms -> 0.9ms is a 4.5x "slowdown" but both sit under the 1ms floor.
  const Value baseline = parse(ledger(0.2, 0.2, 0.0, 0.0));
  const Value current = parse(ledger(0.9, 0.9, 0.0, 0.0));
  const auto result = bench::compare_bench_json(baseline, current);
  EXPECT_TRUE(result.ok);
  for (const auto& delta : result.deltas) {
    if (delta.label.rfind("audit.", 0) == 0) continue;
    EXPECT_TRUE(delta.skipped) << delta.label;
  }
}

TEST(BenchCompare, ConfigMismatchRefusesToCompare) {
  const Value baseline = parse(ledger(100.0, 50.0, 0.0, 0.0, 8));
  const Value current = parse(ledger(100.0, 50.0, 0.0, 0.0, 40));
  const auto result = bench::compare_bench_json(baseline, current);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("config mismatch"), std::string::npos)
      << result.error;

  bench::CompareOptions no_check;
  no_check.check_config = false;
  EXPECT_TRUE(bench::compare_bench_json(baseline, current, no_check).ok);
}

TEST(BenchCompare, AuditDriftFailsEvenWhenFaster) {
  const Value baseline = parse(ledger(100.0, 50.0, 1e-9, 0.0));
  const Value degraded = parse(ledger(50.0, 25.0, 1e-3, 0.0));
  const auto result = bench::compare_bench_json(baseline, degraded);
  EXPECT_FALSE(result.ok);
  bool flagged = false;
  for (const auto& delta : result.deltas)
    if (delta.label == "audit.best_response_gap" && delta.regressed)
      flagged = true;
  EXPECT_TRUE(flagged);

  bench::CompareOptions no_audit;
  no_audit.check_audit = false;
  EXPECT_TRUE(bench::compare_bench_json(baseline, degraded, no_audit).ok);
}

TEST(BenchCompare, MissingRunInCurrentIsSkippedNotFailed) {
  const Value baseline = parse(ledger(100.0, 50.0, 0.0, 0.0));
  const Value current = parse(
      R"({"schema": "hecmine.bench.v1", "config": {"miners": 4, "grid": 8},)"
      R"( "runs": [{"label": "homogeneous/serial", "wall_ms": 100.0,)"
      R"( "wall_ms_p50": 100.0}]})");
  const auto result = bench::compare_bench_json(baseline, current);
  EXPECT_TRUE(result.ok);
  bool skipped = false;
  for (const auto& delta : result.deltas)
    if (delta.label == "homogeneous/parallel" && delta.skipped) skipped = true;
  EXPECT_TRUE(skipped);
}

TEST(BenchCompare, PreSchemaFilesFallBackToWallMs) {
  // No "schema", no percentiles, no config: the gate still compares the
  // legacy wall_ms numbers so old committed ledgers stay usable.
  const Value baseline = parse(
      R"({"runs": [{"label": "a", "wall_ms": 100.0}]})");
  const Value slowed = parse(
      R"({"runs": [{"label": "a", "wall_ms": 200.0}]})");
  EXPECT_TRUE(bench::compare_bench_json(baseline, baseline).ok);
  const auto result = bench::compare_bench_json(baseline, slowed);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.deltas.empty());
  EXPECT_DOUBLE_EQ(result.deltas[0].baseline, 100.0);
}

TEST(BenchCompare, StructuralErrorsAreReported) {
  const Value ok = parse(ledger(100.0, 50.0, 0.0, 0.0));
  const Value not_ledger = parse(R"({"hello": 1})");
  EXPECT_FALSE(bench::compare_bench_json(ok, not_ledger).error.empty());
  const Value bad_schema = parse(
      R"({"schema": "hecmine.bench.v999", "runs": []})");
  EXPECT_FALSE(bench::compare_bench_json(bad_schema, bad_schema).error
                   .empty());
  // Unreadable file surfaces through .error, not an exception.
  const auto missing = bench::compare_bench_files(
      "/nonexistent/baseline.json", "/nonexistent/current.json");
  EXPECT_FALSE(missing.error.empty());
}

/// Wraps a ledger with a hecmine.manifest.v1 block carrying the given
/// build-identity fields.
std::string with_manifest(const std::string& ledger_text,
                          const std::string& sha,
                          const std::string& build_type) {
  std::string text = ledger_text;
  const std::string manifest =
      R"("manifest": {"schema": "hecmine.manifest.v1", "git_sha": ")" + sha +
      R"(", "build_type": ")" + build_type +
      R"(", "sanitizer": "", "compiler": "gcc"}, )";
  text.insert(1, manifest);
  return text;
}

TEST(BenchCompare, ManifestMismatchWarnsWithoutFailing) {
  const std::string base = ledger(100.0, 50.0, 0.0, 0.0);
  const Value baseline = parse(with_manifest(base, "aaa111", "Release"));
  const Value current = parse(with_manifest(base, "bbb222", "Debug"));
  const auto result = bench::compare_bench_json(baseline, current);
  EXPECT_TRUE(result.ok);  // warnings never fail the gate
  ASSERT_EQ(result.warnings.size(), 2u);
  EXPECT_NE(result.warnings[0].find("git_sha"), std::string::npos);
  EXPECT_NE(result.warnings[1].find("build_type"), std::string::npos);
  std::ostringstream os;
  bench::print_compare(os, result);
  EXPECT_NE(os.str().find("warn manifest.git_sha"), std::string::npos)
      << os.str();
}

TEST(BenchCompare, IsaMismatchWarnsWithoutFailing) {
  // A ledger from an older -march=native build compared against a
  // generic-ISA baseline is a vectorization mismatch: warn, never gate.
  const std::string base = ledger(100.0, 50.0, 0.0, 0.0);
  const auto with_isa = [&](const std::string& isa) {
    std::string text = base;
    const std::string manifest =
        R"("manifest": {"schema": "hecmine.manifest.v1", "isa": ")" + isa +
        R"("}, )";
    text.insert(1, manifest);
    return text;
  };
  const Value baseline = parse(with_isa("generic"));
  const Value current = parse(with_isa("-march=native"));
  const auto result = bench::compare_bench_json(baseline, current);
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("isa"), std::string::npos);
  EXPECT_NE(result.warnings[0].find("-march=native"), std::string::npos);
}

TEST(BenchCompare, MatchingOrAbsentManifestsProduceNoWarnings) {
  const std::string base = ledger(100.0, 50.0, 0.0, 0.0);
  const Value bare = parse(base);  // pre-manifest ledger
  EXPECT_TRUE(bench::compare_bench_json(bare, bare).warnings.empty());
  const Value stamped = parse(with_manifest(base, "aaa111", "Release"));
  EXPECT_TRUE(
      bench::compare_bench_json(stamped, stamped).warnings.empty());
  // One side stamped, the other pre-manifest: nothing to compare.
  EXPECT_TRUE(bench::compare_bench_json(bare, stamped).warnings.empty());
}

/// Ledger with a single run whose convergence flag is configurable.
std::string ledger_with_converged(bool converged, double wall_ms = 100.0) {
  std::ostringstream out;
  out << R"({"schema": "hecmine.bench.v1", "config": {"grid": 8},)"
      << R"( "runs": [{"label": "heterogeneous/serial", "wall_ms": )"
      << wall_ms << R"(, "wall_ms_p50": )" << wall_ms
      << R"(, "converged": )" << (converged ? "true" : "false") << "}]}";
  return out.str();
}

TEST(BenchCompare, ConvergedRegressionWarnsWithoutFailing) {
  const Value baseline = parse(ledger_with_converged(true));
  const Value regressed = parse(ledger_with_converged(false));
  const auto result = bench::compare_bench_json(baseline, regressed);
  EXPECT_TRUE(result.ok);  // timing unchanged; the flag alone never gates
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("heterogeneous/serial"),
            std::string::npos);
  EXPECT_NE(result.warnings[0].find("non-converged"), std::string::npos);
  std::ostringstream os;
  bench::print_compare(os, result);
  EXPECT_NE(os.str().find("warn heterogeneous/serial"), std::string::npos)
      << os.str();
}

TEST(BenchCompare, ConvergedStableOrRecoveredProducesNoWarning) {
  const Value converged = parse(ledger_with_converged(true));
  const Value cycling = parse(ledger_with_converged(false));
  // Stable (true->true, false->false) and recovery (false->true) are quiet.
  EXPECT_TRUE(bench::compare_bench_json(converged, converged).warnings.empty());
  EXPECT_TRUE(bench::compare_bench_json(cycling, cycling).warnings.empty());
  EXPECT_TRUE(bench::compare_bench_json(cycling, converged).warnings.empty());
  // Pre-flag ledgers (no "converged" field) are also quiet.
  const Value bare = parse(
      R"({"runs": [{"label": "heterogeneous/serial", "wall_ms": 100.0}]})");
  EXPECT_TRUE(bench::compare_bench_json(bare, converged).warnings.empty());
  EXPECT_TRUE(bench::compare_bench_json(converged, bare).warnings.empty());
}

TEST(BenchCompare, PrintReportsVerdictAndDeltas) {
  const Value baseline = parse(ledger(100.0, 50.0, 0.0, 0.0));
  const Value slowed = parse(ledger(130.0, 50.0, 0.0, 0.0));
  std::ostringstream os;
  bench::print_compare(os, bench::compare_bench_json(baseline, slowed));
  const std::string text = os.str();
  EXPECT_NE(text.find("REGRESSION"), std::string::npos) << text;
  EXPECT_NE(text.find("homogeneous/serial"), std::string::npos) << text;
}

/// Ledger with one run plus a deterministic work-counters section.
std::string work_ledger(std::uint64_t sweeps, std::uint64_t br_evals = 4000,
                        bool with_counters = true) {
  std::ostringstream out;
  out << R"({"schema": "hecmine.bench.v1", "config": {"miners": 4},)"
      << R"( "runs": [{"label": "homogeneous/serial", "wall_ms": 100.0}])";
  if (with_counters) {
    out << R"(, "counters": {"homogeneous/serial": {"solves": 1,)"
        << R"( "sweeps": )" << sweeps << R"(, "best_response_evals": )"
        << br_evals << R"(, "cache_hits": 0}}})";
  } else {
    out << "}";
  }
  return out.str();
}

TEST(BenchCompare, InjectedSweepCountRegressionFailsTheGate) {
  const Value baseline = parse(work_ledger(1000));
  const Value bloated = parse(work_ledger(1200));  // +20% work, same timing
  const auto result = bench::compare_bench_json(baseline, bloated);
  EXPECT_FALSE(result.ok);
  bool found = false;
  for (const auto& delta : result.deltas) {
    if (delta.label == "counters.homogeneous/serial.sweeps") {
      EXPECT_TRUE(delta.regressed);
      EXPECT_NEAR(delta.ratio, 1.2, 1e-12);
      found = true;
    } else {
      EXPECT_FALSE(delta.regressed) << delta.label;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchCompare, IdenticalWorkCountsPassTheGate) {
  const Value doc = parse(work_ledger(1000));
  const auto result = bench::compare_bench_json(doc, doc);
  EXPECT_TRUE(result.ok);
  // Deterministic counts compare exactly: every counter delta is present
  // and clean.
  bool saw_counter = false;
  for (const auto& delta : result.deltas)
    if (delta.label.rfind("counters.", 0) == 0) {
      saw_counter = true;
      EXPECT_FALSE(delta.regressed) << delta.label;
    }
  EXPECT_TRUE(saw_counter);
}

TEST(BenchCompare, WorkToleranceIsConfigurable) {
  const Value baseline = parse(work_ledger(1000));
  const Value bloated = parse(work_ledger(1200));
  bench::CompareOptions loose;
  loose.max_work_regression = 0.25;
  EXPECT_TRUE(bench::compare_bench_json(baseline, bloated, loose).ok);
  bench::CompareOptions off;
  off.check_counters = false;
  const auto result = bench::compare_bench_json(baseline, bloated, off);
  EXPECT_TRUE(result.ok);
  for (const auto& delta : result.deltas)
    EXPECT_EQ(delta.label.rfind("counters.", 0), std::string::npos);
}

TEST(BenchCompare, MissingCountersSectionSkipsTheCheck) {
  // Pre-counter baselines (and currents) stay comparable: the whole check
  // is skipped when either side lacks the section.
  const Value with = parse(work_ledger(1000));
  const Value without = parse(work_ledger(0, 0, false));
  EXPECT_TRUE(bench::compare_bench_json(without, with).ok);
  EXPECT_TRUE(bench::compare_bench_json(with, without).ok);
}

TEST(BenchCompare, NewAndVanishedWorkMetricsSkipNotFail) {
  // Baseline 0 -> current positive is new instrumentation, not a
  // regression; a label missing from the current counters is skipped.
  const Value zero = parse(work_ledger(0));
  const Value nonzero = parse(work_ledger(500));
  const auto grown = bench::compare_bench_json(zero, nonzero);
  EXPECT_TRUE(grown.ok);
  bool skipped = false;
  for (const auto& delta : grown.deltas)
    if (delta.label == "counters.homogeneous/serial.sweeps") {
      EXPECT_TRUE(delta.skipped);
      skipped = true;
    }
  EXPECT_TRUE(skipped);

  const std::string other_label = R"({"schema": "hecmine.bench.v1",
    "config": {"miners": 4},
    "runs": [{"label": "homogeneous/serial", "wall_ms": 100.0}],
    "counters": {"homogeneous/parallel": {"sweeps": 7}}})";
  const auto renamed = bench::compare_bench_json(parse(work_ledger(1000)),
                                                 parse(other_label));
  EXPECT_TRUE(renamed.ok);
  bool label_skipped = false;
  for (const auto& delta : renamed.deltas)
    if (delta.label == "counters.homogeneous/serial" && delta.skipped)
      label_skipped = true;
  EXPECT_TRUE(label_skipped);
}

TEST(BenchCompare, StrictModePromotesWarningsToFailure) {
  const std::string base = ledger(100.0, 50.0, 0.0, 0.0);
  const Value baseline = parse(with_manifest(base, "aaa111", "Release"));
  const Value current = parse(with_manifest(base, "bbb222", "Release"));
  bench::CompareOptions options;
  // Non-strict: the git_sha mismatch only warns.
  EXPECT_TRUE(bench::compare_bench_json(baseline, current, options).ok);
  options.strict = true;
  const auto result = bench::compare_bench_json(baseline, current, options);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.strict_failed);
  ASSERT_EQ(result.warnings.size(), 1u);
  std::ostringstream os;
  bench::print_compare(os, result);
  EXPECT_NE(os.str().find("strict"), std::string::npos) << os.str();
  // Strict with nothing to warn about stays green.
  EXPECT_TRUE(bench::compare_bench_json(baseline, baseline, options).ok);
}

}  // namespace

// Telemetry subsystem tests: registry thread-safety under the pool,
// histogram bucket semantics, JSON export shape, the null-sink zero-cost
// path, the cross-solver ConvergenceReport vocabulary, and the follower
// oracle's instruments and stage-level spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/sp.hpp"
#include "numerics/vi.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace hecmine;
using support::Telemetry;

TEST(Counter, AccumulatesAndNeverDecreases) {
  support::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  support::Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.raise_to(1.0);  // below the value: no change
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.raise_to(3.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
}

TEST(HistogramMetric, BucketEdgesAreInclusiveUpperBounds) {
  support::HistogramMetric histogram({1.0, 2.0, 4.0});
  // bucket i counts v <= edges[i]; edge values land in their own bucket,
  // anything beyond the last edge goes to the implicit overflow bucket.
  histogram.observe(0.5);   // <= 1
  histogram.observe(1.0);   // <= 1 (inclusive)
  histogram.observe(1.5);   // <= 2
  histogram.observe(4.0);   // <= 4
  histogram.observe(100.0); // overflow
  const auto counts = histogram.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 100.0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 107.0);
}

TEST(HistogramMetric, EmptyReportsZeros) {
  support::HistogramMetric histogram({1.0});
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
}

TEST(HistogramMetric, RejectsUnsortedEdges) {
  EXPECT_THROW(support::HistogramMetric({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(support::HistogramMetric({}), std::invalid_argument);
}

TEST(HistogramMetric, QuantilesOnAUniformGridAreExact) {
  // One observation per unit bucket 1..10: every quantile interpolates
  // exactly. p50 = 5, p95 = 9.5, p99 = 9.9.
  support::HistogramMetric histogram(
      {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0});
  for (int v = 1; v <= 10; ++v) histogram.observe(static_cast<double>(v));
  EXPECT_NEAR(histogram.quantile(0.50), 5.0, 1e-12);
  EXPECT_NEAR(histogram.quantile(0.95), 9.5, 1e-12);
  EXPECT_NEAR(histogram.quantile(0.99), 9.9, 1e-12);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 1.0);   // observed min
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 10.0);  // observed max
}

TEST(HistogramMetric, QuantilesClampToTheObservedRange) {
  // All mass at one value inside a wide bucket: interpolation must not
  // stretch across the bucket — every quantile is the value itself.
  support::HistogramMetric histogram({10.0});
  for (int i = 0; i < 10; ++i) histogram.observe(5.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.95), 5.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 5.0);
}

TEST(HistogramMetric, QuantileOfEmptyIsZero) {
  support::HistogramMetric histogram({1.0});
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.95), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 0.0);
}

TEST(HistogramMetric, SingleSampleIsEveryQuantile) {
  // One observation: min == max == the sample, so every quantile must
  // collapse to it regardless of where it lands inside the bucket.
  support::HistogramMetric histogram({1.0, 10.0});
  histogram.observe(3.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.50), 3.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.95), 3.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 3.0);
}

TEST(HistogramMetric, SkewedDistributionSeparatesP50FromTail) {
  // 95 fast observations and 5 slow ones: the median stays in the fast
  // bucket while p99 reaches into the tail.
  support::HistogramMetric histogram({1.0, 2.0, 50.0, 100.0});
  for (int i = 0; i < 95; ++i) histogram.observe(0.5);
  for (int i = 0; i < 5; ++i) histogram.observe(80.0);
  EXPECT_LE(histogram.quantile(0.50), 1.0);
  EXPECT_GT(histogram.quantile(0.99), 50.0);
  EXPECT_LE(histogram.quantile(0.99), 80.0);
}

TEST(GeometricEdges, GrowsByFactor) {
  const auto edges = support::geometric_edges(1.0, 2.0, 4);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_DOUBLE_EQ(edges[0], 1.0);
  EXPECT_DOUBLE_EQ(edges[3], 8.0);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(MetricsRegistry, HandlesAreStableAndFirstEdgesWin) {
  support::MetricsRegistry registry;
  support::Counter& a = registry.counter("x");
  support::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  support::HistogramMetric& h1 = registry.histogram("h", {1.0, 2.0});
  support::HistogramMetric& h2 = registry.histogram("h", {5.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.edges().size(), 2u);  // first registration wins
}

TEST(MetricsRegistry, ConcurrentIncrementsUnderThePoolLoseNothing) {
  support::MetricsRegistry registry;
  constexpr std::size_t kTasks = 64;
  constexpr int kPerTask = 1000;
  // Every task resolves the instruments by name (hammering the stripe
  // locks) and increments; nothing may be lost or torn.
  support::parallel_for(
      kTasks,
      [&](std::size_t task) {
        support::Counter& counter = registry.counter("pool.counter");
        support::HistogramMetric& histogram =
            registry.histogram("pool.histogram", {10.0, 100.0, 1000.0});
        for (int i = 0; i < kPerTask; ++i) {
          counter.add();
          histogram.observe(static_cast<double>(task));
        }
      },
      0);
  EXPECT_EQ(registry.counter("pool.counter").value(), kTasks * kPerTask);
  EXPECT_EQ(registry.histogram("pool.histogram", {}).count(),
            kTasks * kPerTask);
}

TEST(MetricsRegistry, PoolTasksAggregateWorkCountersDeterministically) {
  // Pool workers install the issuer's sink (TelemetryScope in the worker
  // loop), so work counted inside tasks lands in the sink's WorkProfile —
  // and sums to the same total regardless of worker count.
  support::Telemetry sink;
  const support::TelemetryScope scope(&sink);
  constexpr std::size_t kTasks = 32;
  support::parallel_for(
      kTasks,
      [&](std::size_t i) {
        support::prof::ThreadWorkBlock* work = support::prof::current_block();
        ASSERT_NE(work, nullptr);
        work->add(support::prof::WorkField::kBestResponseEvals, i + 1);
        sink.metrics.counter("pool.work").add();
      },
      4);
  const support::prof::WorkCounters total = sink.work.total();
  EXPECT_EQ(total[support::prof::WorkField::kBestResponseEvals],
            kTasks * (kTasks + 1) / 2);
  EXPECT_EQ(sink.metrics.counter("pool.work").value(), kTasks);
}

/// Occupies every worker of `pool` at once, so each has finished whatever
/// it dequeued before. Call outside any TelemetryScope.
void drain(support::ThreadPool& pool) {
  std::atomic<int> parked{0};
  std::vector<std::future<void>> tasks;
  for (int worker = 0; worker < pool.workers(); ++worker) {
    tasks.push_back(pool.submit([&] {
      parked.fetch_add(1);
      while (parked.load() < pool.workers()) std::this_thread::yield();
    }));
  }
  for (auto& task : tasks) task.get();
}

TEST(MetricsRegistry, PoolTasksNeverOutliveTheIssuersSink) {
  // The test above, 200 times per thread count, plus one submit() per
  // repetition. Once parallel_for or future::get returns, the issuer may
  // destroy its sink. So by then every span a pool thread opened in it
  // must be closed, and no helper dequeued late may open another: after
  // the pool drains, the sink must hold exactly the spans it held at
  // return. The pool has more workers than most hosts have cores, so late
  // helpers are common.
  support::ThreadPool pool(7);
  constexpr std::size_t kTasks = 32;
  for (const int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 200; ++rep) {
      const std::string where =
          "threads=" + std::to_string(threads) + " rep=" + std::to_string(rep);
      support::Telemetry sink;
      const auto expect_quiet_after = [&](const auto& issue) {
        std::vector<support::SolveTrace::Span> at_return;
        {
          const support::TelemetryScope scope(&sink);
          issue();
          at_return = sink.trace.snapshot();
        }
        drain(pool);
        for (const auto& span : at_return)
          ASSERT_TRUE(span.closed) << span.name << " still open; " << where;
        ASSERT_EQ(sink.trace.snapshot().size(), at_return.size()) << where;
      };
      expect_quiet_after([&] {
        pool.parallel_for(
            kTasks,
            [&](std::size_t i) {
              support::prof::ThreadWorkBlock* work =
                  support::prof::current_block();
              ASSERT_NE(work, nullptr);
              work->add(support::prof::WorkField::kBestResponseEvals, i + 1);
              sink.metrics.counter("pool.work").add();
            },
            threads);
      });
      expect_quiet_after([&] {
        pool.submit([&] { sink.metrics.counter("pool.work").add(); }).get();
      });
      ASSERT_EQ(
          sink.work.total()[support::prof::WorkField::kBestResponseEvals],
          kTasks * (kTasks + 1) / 2)
          << where;
      ASSERT_EQ(sink.metrics.counter("pool.work").value(), kTasks + 1)
          << where;
    }
  }
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  support::MetricsRegistry registry;
  registry.counter("zeta").add();
  registry.counter("alpha").add();
  registry.gauge("mid").set(1.0);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
}

TEST(SolveTrace, NestsSpansPerThreadAndDropsAtCapacity) {
  support::SolveTrace trace(3);
  const int outer = trace.begin("outer");
  const int inner = trace.begin("inner");
  trace.end(inner);
  trace.end(outer);
  const int third = trace.begin("third");
  trace.end(third);
  EXPECT_EQ(trace.begin("overflow"), -1);  // capacity 3 reached
  trace.end(-1);                           // must be a safe no-op
  EXPECT_EQ(trace.dropped(), 1u);

  const auto spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].parent, -1);  // third opened after outer closed
  for (const auto& span : spans) EXPECT_GE(span.duration_ms, 0.0);
}

TEST(SolveTrace, NullScopeIsNoop) {
  // Scope must tolerate a null trace — that is the telemetry-off hot path.
  support::SolveTrace::Scope scope(nullptr, "nothing");
}

TEST(MetricsRegistry, SnapshotCarriesHistogramPercentiles) {
  support::MetricsRegistry registry;
  auto& histogram = registry.histogram(
      "p.hist", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0});
  for (int v = 1; v <= 10; ++v) histogram.observe(static_cast<double>(v));
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_NEAR(snap.histograms[0].p50, 5.0, 1e-12);
  EXPECT_NEAR(snap.histograms[0].p95, 9.5, 1e-12);
  EXPECT_NEAR(snap.histograms[0].p99, 9.9, 1e-12);
}

// --- IterationProbe -------------------------------------------------------

support::IterationProbe::Record probe_record(int iteration, double residual) {
  support::IterationProbe::Record record;
  record.solver = "test.solver";
  record.solve = 1;
  record.iteration = iteration;
  record.residual = residual;
  return record;
}

TEST(IterationProbe, DisarmedRecordIsDropped) {
  support::IterationProbe probe;
  EXPECT_FALSE(probe.armed());
  probe.record(probe_record(0, 1.0));
  EXPECT_EQ(probe.total(), 0u);
  EXPECT_TRUE(probe.snapshot().empty());
}

TEST(IterationProbe, ArmedRingKeepsTheNewestRecordsInOrder) {
  support::IterationProbe probe(4);
  probe.arm();
  for (int i = 0; i < 10; ++i)
    probe.record(probe_record(i, 1.0 / (1.0 + i)));
  EXPECT_EQ(probe.total(), 10u);
  EXPECT_EQ(probe.overwritten(), 6u);
  const auto records = probe.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].iteration, 6 + i);
  }
}

TEST(IterationProbe, SolveIdsAreUniqueAndIncreasing) {
  support::IterationProbe probe;
  const auto a = probe.next_solve_id();
  const auto b = probe.next_solve_id();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
}

TEST(IterationProbe, StreamsJsonlWithSchemaHeader) {
  const std::string path =
      testing::TempDir() + "/hecmine_probe_stream.jsonl";
  std::remove(path.c_str());
  {
    support::IterationProbe probe;
    probe.stream_to(path);
    EXPECT_TRUE(probe.armed());  // streaming arms the probe
    probe.flush();
    // The file is opened at the first record, not before.
    EXPECT_FALSE(std::ifstream(path).good());
    auto record = probe_record(3, 0.25);
    record.price_edge = 2.0;
    record.price_cloud = 1.0;
    record.total_edge = 6.0;
    record.total_cloud = 12.0;
    record.step = 0.5;
    record.cap_active = true;
    probe.record(record);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::string line;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(header.find("hecmine.iterlog.v1"), std::string::npos);
  EXPECT_NE(line.find("\"solver\": \"test.solver\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"iteration\": 3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"residual\": 0.25"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cap_active\": true"), std::string::npos) << line;
  std::remove(path.c_str());
}

TEST(IterationProbe, ConcurrentRecordsUnderThePoolLoseNothing) {
  support::IterationProbe probe(64);
  probe.arm();
  constexpr std::size_t kTasks = 8;
  constexpr int kPerTask = 100;
  support::parallel_for(
      kTasks,
      [&](std::size_t task) {
        for (int i = 0; i < kPerTask; ++i)
          probe.record(probe_record(i, static_cast<double>(task)));
      },
      0);
  EXPECT_EQ(probe.total(), kTasks * kPerTask);
  EXPECT_EQ(probe.snapshot().size(), 64u);
  EXPECT_EQ(probe.overwritten(), kTasks * kPerTask - 64u);
}

TEST(TelemetryScope, InstallsAndRestoresThreadLocalSink) {
  EXPECT_EQ(support::current_telemetry(), nullptr);
  Telemetry sink;
  {
    support::TelemetryScope scope(&sink);
    EXPECT_EQ(support::current_telemetry(), &sink);
    {
      Telemetry nested;
      support::TelemetryScope inner(&nested);
      EXPECT_EQ(support::current_telemetry(), &nested);
    }
    EXPECT_EQ(support::current_telemetry(), &sink);
  }
  EXPECT_EQ(support::current_telemetry(), nullptr);
}

// Minimal structural JSON check: balanced braces/brackets outside strings,
// and an even number of unescaped quotes. Not a parser, but catches the
// classic emission bugs (dangling comma handling is covered by substring
// checks below).
bool json_balanced(const std::string& text) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

TEST(ToJson, EmptySinkIsWellFormed) {
  Telemetry telemetry;
  const std::string json = support::to_json(telemetry);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"hecmine.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
}

TEST(ToJson, CarriesInstrumentsAndTrace) {
  Telemetry telemetry;
  telemetry.metrics.counter("a.count").add(7);
  telemetry.metrics.gauge("b.gauge").set(0.125);
  telemetry.metrics.histogram("c.hist", {1.0, 2.0}).observe(1.5);
  {
    support::SolveTrace::Scope scope(&telemetry.trace, "phase");
  }
  const std::string json = support::to_json(telemetry);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.gauge\": 0.125"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counts\": [0, 1, 0]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"phase\""), std::string::npos) << json;
}

TEST(ToJson, NonFiniteGaugesDegradeToNull) {
  Telemetry telemetry;
  telemetry.metrics.gauge("bad").set(std::nan(""));
  const std::string json = support::to_json(telemetry);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"bad\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

TEST(WriteJson, RoundTripsThroughTheFile) {
  Telemetry telemetry;
  telemetry.metrics.counter("file.count").add(3);
  const std::string path =
      testing::TempDir() + "/hecmine_telemetry_roundtrip.json";
  support::write_json(telemetry, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), support::to_json(telemetry));
  std::remove(path.c_str());
}

TEST(PrintSummary, RendersTablesForEverySection) {
  Telemetry telemetry;
  telemetry.metrics.counter("s.count").add(2);
  telemetry.metrics.gauge("s.gauge").set(1.0);
  telemetry.metrics.histogram("s.hist", {1.0}).observe(0.5);
  {
    support::SolveTrace::Scope scope(&telemetry.trace, "root");
  }
  std::ostringstream os;
  support::print_summary(os, telemetry);
  const std::string text = os.str();
  EXPECT_NE(text.find("s.count"), std::string::npos);
  EXPECT_NE(text.find("s.gauge"), std::string::npos);
  EXPECT_NE(text.find("s.hist"), std::string::npos);
  EXPECT_NE(text.find("root"), std::string::npos);
}

// --- cross-solver ConvergenceReport consistency ---------------------------

core::NetworkParams standalone_params() {
  core::NetworkParams params;
  params.edge_capacity = 8.0;  // matches test_core_oracle's standalone game
  return params;
}

TEST(ConvergenceReport, ProfileViAndGnepAgreeOnTheVocabulary) {
  const core::NetworkParams params = standalone_params();
  const core::Prices prices{2.2, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};

  // Same game through the class solver's shared-surcharge decomposition
  // and the VI reference; each result's report() must mirror the struct's
  // own fields, and both must converge. Every budget affords the symmetric
  // cap request here, so the class solve is closed form: only the VI
  // iterates.
  const core::EquilibriumProfile classes =
      core::solve_followers(params, prices, budgets,
                            core::EdgeMode::kStandalone);
  const core::EquilibriumProfile reference =
      core::solve_followers_vi(params, prices, budgets,
                               core::EdgeMode::kStandalone);
  for (const core::EquilibriumProfile* profile : {&classes, &reference}) {
    const support::ConvergenceReport report = profile->report();
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(report.converged, profile->converged);
    EXPECT_EQ(report.iterations, profile->iterations);
    EXPECT_DOUBLE_EQ(report.residual, profile->residual);
  }
  EXPECT_EQ(classes.iterations, 0);
  EXPECT_GT(reference.iterations, 0);

  // A raw VI solve reports through the same vocabulary.
  num::VariationalInequality vi;
  vi.map = [](const std::vector<double>& x) {
    return std::vector<double>{x[0] - 0.5};
  };
  vi.project = [](const std::vector<double>& x) {
    return std::vector<double>{std::clamp(x[0], 0.0, 1.0)};
  };
  const num::VIResult solved = num::solve_extragradient(vi, {0.0});
  const support::ConvergenceReport vi_report = solved.report();
  EXPECT_TRUE(vi_report.converged);
  EXPECT_EQ(vi_report.iterations, solved.iterations);
  EXPECT_DOUBLE_EQ(vi_report.residual, solved.residual);
}

TEST(InstrumentedOracle, CountsSolvesAndPropagatesTheSinkToDeepLayers) {
  const core::NetworkParams params = standalone_params();
  const core::Prices prices{2.2, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};

  Telemetry telemetry;
  core::SolveContext context;
  context.telemetry = &telemetry;
  const auto oracle = core::make_follower_oracle(
      params, budgets, core::EdgeMode::kStandalone, context);
  const core::EquilibriumProfile profile = oracle->solve(prices);

  EXPECT_EQ(telemetry.metrics.counter("oracle.solves").value(), 1u);
  EXPECT_EQ(telemetry.metrics.counter("oracle.nonconverged").value(), 0u);
  EXPECT_EQ(telemetry.metrics.gauge("oracle.aggregate.classes").value(), 3.0);
  // The class solver runs under the TLS scope, so its work counters land
  // in the same sink without any plumbing through MinerSolveOptions.
  EXPECT_TRUE(telemetry.work.total().any());
  // The solve itself opens no span: spans belong to the stages.
  EXPECT_TRUE(telemetry.trace.snapshot().empty());
  EXPECT_EQ(support::current_telemetry(), nullptr);  // scope restored

  // The one-shot entry point is one stage with one `followers` span.
  Telemetry one_shot;
  context.telemetry = &one_shot;
  const core::EquilibriumProfile again = core::solve_followers(
      params, prices, budgets, core::EdgeMode::kStandalone, context);
  EXPECT_EQ(again.totals.edge, profile.totals.edge);
  const auto spans = one_shot.trace.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.front().name, "followers");
  EXPECT_TRUE(spans.front().work.any());
  EXPECT_EQ(one_shot.metrics.counter("oracle.solves").value(), 1u);
}

TEST(TelemetryScope, PoolWorkersNestScopedSolvesWithoutCrossTalk) {
  // Satellite-case regression: a pool worker installs its own scope, then
  // runs a solve instrumented into another sink (the oracle installs its
  // sink as a second TLS scope around the follower solve). The nested
  // scope must capture the solve's counters, restore the worker's own sink
  // on exit, and never leak across workers or to the main thread.
  const core::NetworkParams params = standalone_params();
  const core::Prices prices{2.2, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};
  constexpr std::size_t kTasks = 8;
  std::vector<Telemetry> worker_sinks(kTasks);
  std::vector<Telemetry> solve_sinks(kTasks);
  std::vector<int> restored(kTasks, 0);
  support::parallel_for(
      kTasks,
      [&](std::size_t i) {
        support::TelemetryScope worker_scope(&worker_sinks[i]);
        worker_sinks[i].metrics.counter("worker.tick").add();
        core::SolveContext context;
        context.telemetry = &solve_sinks[i];
        const auto oracle = core::make_follower_oracle(
            params, budgets, core::EdgeMode::kStandalone, context);
        (void)oracle->solve(prices);
        // The oracle's nested scope must have restored this worker's sink.
        restored[i] = support::current_telemetry() == &worker_sinks[i];
      },
      0);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(restored[i], 1) << "worker " << i;
    // The solve's counters and work landed in the nested sink, not the
    // worker's.
    EXPECT_EQ(solve_sinks[i].metrics.counter("oracle.solves").value(), 1u);
    EXPECT_TRUE(solve_sinks[i].work.total().any());
    EXPECT_FALSE(worker_sinks[i].work.total().any());
    EXPECT_EQ(worker_sinks[i].metrics.counter("oracle.solves").value(), 0u);
    EXPECT_EQ(worker_sinks[i].metrics.counter("worker.tick").value(), 1u);
  }
  EXPECT_EQ(support::current_telemetry(), nullptr);  // main thread untouched
}

TEST(InstrumentedOracle, ResidualMaxIsTheLargestSolveResidual) {
  // oracle.residual_max is the largest certificate residual over the
  // instrumented solves: a maximum, so the same at 1 and 4 threads.
  const core::NetworkParams params = standalone_params();
  const std::vector<double> budgets{1.0, 25.0, 35.0, 45.0};
  std::vector<core::Prices> grid;
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j)
      grid.push_back({1.2 + 0.4 * i, 0.5 + 0.3 * j});
  const auto residual_max = [&](int threads) {
    Telemetry telemetry;
    core::SolveContext context;
    context.telemetry = &telemetry;
    const auto oracle = core::make_follower_oracle(
        params, budgets, core::EdgeMode::kStandalone, context);
    std::vector<double> residuals(grid.size(), 0.0);
    support::parallel_for(
        grid.size(),
        [&](std::size_t i) { residuals[i] = oracle->solve(grid[i]).residual; },
        threads);
    EXPECT_EQ(telemetry.metrics.counter("oracle.solves").value(),
              grid.size());
    const double gauge =
        telemetry.metrics.gauge("oracle.residual_max").value();
    EXPECT_EQ(gauge, *std::max_element(residuals.begin(), residuals.end()));
    return gauge;
  };
  const double serial = residual_max(1);
  EXPECT_GT(serial, 0.0);
  EXPECT_EQ(residual_max(4), serial);
}

TEST(InstrumentedOracle, LeaderStageSpansArePerStage) {
  // With a sink a leader stage records spans at its stage boundaries only:
  // no follower solve opens one, so even a heterogeneous stage of tens of
  // thousands of solves fits the trace. Its counts do not depend on the
  // thread count.
  const std::set<std::string> stage_spans = {
      "leader_stage", "best_response", "finish", "sequential",
      "leader.round", "pool.batch",    "pool.task"};
  const core::NetworkParams params;
  const std::vector<std::vector<double>> pools = {
      std::vector<double>(10, 200.0), {200.0, 220.0}, {200.0, 220.0, 240.0}};
  for (const core::EdgeMode mode :
       {core::EdgeMode::kConnected, core::EdgeMode::kStandalone}) {
    for (const std::vector<double>& budgets : pools) {
      std::vector<std::uint64_t> solves;
      std::vector<support::prof::WorkCounters> work;
      for (const int threads : {1, 4}) {
        Telemetry telemetry;
        core::SpSolveOptions options;
        options.context.threads = threads;
        options.context.telemetry = &telemetry;
        (void)core::solve_leader_stage(params, budgets, mode, options);
        const std::string label = std::to_string(budgets.size()) +
                                  " miners, threads " +
                                  std::to_string(threads);
        EXPECT_EQ(telemetry.trace.dropped(), 0u) << label;
        const auto spans = telemetry.trace.snapshot();
        EXPECT_FALSE(spans.empty()) << label;
        for (const auto& span : spans)
          EXPECT_EQ(stage_spans.count(span.name), 1u)
              << label << ": span " << span.name;
        solves.push_back(telemetry.metrics.counter("oracle.solves").value());
        work.push_back(telemetry.work.total());
      }
      // A multi-class stage scans the composite: tens of thousands of
      // follower solves, past the trace's 4096 spans.
      const bool scanned = budgets.front() != budgets.back();
      EXPECT_GT(solves[0], scanned ? 4096u : 0u);
      EXPECT_EQ(solves[0], solves[1]);
      EXPECT_EQ(work[0], work[1]);
    }
  }
}

TEST(NullSink, SolveWithoutTelemetryTouchesNoGlobalState) {
  const core::NetworkParams params = standalone_params();
  const core::Prices prices{2.2, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};

  // No sink anywhere: the solve must neither crash nor install telemetry.
  const auto oracle = core::make_follower_oracle(
      params, budgets, core::EdgeMode::kStandalone, core::SolveContext{});
  const core::EquilibriumProfile profile = oracle->solve(prices);
  EXPECT_TRUE(profile.converged);
  EXPECT_EQ(support::current_telemetry(), nullptr);
}

}  // namespace

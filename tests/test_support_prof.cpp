// Work-counter profiling tests: counter arithmetic, the single-writer
// thread-block discipline, deterministic WorkProfile totals under
// concurrent pool tasks, the TelemetryScope TLS install/restore contract,
// per-span work attribution, and the hot-path report built from a
// synthetic hecmine.trace.v1 document.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/prof.hpp"
#include "support/prof_report.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace hecmine;
namespace prof = support::prof;
using prof::WorkField;

TEST(WorkCounters, FieldArithmeticAndEvals) {
  prof::WorkCounters work;
  EXPECT_FALSE(work.any());
  work[WorkField::kSweeps] = 3;
  work[WorkField::kBestResponseEvals] = 10;
  work[WorkField::kUtilityEvals] = 5;
  work[WorkField::kGradientEvals] = 2;
  EXPECT_TRUE(work.any());
  EXPECT_EQ(work.evals(), 17u);

  prof::WorkCounters other;
  other[WorkField::kSweeps] = 1;
  other[WorkField::kBisectionIters] = 7;
  work += other;
  EXPECT_EQ(work[WorkField::kSweeps], 4u);
  EXPECT_EQ(work[WorkField::kBisectionIters], 7u);

  const prof::WorkCounters delta = work.delta_since(other);
  EXPECT_EQ(delta[WorkField::kSweeps], 3u);
  EXPECT_EQ(delta[WorkField::kBisectionIters], 0u);
  EXPECT_EQ(delta[WorkField::kBestResponseEvals], 10u);

  EXPECT_EQ(work.delta_since(work), prof::WorkCounters{});
}

TEST(WorkCounters, FieldNamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < prof::kWorkFieldCount; ++i)
    names.emplace_back(prof::work_field_name(static_cast<WorkField>(i)));
  EXPECT_EQ(names.front(), "sweeps");
  EXPECT_EQ(names.back(), "soa_bytes_moved");
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
}

TEST(ThreadWorkBlock, AddAndSnapshot) {
  prof::ThreadWorkBlock block;
  block.add(WorkField::kSweeps, 2);
  block.add(WorkField::kSweeps, 3);
  prof::WorkCounters bulk;
  bulk[WorkField::kSoaBytesMoved] = 1024;
  block.add(bulk);
  const prof::WorkCounters snap = block.snapshot();
  EXPECT_EQ(snap[WorkField::kSweeps], 5u);
  EXPECT_EQ(snap[WorkField::kSoaBytesMoved], 1024u);
  EXPECT_EQ(snap[WorkField::kBisectionIters], 0u);
}

TEST(WorkProfile, LocalBlockIsStablePerThread) {
  prof::WorkProfile profile;
  prof::ThreadWorkBlock* first = &profile.local();
  prof::ThreadWorkBlock* second = &profile.local();
  EXPECT_EQ(first, second);
  EXPECT_EQ(profile.thread_count(), 1);

  prof::ThreadWorkBlock* other = nullptr;
  std::thread worker([&] { other = &profile.local(); });
  worker.join();
  EXPECT_NE(other, first);
  EXPECT_EQ(profile.thread_count(), 2);
}

TEST(WorkProfile, TotalIsDeterministicAcrossThreadCounts) {
  // The same logical work split across different worker counts must sum
  // to the identical total — the determinism contract the work-count
  // tests stand on.
  constexpr std::uint64_t kTasks = 64;
  std::vector<prof::WorkCounters> totals;
  for (const int threads : {1, 2, 4}) {
    prof::WorkProfile profile;
    support::parallel_for(
        kTasks,
        [&](std::size_t i) {
          prof::ThreadWorkBlock& block = profile.local();
          block.add(WorkField::kSweeps, 1);
          block.add(WorkField::kBestResponseEvals, i);
        },
        threads);
    totals.push_back(profile.total());
  }
  for (const auto& total : totals) {
    EXPECT_EQ(total[WorkField::kSweeps], kTasks);
    EXPECT_EQ(total[WorkField::kBestResponseEvals],
              kTasks * (kTasks - 1) / 2);
    EXPECT_EQ(total, totals.front());
  }
}

TEST(WorkProfile, TelemetryScopeInstallsAndRestoresCurrentBlock) {
  EXPECT_EQ(prof::current_block(), nullptr);
  support::Telemetry outer_sink;
  {
    const support::TelemetryScope outer(&outer_sink);
    prof::ThreadWorkBlock* outer_block = prof::current_block();
    ASSERT_NE(outer_block, nullptr);
    outer_block->add(WorkField::kSweeps, 1);

    support::Telemetry inner_sink;
    {
      const support::TelemetryScope inner(&inner_sink);
      ASSERT_NE(prof::current_block(), nullptr);
      EXPECT_NE(prof::current_block(), outer_block);
      prof::current_block()->add(WorkField::kSweeps, 10);
    }
    // Nested scope exit restores the outer sink's block.
    EXPECT_EQ(prof::current_block(), outer_block);
    EXPECT_EQ(inner_sink.work.total()[WorkField::kSweeps], 10u);
  }
  EXPECT_EQ(prof::current_block(), nullptr);
  EXPECT_EQ(outer_sink.work.total()[WorkField::kSweeps], 1u);
}

TEST(WorkProfile, NullSinkScopeSuppressesCounting) {
  support::Telemetry sink;
  const support::TelemetryScope outer(&sink);
  {
    const support::TelemetryScope off(nullptr);
    EXPECT_EQ(prof::current_block(), nullptr);
  }
  EXPECT_NE(prof::current_block(), nullptr);
}

TEST(WorkProfile, SpanWorkAttributionIsInclusivePerSpan) {
  support::Telemetry sink;
  const support::TelemetryScope scope(&sink);
  {
    const support::SolveTrace::Scope outer(&sink.trace, "leader.round");
    prof::current_block()->add(WorkField::kSweeps, 2);
    {
      const support::SolveTrace::Scope inner(&sink.trace, "oracle.solve");
      prof::current_block()->add(WorkField::kSweeps, 5);
      prof::current_block()->add(WorkField::kBestResponseEvals, 40);
    }
    prof::current_block()->add(WorkField::kSweeps, 1);
  }
  const auto spans = sink.trace.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Span order is start order: outer first. Work deltas are inclusive.
  EXPECT_TRUE(spans[0].closed);
  EXPECT_EQ(spans[0].work[WorkField::kSweeps], 8u);
  EXPECT_EQ(spans[0].work[WorkField::kBestResponseEvals], 40u);
  EXPECT_EQ(spans[1].work[WorkField::kSweeps], 5u);
  EXPECT_EQ(spans[1].work[WorkField::kBestResponseEvals], 40u);
}

TEST(ProfReport, BuildsExclusiveCostsFromSyntheticTrace) {
  // leader.round [0, 10ms] with 8 sweeps / 100 br evals inclusive;
  // oracle.solve [2ms, 8ms] nested inside with 6 sweeps / 90 br evals.
  const std::string trace = R"({
    "schema": "hecmine.trace.v1",
    "traceEvents": [
      {"name": "leader.round", "ph": "X", "ts": 0.0, "dur": 10000.0,
       "pid": 1, "tid": 0,
       "args": {"id": 0, "depth": 0,
                "work": {"sweeps": 8, "best_response_evals": 100}}},
      {"name": "oracle.solve", "ph": "X", "ts": 2000.0, "dur": 6000.0,
       "pid": 1, "tid": 0,
       "args": {"id": 1, "parent": 0, "depth": 1,
                "work": {"sweeps": 6, "best_response_evals": 90}}}
    ]})";
  const prof::Report report =
      prof::build_report(support::json::parse(trace));
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.spans, 2u);
  EXPECT_DOUBLE_EQ(report.total_ms, 10.0);

  // Rows sort by exclusive self-time: oracle.solve (6ms) first.
  const auto& oracle = report.rows[0];
  EXPECT_EQ(oracle.name, "oracle.solve");
  EXPECT_DOUBLE_EQ(oracle.exclusive_ms, 6.0);
  EXPECT_EQ(oracle.exclusive_work[WorkField::kBestResponseEvals], 90u);

  const auto& leader = report.rows[1];
  EXPECT_EQ(leader.name, "leader.round");
  EXPECT_DOUBLE_EQ(leader.inclusive_ms, 10.0);
  EXPECT_DOUBLE_EQ(leader.exclusive_ms, 4.0);
  // Exclusive work = inclusive minus the nested child's share.
  EXPECT_EQ(leader.exclusive_work[WorkField::kSweeps], 2u);
  EXPECT_EQ(leader.exclusive_work[WorkField::kBestResponseEvals], 10u);
  EXPECT_EQ(leader.inclusive_work[WorkField::kBestResponseEvals], 100u);

  EXPECT_EQ(report.total_work[WorkField::kSweeps], 8u);
  EXPECT_EQ(report.total_work[WorkField::kBestResponseEvals], 100u);

  std::ostringstream out;
  prof::print_report(out, report);
  EXPECT_NE(out.str().find("oracle.solve"), std::string::npos);
  EXPECT_NE(out.str().find("total work:"), std::string::npos);
}

TEST(ProfReport, SkipsTheSimTimeCampaignTrack) {
  // One 2 ms wall-clock span (pid 1) next to a campaign block span on the
  // pid 2 track, whose duration is simulated time: only the wall span may
  // reach the table and the wall total.
  const std::string trace = R"({
    "schema": "hecmine.trace.v1",
    "traceEvents": [
      {"name": "oracle.solve", "ph": "X", "ts": 0.0, "dur": 2000.0,
       "pid": 1, "tid": 0, "args": {"id": 0, "depth": 0}},
      {"name": "campaign.block", "ph": "X", "ts": 0.0, "dur": 600000000.0,
       "pid": 2, "tid": 0, "args": {"index": 1, "owner": 0}}
    ]})";
  const prof::Report report =
      prof::build_report(support::json::parse(trace));
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].name, "oracle.solve");
  EXPECT_EQ(report.spans, 1u);
  EXPECT_DOUBLE_EQ(report.total_ms, 2.0);
}

TEST(ProfReport, FooterSaysWhenTheTraceDroppedSpans) {
  // A trace that hit its span capacity covers only part of the run, and
  // the footer must say so; a complete trace prints no such line.
  const auto footer = [](const char* dropped) {
    const std::string trace = std::string(R"({"dropped": )") + dropped +
                              R"(, "traceEvents": [
      {"name": "oracle.solve", "ph": "X", "ts": 0.0, "dur": 2000.0,
       "pid": 1, "tid": 0, "args": {"id": 0, "depth": 0}}]})";
    const prof::Report report =
        prof::build_report(support::json::parse(trace));
    std::ostringstream out;
    prof::print_report(out, report);
    return out.str();
  };
  const std::string partial = footer("181");
  EXPECT_NE(partial.find("181 spans were dropped"), std::string::npos)
      << partial;
  EXPECT_NE(partial.find("only part of the run"), std::string::npos);
  EXPECT_EQ(footer("0").find("dropped"), std::string::npos);
}

TEST(ProfReport, EmptyTraceYieldsEmptyReport) {
  const prof::Report report = prof::build_report(
      support::json::parse(R"({"traceEvents": []})"));
  EXPECT_TRUE(report.rows.empty());
  EXPECT_EQ(report.spans, 0u);
  EXPECT_FALSE(report.total_work.any());
}

}  // namespace

// Tests for the hecmine.blocklog.v1 streaming writer and its simulator
// hook: header/reference/record/summary round-trips through the JSON
// parser, the stride and share-cap policies, MiningSimulator emission, and
// the pinned bytes of seeded equilibrium campaign logs.
#include "chain/blocklog.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chain/simulator.hpp"
#include "core/population.hpp"
#include "net/campaign.hpp"
#include "net/campaign_monitor.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/provenance.hpp"
#include "support/telemetry.hpp"

namespace hecmine::chain {
namespace {

namespace json = support::json;

std::vector<json::Value> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return json::parse_lines(buffer.str());
}

TEST(BlockLog, HeaderCarriesSchemaAndManifest) {
  const std::string path = testing::TempDir() + "/hecmine_blocklog_hdr.jsonl";
  const support::provenance::RunManifest manifest =
      support::provenance::collect();
  { BlockLogWriter log(path, &manifest); }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].at("schema").as_string(), kBlockLogSchema);
  ASSERT_TRUE(lines[0].contains("manifest"));
  EXPECT_TRUE(lines[0].at("manifest").contains("git_sha"));
}

TEST(BlockLog, RecordReferenceAndSummaryRoundTrip) {
  const std::string path = testing::TempDir() + "/hecmine_blocklog_rt.jsonl";
  {
    BlockLogWriter log(path);
    log.write_reference("standalone", 0.2, 1.0,
                        {{1.5, 0.5}, {0.0, 2.0}});
    BlockRecord record;
    record.round = 0;
    record.height = 1;
    record.winner = 1;
    record.via_edge = false;
    record.fork = true;
    record.steal = false;
    record.interval = 0.75;
    record.sim_time = 0.75;
    record.fork_rate = 0.2;
    record.difficulty = 1.25;
    record.unit_rate = 0.8;
    record.active = 2;
    record.edge_units = 1.5;
    record.cloud_units = 2.5;
    record.p_fork = 0.125;
    record.p_winner = 0.6;
    const std::vector<std::size_t> ids{0, 3};
    const std::vector<Allocation> granted{{1.5, 0.5}, {0.0, 2.0}};
    log.append(record, &ids, &granted);
    EXPECT_EQ(log.records(), 1u);
    BlockLogSummary summary;
    summary.rounds = 1;
    summary.blocks = 1;
    summary.forks = 1;
    summary.fork_expected = 0.125;
    summary.fork_variance = 0.125 * 0.875;
    summary.has_reference = true;
    BlockLogMinerSummary miner;
    miner.miner = 3;
    miner.wins = 1;
    miner.rounds = 1;
    miner.expected = 0.55;
    miner.variance = 0.55 * 0.45;
    miner.expected_ref = 0.5;
    miner.variance_ref = 0.25;
    summary.miners.push_back(miner);
    log.write_summary(summary);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);  // header, reference, record, summary

  const json::Value& reference = lines[1];
  EXPECT_EQ(reference.at("kind").as_string(), "reference");
  EXPECT_EQ(reference.at("mode").as_string(), "standalone");
  EXPECT_DOUBLE_EQ(reference.at("fork_rate").as_number(), 0.2);
  ASSERT_EQ(reference.at("requests").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(
      reference.at("requests").as_array()[0].as_array()[0].as_number(), 1.5);

  const json::Value& record = lines[2];
  EXPECT_DOUBLE_EQ(record.at("round").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(record.at("winner").as_number(), 1.0);
  EXPECT_TRUE(record.at("fork").as_bool());
  EXPECT_FALSE(record.at("steal").as_bool());
  EXPECT_DOUBLE_EQ(record.at("difficulty").as_number(), 1.25);
  EXPECT_DOUBLE_EQ(record.at("p_winner").as_number(), 0.6);
  ASSERT_TRUE(record.contains("shares"));
  const json::Value::Array& shares = record.at("shares").as_array();
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[1].as_array()[0].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(shares[1].as_array()[2].as_number(), 2.0);

  const json::Value& summary = lines[3];
  EXPECT_EQ(summary.at("kind").as_string(), "summary");
  EXPECT_TRUE(summary.at("has_reference").as_bool());
  ASSERT_EQ(summary.at("miners").as_array().size(), 1u);
  const json::Value& miner = summary.at("miners").as_array()[0];
  EXPECT_DOUBLE_EQ(miner.at("miner").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(miner.at("expected_ref").as_number(), 0.5);
}

TEST(BlockLog, StrideKeepsEveryNthRoundAndShareCapElidesShares) {
  const std::string path = testing::TempDir() + "/hecmine_blocklog_str.jsonl";
  {
    BlockLogWriter::Options options;
    options.stride = 3;
    options.max_share_miners = 1;
    BlockLogWriter log(path, nullptr, options);
    const std::vector<std::size_t> ids{0, 1};
    const std::vector<Allocation> granted{{1.0, 0.0}, {0.0, 1.0}};
    for (std::uint64_t round = 0; round < 10; ++round) {
      BlockRecord record;
      record.round = round;
      log.append(record, &ids, &granted);
    }
    EXPECT_EQ(log.records(), 4u);  // rounds 0, 3, 6, 9
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 5u);  // header + 4 records
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_DOUBLE_EQ(lines[i].at("round").as_number(),
                     static_cast<double>((i - 1) * 3));
    // Two active miners exceed the one-miner share cap: no shares field.
    EXPECT_FALSE(lines[i].contains("shares"));
  }
}

TEST(BlockLog, RejectsZeroStride) {
  BlockLogWriter::Options options;
  options.stride = 0;
  EXPECT_THROW(BlockLogWriter(testing::TempDir() + "/hecmine_blocklog_z.jsonl",
                              nullptr, options),
               support::PreconditionError);
}

TEST(BlockLog, MiningSimulatorStreamsRecordsWithSimTime) {
  const std::string path = testing::TempDir() + "/hecmine_blocklog_sim.jsonl";
  constexpr std::size_t kRounds = 32;
  {
    BlockLogWriter log(path);
    RaceConfig config;
    config.fork_rate = 0.2;
    MiningSimulator simulator(config, 11);
    simulator.set_block_log(&log);
    const std::vector<Allocation> allocations{{1.0, 0.0}, {0.0, 1.0}};
    for (std::size_t round = 0; round < kRounds; ++round)
      (void)simulator.step(allocations);
    EXPECT_EQ(simulator.rounds(), kRounds);
    EXPECT_GT(simulator.sim_time(), 0.0);
    EXPECT_EQ(log.records(), kRounds);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u + kRounds);
  double previous_sim_time = 0.0;
  std::uint64_t previous_height = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const json::Value& record = lines[i];
    EXPECT_DOUBLE_EQ(record.at("round").as_number(),
                     static_cast<double>(i - 1));
    // The sim clock accumulates monotonically; heights never decrease.
    EXPECT_GE(record.at("sim_time").as_number(), previous_sim_time);
    previous_sim_time = record.at("sim_time").as_number();
    const auto height =
        static_cast<std::uint64_t>(record.at("height").as_number());
    EXPECT_GE(height, previous_height);
    previous_height = height;
    EXPECT_DOUBLE_EQ(record.at("fork_rate").as_number(), 0.2);
    // Both miners always active with unit allocations.
    ASSERT_TRUE(record.contains("shares"));
    EXPECT_EQ(record.at("shares").as_array().size(), 2u);
    // The winner's sampler probability follows Eq. 6 with E=C=1, S=2:
    // edge winner (1-beta)/2 + beta, cloud winner (1-beta)/2.
    const double p = record.at("p_winner").as_number();
    if (record.at("via_edge").as_bool())
      EXPECT_DOUBLE_EQ(p, 0.4 + 0.2);
    else
      EXPECT_DOUBLE_EQ(p, 0.4);
  }
}

/// FNV-1a 64 of a block log's bytes after its first line. The manifest line
/// carries build and host fields; every later byte is a function of the
/// campaign alone.
std::uint64_t digest_after_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  const std::size_t first_line = bytes.find('\n');
  EXPECT_NE(first_line, std::string::npos) << path;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = first_line + 1; i < bytes.size(); ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// A seeded run_campaign_at_equilibrium with the block log and the monitor
/// attached (so the reference and summary lines are written); returns the
/// log's digest.
std::uint64_t equilibrium_campaign_digest(
    core::EdgeMode mode, const std::vector<double>& budgets,
    const std::optional<core::PopulationModel>& population,
    std::size_t blocks, std::uint64_t seed) {
  const std::string path = testing::TempDir() + "/hecmine_blocklog_pinned.jsonl";
  net::CampaignConfig config;
  config.params.reward = 100.0;
  config.params.fork_rate = 0.2;
  config.policy = {mode, 0.9, 10.0};
  config.prices = {2.0, 1.0};
  config.population = population;
  config.difficulty.target_interval = 1.0;
  config.difficulty.window = 32;
  config.blocks = blocks;
  const support::provenance::RunManifest manifest =
      support::provenance::collect();
  {
    BlockLogWriter log(path, &manifest);
    support::Telemetry sink;
    net::CampaignMonitorOptions options;
    options.action = support::health::WatchdogAction::kObserve;
    options.wall_clock = false;
    net::CampaignMonitor monitor(sink, options);
    config.block_log = &log;
    config.monitor = &monitor;
    (void)net::run_campaign_at_equilibrium(config, budgets, seed);
  }
  return digest_after_manifest(path);
}

// Every byte after the manifest line is pinned: number formatting, the
// monitor's summary sums and the loop's RNG stream may get faster, never
// different. The digests were recorded with the stream-based number
// formatter and a per-miner evaluation of the reference odds; the
// standalone crowd digest again when the capped follower solve became
// closed form (e = E_max/n exactly, where a bisection left it 2e-14 off),
// which moved equilibrium-derived digits by at most 4e-14 relative and no
// winner, flag or count. Budgets sit above the symmetric spend, so the
// played equilibrium is the all-slack one. A libm that rounds log or exp
// differently records other digests.
TEST(BlockLog, EquilibriumCampaignLogBytesArePinned) {
  // Eight always-active miners in three budget classes: shares embedded.
  const std::vector<double> small{15.0, 15.0, 15.0, 25.0,
                                  25.0, 25.0, 25.0, 40.0};
  // 1000 miners in four classes with churn around 600 active: no shares.
  std::vector<double> crowd(1000);
  for (std::size_t i = 0; i < crowd.size(); ++i)
    crowd[i] = 60.0 + 120.0 * static_cast<double>((i * 7) % 4);
  const core::PopulationModel churn(600.0, 60.0, 1, 1000);
  struct Case {
    const char* name;
    core::EdgeMode mode;
    const std::vector<double>* budgets;
    std::optional<core::PopulationModel> population;
    std::size_t blocks;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"small/connected", core::EdgeMode::kConnected, &small, std::nullopt,
       400, 0x3646937b4072365aULL},
      {"small/standalone", core::EdgeMode::kStandalone, &small, std::nullopt,
       400, 0xdc5e0ed218ecb6a1ULL},
      {"crowd/connected", core::EdgeMode::kConnected, &crowd, churn, 150,
       0xabe7a6c09d403828ULL},
      {"crowd/standalone", core::EdgeMode::kStandalone, &crowd, churn, 150,
       0x1143cb5b4c1a7607ULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t digest = equilibrium_campaign_digest(
        c.mode, *c.budgets, c.population, c.blocks, 2718);
    EXPECT_EQ(digest, c.digest)
        << c.name << ": block log digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace hecmine::chain

// Tests for net/campaign_monitor: streaming campaign statistics, CLT
// drift detection against the reference equilibrium (pinned against a
// per-miner recomputation), incidents on the flight stream, watchdog
// escalation and its policy parser, and the determinism contract of the
// campaign.* gauges.
#include "net/campaign_monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/winning.hpp"
#include "net/campaign.hpp"
#include "support/error.hpp"
#include "support/health.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/run_dir.hpp"
#include "support/telemetry.hpp"

namespace hecmine::net {
namespace {

namespace health = support::health;

CampaignConfig base_config() {
  CampaignConfig config;
  config.params.reward = 100.0;
  config.params.fork_rate = 0.2;
  config.params.edge_success = 0.9;
  config.params.edge_capacity = 10.0;
  config.policy = {core::EdgeMode::kConnected, 0.9, 10.0};
  config.prices = {2.0, 1.0};
  config.difficulty.target_interval = 1.0;
  config.difficulty.window = 32;
  config.blocks = 4000;
  return config;
}

CampaignMonitorOptions deterministic_options() {
  CampaignMonitorOptions options;
  options.wall_clock = false;  // campaign.sim_wall_ratio is wall-clock
  return options;
}

/// The hecmine.health.v1 lines of the bundle in `dir`.
std::vector<support::json::Value> incident_lines(const std::string& dir) {
  std::ifstream in(dir + "/flight.jsonl");
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<support::json::Value> incidents;
  for (support::json::Value& line : support::json::parse_lines(buffer.str()))
    if (line.contains("schema") &&
        line.at("schema").as_string() == "hecmine.health.v1")
      incidents.push_back(std::move(line));
  return incidents;
}

/// All counter/gauge samples of a sink, keyed by name (sorted), for
/// bitwise comparison across runs.
std::map<std::string, double> metric_values(const support::Telemetry& sink) {
  std::map<std::string, double> values;
  const support::MetricsSnapshot snapshot = sink.metrics.snapshot();
  for (const auto& counter : snapshot.counters)
    values["counter." + counter.name] = static_cast<double>(counter.value);
  for (const auto& gauge : snapshot.gauges)
    values["gauge." + gauge.name] = gauge.value;
  return values;
}

TEST(CampaignMonitor, ConvergedEquilibriumCampaignStaysWithinBounds) {
  CampaignConfig config = base_config();
  support::Telemetry telemetry;
  CampaignMonitor monitor(telemetry, deterministic_options());
  config.monitor = &monitor;
  const std::vector<double> budgets(5, 12.0);
  const auto outcome = run_campaign_at_equilibrium(config, budgets, 71);
  ASSERT_TRUE(monitor.has_reference());
  EXPECT_EQ(monitor.incidents(), 0u);
  EXPECT_TRUE(monitor.events().empty());
  // Healthy campaign: both drift families stay under the 4-sigma bound.
  EXPECT_LT(monitor.max_sampler_z(), monitor.options().drift_z);
  EXPECT_LT(monitor.max_drift_z(), monitor.options().drift_z);
  EXPECT_LT(std::abs(monitor.fork_z()), monitor.options().drift_z);

  // Summary consistency with the campaign result.
  const chain::BlockLogSummary summary = monitor.summary();
  EXPECT_TRUE(summary.has_reference);
  EXPECT_EQ(summary.rounds, static_cast<std::uint64_t>(config.blocks));
  EXPECT_EQ(summary.blocks, static_cast<std::uint64_t>(config.blocks));
  ASSERT_EQ(summary.miners.size(), outcome.result.miners.size());
  std::uint64_t wins = 0;
  for (std::size_t i = 0; i < summary.miners.size(); ++i) {
    EXPECT_EQ(summary.miners[i].wins, outcome.result.miners[i].wins);
    EXPECT_EQ(summary.miners[i].rounds,
              static_cast<std::uint64_t>(config.blocks));
    wins += summary.miners[i].wins;
  }
  EXPECT_EQ(wins, summary.blocks);

  // Gauges and the sim-time timeline were populated.
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("campaign.rounds").value(),
                   static_cast<double>(config.blocks));
  EXPECT_GT(telemetry.metrics.gauge("campaign.hhi").value(), 0.0);
  EXPECT_GT(telemetry.metrics.gauge("campaign.nakamoto").value(), 0.0);
  EXPECT_FALSE(telemetry.timeline.spans().empty());
  EXPECT_FALSE(telemetry.timeline.counters().empty());
  // wall_clock=false keeps the one nondeterministic gauge unset.
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("campaign.sim_wall_ratio").value(),
                   0.0);
}

TEST(CampaignMonitor, MispricedReferenceRaisesWinRateIncident) {
  CampaignConfig config = base_config();
  support::Telemetry telemetry;
  const std::string dir = testing::TempDir() + "/hecmine_monitor_misprice";
  const support::RunDir run_dir(dir, telemetry);
  CampaignMonitor monitor(telemetry, deterministic_options());
  config.monitor = &monitor;
  // The campaign plays these fixed strategies...
  const std::vector<core::MinerRequest> played{
      {2.0, 1.0}, {1.0, 3.0}, {0.5, 2.0}};
  // ...while the auditor expects miner 0 at double the units — a
  // mis-priced reference the realized win rates cannot match.
  std::vector<core::MinerRequest> reference = played;
  reference[0] = {4.0, 2.0};
  monitor.set_reference(reference, core::EdgeMode::kConnected,
                        config.params.fork_rate, config.params.edge_success);
  (void)run_campaign(config, played, 72);
  EXPECT_GE(monitor.incidents(), 1u);
  EXPECT_GT(monitor.max_drift_z(), monitor.options().drift_z);
  const auto events = monitor.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().solver, "campaign.win_rate");
  EXPECT_EQ(events.front().classification, health::LoopState::kDiverging);
  // Each incident is one hecmine.health.v1 line of the flight stream.
  const std::vector<support::json::Value> lines = incident_lines(dir);
  ASSERT_EQ(lines.size(), monitor.incidents());
  EXPECT_EQ(lines.front().at("solver").as_string(), "campaign.win_rate");
  EXPECT_EQ(lines.front().at("classification").as_string(), "diverging");
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("campaign.incidents").value(),
                   static_cast<double>(monitor.incidents()));
  // The sampler self-consistency check stays healthy: run_race matches
  // its own granted allocations even when the reference is wrong.
  EXPECT_LT(monitor.max_sampler_z(), monitor.options().drift_z);
}

TEST(CampaignMonitor, EveryIncidentReachesTheFlightStream) {
  // 200 miners play {1, 1} while the reference expects the even-indexed
  // ones at {4, 4}: far more incidents than events() retains, and every
  // one of them is a line of the stream.
  CampaignConfig config = base_config();
  config.blocks = 20000;
  const std::vector<core::MinerRequest> played(200, {1.0, 1.0});
  std::vector<core::MinerRequest> reference = played;
  for (std::size_t i = 0; i < reference.size(); i += 2)
    reference[i] = {4.0, 4.0};
  support::Telemetry telemetry;
  const std::string dir = testing::TempDir() + "/hecmine_monitor_every";
  std::uint64_t incidents = 0;
  {
    const support::RunDir run_dir(dir, telemetry);
    CampaignMonitorOptions options = deterministic_options();
    options.action = health::WatchdogAction::kObserve;
    CampaignMonitor monitor(telemetry, options);
    config.monitor = &monitor;
    monitor.set_reference(reference, core::EdgeMode::kConnected,
                          config.params.fork_rate, config.params.edge_success);
    (void)run_campaign(config, played, 74);
    incidents = monitor.incidents();
    EXPECT_EQ(monitor.events().size(), 64u);
  }
  EXPECT_GT(incidents, 64u);
  EXPECT_EQ(incident_lines(dir).size(), incidents);
  std::filesystem::remove_all(dir);
}

TEST(CampaignMonitor, AbortedIncidentIsOnTheStreamBeforeTheBundleCloses) {
  // Under abort the incident's line is on disk when the typed error
  // reaches the caller, while the bundle is still open.
  CampaignConfig config = base_config();
  support::Telemetry telemetry;
  const std::string dir = testing::TempDir() + "/hecmine_monitor_abort";
  const support::RunDir run_dir(dir, telemetry);
  CampaignMonitorOptions options = deterministic_options();
  options.action = health::WatchdogAction::kAbort;
  CampaignMonitor monitor(telemetry, options);
  config.monitor = &monitor;
  const std::vector<core::MinerRequest> played{
      {2.0, 1.0}, {1.0, 3.0}, {0.5, 2.0}};
  std::vector<core::MinerRequest> reference = played;
  reference[0] = {4.0, 2.0};
  monitor.set_reference(reference, core::EdgeMode::kConnected,
                        config.params.fork_rate, config.params.edge_success);
  EXPECT_THROW((void)run_campaign(config, played, 72),
               health::SolverHealthError);
  const std::vector<support::json::Value> lines = incident_lines(dir);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines.front().at("solver").as_string(), "campaign.win_rate");
  EXPECT_EQ(lines.front().at("action").as_string(), "abort");
}

TEST(CampaignMonitor, AbortPolicyThrowsSolverHealthError) {
  CampaignConfig config = base_config();
  support::Telemetry telemetry;
  CampaignMonitorOptions options = deterministic_options();
  options.action = health::WatchdogAction::kAbort;
  CampaignMonitor monitor(telemetry, options);
  config.monitor = &monitor;
  const std::vector<core::MinerRequest> played{
      {2.0, 1.0}, {1.0, 3.0}, {0.5, 2.0}};
  std::vector<core::MinerRequest> reference = played;
  reference[0] = {4.0, 2.0};
  monitor.set_reference(reference, core::EdgeMode::kConnected,
                        config.params.fork_rate, config.params.edge_success);
  EXPECT_THROW((void)run_campaign(config, played, 72),
               health::SolverHealthError);
  EXPECT_GE(monitor.incidents(), 1u);
}

TEST(CampaignMonitor, ObservePolicySuppressesEscalationButKeepsEvidence) {
  CampaignConfig config = base_config();
  support::Telemetry telemetry;
  CampaignMonitorOptions options = deterministic_options();
  options.action = health::WatchdogAction::kObserve;
  CampaignMonitor monitor(telemetry, options);
  config.monitor = &monitor;
  const std::vector<core::MinerRequest> played{
      {2.0, 1.0}, {1.0, 3.0}, {0.5, 2.0}};
  std::vector<core::MinerRequest> reference = played;
  reference[0] = {4.0, 2.0};
  monitor.set_reference(reference, core::EdgeMode::kConnected,
                        config.params.fork_rate, config.params.edge_success);
  EXPECT_NO_THROW((void)run_campaign(config, played, 72));
  EXPECT_GE(monitor.incidents(), 1u);
  EXPECT_FALSE(monitor.events().empty());
}

TEST(CampaignMonitor, GaugesAreBitwiseThreadCountInvariant) {
  // Every campaign.* gauge except the (disabled) sim_wall_ratio is a pure
  // function of the record stream, so solver thread count must not change
  // a single bit.
  std::map<std::string, double> per_thread_values[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    CampaignConfig config = base_config();
    support::Telemetry telemetry;
    CampaignMonitor monitor(telemetry, deterministic_options());
    config.monitor = &monitor;
    config.telemetry = &telemetry;
    core::SolveContext context;
    context.threads = thread_counts[i];
    const std::vector<double> budgets(5, 12.0);
    (void)run_campaign_at_equilibrium(config, budgets, 73, context);
    per_thread_values[i] = metric_values(telemetry);
  }
  ASSERT_EQ(per_thread_values[0].size(), per_thread_values[1].size());
  for (const auto& [name, value] : per_thread_values[0]) {
    const auto it = per_thread_values[1].find(name);
    ASSERT_NE(it, per_thread_values[1].end()) << name;
    // Bitwise: EXPECT_EQ on doubles, not EXPECT_NEAR.
    EXPECT_EQ(value, it->second) << name;
  }
}

TEST(CampaignMonitor, ObserveQueueFeedsQueueGauges) {
  support::Telemetry telemetry;
  CampaignMonitor monitor(telemetry, deterministic_options());
  monitor.observe_queue(17, 4242);
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("campaign.queue_depth").value(),
                   17.0);
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("campaign.queue_events").value(),
                   4242.0);
  EXPECT_FALSE(telemetry.timeline.counters().empty());
}

TEST(CampaignMonitor, ReferenceMustBeSetBeforeObserving) {
  support::Telemetry telemetry;
  CampaignMonitor monitor(telemetry, deterministic_options());
  chain::BlockRecord record;
  record.round = 0;
  record.sim_time = 1.0;
  monitor.observe_block(record, {}, {});
  EXPECT_THROW(monitor.set_reference({{1.0, 1.0}}, core::EdgeMode::kConnected,
                                     0.2, 0.9),
               support::PreconditionError);
}

/// One observed round: the record and its active miners' granted units.
struct ObservedBlock {
  chain::BlockRecord record;
  std::vector<std::size_t> active;
  std::vector<chain::Allocation> granted;
};

/// Seeded rounds over a pool playing `reference`, except that every third
/// miner is granted half again its edge request, so win rates drift from
/// the reference odds. Each round draws a random active subset of random
/// size, its winner in proportion to granted units, and a fork.
std::vector<ObservedBlock> drifting_blocks(
    const std::vector<core::MinerRequest>& reference, double fork_rate,
    std::size_t rounds, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::size_t> order(reference.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<ObservedBlock> blocks(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    ObservedBlock& block = blocks[r];
    std::shuffle(order.begin(), order.end(), rng.engine());
    const std::size_t count = 1 + rng.uniform_index(reference.size());
    block.active.assign(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(count));
    std::vector<double> weights;
    for (const std::size_t id : block.active) {
      const double edge = reference[id].edge * (id % 3 == 0 ? 1.5 : 1.0);
      block.granted.push_back({edge, reference[id].cloud});
      block.record.edge_units += edge;
      block.record.cloud_units += reference[id].cloud;
      weights.push_back(edge + reference[id].cloud);
    }
    const double total = block.record.edge_units + block.record.cloud_units;
    block.record.round = r;
    block.record.height = r + 1;
    block.record.winner =
        static_cast<std::int64_t>(block.active[rng.categorical(weights)]);
    block.record.fork_rate = fork_rate;
    block.record.p_fork = fork_rate * block.record.cloud_units / total;
    block.record.fork = rng.bernoulli(block.record.p_fork);
    block.record.interval = 1.0;
    block.record.sim_time = static_cast<double>(r + 1);
    block.record.active = count;
  }
  return blocks;
}

/// What the monitor must report, recomputed miner by miner: every active
/// miner evaluates its own reference W_i each round, and the scans follow
/// the documented cadence (every check_stride rounds and at finalize) and
/// the drift rule.
struct PerMinerReplay {
  std::vector<chain::BlockLogMinerSummary> miners;
  double max_drift_z = 0.0;
  double max_sampler_z = 0.0;
  double fork_z = 0.0;
  std::uint64_t incidents = 0;
};

PerMinerReplay replay_per_miner(
    const std::vector<core::MinerRequest>& reference, core::EdgeMode mode,
    double fork_rate, double edge_success,
    const std::vector<ObservedBlock>& blocks,
    const CampaignMonitorOptions& options) {
  PerMinerReplay out;
  out.miners.resize(reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) out.miners[i].miner = i;
  std::vector<bool> fired(reference.size(), false);
  bool fork_fired = false;
  std::uint64_t rounds = 0;
  std::uint64_t produced = 0;
  std::uint64_t forks = 0;
  double fork_expected = 0.0;
  double fork_variance = 0.0;
  const auto scan = [&] {
    double drift_max = 0.0;
    double sampler_max = 0.0;
    for (std::size_t i = 0; i < out.miners.size(); ++i) {
      const chain::BlockLogMinerSummary& m = out.miners[i];
      if (m.rounds < options.min_rounds) continue;
      sampler_max = std::max(
          sampler_max, std::abs(drift_score(static_cast<double>(m.wins),
                                            m.expected, m.variance)));
      const DriftTest test = drift_test(m.wins, m.rounds, m.expected_ref,
                                        m.variance_ref, options);
      drift_max = std::max(drift_max, std::abs(test.z));
      if (!fired[i] && test.drifted) {
        fired[i] = true;
        ++out.incidents;
      }
    }
    out.max_sampler_z = std::max(out.max_sampler_z, sampler_max);
    out.max_drift_z = std::max(out.max_drift_z, drift_max);
    if (rounds >= options.min_rounds && !fork_fired &&
        drift_test(forks, produced, fork_expected, fork_variance, options)
            .drifted) {
      fork_fired = true;
      ++out.incidents;
    }
  };
  for (const ObservedBlock& block : blocks) {
    const chain::BlockRecord& record = block.record;
    core::Totals totals;
    for (const std::size_t id : block.active) {
      totals.edge += reference[id].edge;
      totals.cloud += reference[id].cloud;
    }
    const double total = record.edge_units + record.cloud_units;
    for (std::size_t a = 0; a < block.active.size(); ++a) {
      const std::size_t id = block.active[a];
      chain::BlockLogMinerSummary& m = out.miners[id];
      ++m.rounds;
      if (record.winner == static_cast<std::int64_t>(id)) ++m.wins;
      double p = (1.0 - record.fork_rate) *
                 (block.granted[a].edge_units + block.granted[a].cloud_units) /
                 total;
      if (record.edge_units > 0.0)
        p += record.fork_rate * block.granted[a].edge_units /
             record.edge_units;
      m.expected += p;
      m.variance += p * (1.0 - p);
      const double p_ref =
          mode == core::EdgeMode::kConnected
              ? core::win_prob_connected(reference[id], totals, fork_rate,
                                         edge_success)
              : core::win_prob_full(reference[id], totals, fork_rate);
      m.expected_ref += p_ref;
      m.variance_ref += p_ref * (1.0 - p_ref);
    }
    ++rounds;
    ++produced;
    if (record.fork) ++forks;
    fork_expected += record.p_fork;
    fork_variance += record.p_fork * (1.0 - record.p_fork);
    if (rounds % options.check_stride == 0) scan();
  }
  scan();
  out.fork_z = drift_score(static_cast<double>(forks), fork_expected,
                           fork_variance);
  return out;
}

TEST(CampaignMonitor, GroupedReferenceOddsMatchAPerMinerRecomputation) {
  // Four budget classes of ten miners.
  std::vector<core::MinerRequest> classes;
  for (std::size_t i = 0; i < 40; ++i) {
    const double k = static_cast<double>(i % 4);
    classes.push_back({0.4 + 0.3 * k, 1.0 + 0.2 * k});
  }
  // Every miner its own request (K = N).
  std::vector<core::MinerRequest> distinct;
  for (std::size_t i = 0; i < 30; ++i) {
    const double x = static_cast<double>(i);
    distinct.push_back({0.2 + 0.05 * x, 1.5 - 0.03 * x});
  }
  // One miner whose request exceeds the three others' together: every
  // round it sits out, its request lies outside the reference totals.
  const std::vector<core::MinerRequest> whale{
      {30.0, 30.0}, {0.5, 0.25}, {0.5, 0.25}, {0.5, 0.25}};
  const double fork_rate = 0.2;
  CampaignMonitorOptions options = deterministic_options();
  options.action = health::WatchdogAction::kObserve;
  options.min_rounds = 64;
  options.check_stride = 16;
  struct Pool {
    const char* name;
    const std::vector<core::MinerRequest>* reference;
  };
  for (const Pool& pool : {Pool{"classes", &classes},
                           Pool{"distinct", &distinct},
                           Pool{"whale", &whale}}) {
    const std::vector<ObservedBlock> blocks =
        drifting_blocks(*pool.reference, fork_rate, 1500, 91);
    for (const core::EdgeMode mode :
         {core::EdgeMode::kConnected, core::EdgeMode::kStandalone}) {
      const double edge_success =
          mode == core::EdgeMode::kConnected ? 0.9 : 1.0;
      SCOPED_TRACE(std::string(pool.name) +
                   (mode == core::EdgeMode::kConnected ? "/connected"
                                                       : "/standalone"));
      support::Telemetry telemetry;
      CampaignMonitor monitor(telemetry, options);
      monitor.set_reference(*pool.reference, mode, fork_rate, edge_success);
      for (const ObservedBlock& block : blocks)
        ASSERT_NO_THROW(
            monitor.observe_block(block.record, block.active, block.granted));
      monitor.finalize();
      const PerMinerReplay expected = replay_per_miner(
          *pool.reference, mode, fork_rate, edge_success, blocks, options);
      const std::vector<chain::BlockLogMinerSummary> got =
          monitor.miner_summaries();
      ASSERT_EQ(got.size(), expected.miners.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Bitwise: EXPECT_EQ on doubles.
        EXPECT_EQ(got[i].wins, expected.miners[i].wins) << i;
        EXPECT_EQ(got[i].rounds, expected.miners[i].rounds) << i;
        EXPECT_EQ(got[i].expected, expected.miners[i].expected) << i;
        EXPECT_EQ(got[i].variance, expected.miners[i].variance) << i;
        EXPECT_EQ(got[i].expected_ref, expected.miners[i].expected_ref) << i;
        EXPECT_EQ(got[i].variance_ref, expected.miners[i].variance_ref) << i;
      }
      EXPECT_EQ(monitor.max_drift_z(), expected.max_drift_z);
      EXPECT_EQ(monitor.max_sampler_z(), expected.max_sampler_z);
      EXPECT_EQ(monitor.fork_z(), expected.fork_z);
      EXPECT_EQ(monitor.incidents(), expected.incidents);
    }
  }
}

TEST(HealthOptionsTest, WatchdogActionParsesAndRejects) {
  EXPECT_EQ(health::parse_watchdog_action("observe"),
            health::WatchdogAction::kObserve);
  EXPECT_EQ(health::parse_watchdog_action("warn"),
            health::WatchdogAction::kWarn);
  EXPECT_EQ(health::parse_watchdog_action("abort"),
            health::WatchdogAction::kAbort);
  EXPECT_THROW((void)health::parse_watchdog_action("off"),
               support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::net

// `campaign`: one op is a net::run_campaign of kBlocks blocks with a fresh
// seed, set up the way `hecmine_cli campaign --block-log` runs one: a pool
// of kPool miners in kClasses budget classes with Gaussian churn around
// kActiveMean active miners, miners playing the follower equilibrium solved
// once in set-up, a BlockLogWriter streaming to a file and a
// CampaignMonitor (that equilibrium as reference, observe policy). Modes
// alternate between ops.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "chain/blocklog.hpp"
#include "chain/race.hpp"
#include "common.hpp"
#include "core/oracle.hpp"
#include "core/population.hpp"
#include "net/campaign.hpp"
#include "net/campaign_monitor.hpp"
#include "net/offload.hpp"
#include "support/provenance.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace perfbench {
namespace {

using hecmine::core::EdgeMode;
namespace chain = hecmine::chain;
namespace core = hecmine::core;
namespace net = hecmine::net;
namespace support = hecmine::support;

constexpr std::size_t kPool = 1000;
constexpr int kClasses = 4;
constexpr double kActiveMean = 600.0;
constexpr double kActiveStddev = 60.0;
constexpr std::size_t kBlocks = 2000;
// Blocks sampled per traced op for the admission and race per-call times.
constexpr int kSampledBlocks = 32;

enum Attach : unsigned { kBare = 0, kLog = 1, kMonitor = 2, kBoth = 3 };
constexpr const char* kAttachNames[4] = {"bare", "log", "monitor",
                                         "log+monitor"};

struct CampaignAnswer {
  net::CampaignResult result;
  std::uint64_t incidents = 0;
};

std::uint64_t digest_of(const std::vector<core::MinerRequest>& requests) {
  Digest digest;
  for (const core::MinerRequest& request : requests) {
    digest.add(request.edge);
    digest.add(request.cloud);
  }
  return digest.value();
}

std::uint64_t digest_of(const net::CampaignResult& result) {
  Digest digest;
  digest.add(static_cast<std::uint64_t>(result.blocks_mined));
  digest.add(static_cast<std::uint64_t>(result.forks));
  digest.add(static_cast<std::uint64_t>(result.transfers));
  digest.add(static_cast<std::uint64_t>(result.rejections));
  for (const net::MinerCampaignStats& miner : result.miners)
    digest.add(static_cast<std::uint64_t>(miner.wins));
  return digest.value();
}

class Campaign final : public Workload {
 public:
  Campaign(std::uint64_t seed, int threads, const std::string& out_dir)
      : seed_(seed),
        threads_(threads),
        log_path_(out_dir + "/campaign-seed" + std::to_string(seed) +
                  ".blocklog.jsonl"),
        population_(kActiveMean, kActiveStddev, 1, static_cast<int>(kPool)) {}

  void setup() override {
    support::Rng rng(mix64(seed_ ^ 0x63616d706169ULL));
    std::vector<double> class_budgets(kClasses);
    for (int k = 0; k < kClasses; ++k)
      class_budgets[static_cast<std::size_t>(k)] =
          50.0 + 450.0 * (k + rng.uniform()) / kClasses;
    budgets_.resize(kPool);
    for (double& budget : budgets_)
      budget = class_budgets[rng.uniform_index(kClasses)];
    prices_.edge = rng.uniform(5.5, 7.0);
    prices_.cloud = rng.uniform(1.9, 2.5);
    manifest_ = support::provenance::collect(threads_, seed_);
    std::filesystem::create_directories(
        std::filesystem::path(log_path_).parent_path());
    for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone})
      equilibrium(mode) = solve_equilibrium(mode, threads_);
    (void)op(0, kBoth);
    discard_log();
  }

  OpResult run(std::size_t index) override {
    const Clock::time_point start = Clock::now();
    const CampaignAnswer answer = op(index, kBoth);
    OpResult out;
    out.ms = ms_between(start, Clock::now());
    discard_log();
    out.digest = digest_of(answer.result);
    check(index, answer, out.failures);
    return out;
  }

  OpResult trace(std::size_t index, Tracer& tracer,
                 LayerSamples& samples) override {
    const Clock::time_point start = Clock::now();
    const CampaignAnswer reference = op(index, kBoth);
    samples.add("op.untraced_ms", ms_between(start, Clock::now()));
    discard_log();
    OpResult out;
    out.digest = digest_of(reference.result);
    if (index == 0) {
      // The only threaded step of this workload is the set-up solve; its
      // threads=1 answer must match the one the campaigns play.
      for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone})
        if (digest_of(solve_equilibrium(mode, 1)) !=
            digest_of(equilibrium(mode)))
          out.failures.push_back(
              "digest mismatch: threads=1 equilibrium differs from the "
              "campaign's");
    }
    tracer.begin_op(index);
    tracer.span("op", [&] {
      double ms[4] = {};
      for (const unsigned attach : {kBare, kLog, kMonitor, kBoth}) {
        CampaignAnswer answer;
        ms[attach] = tracer.span(
            std::string("net.run_campaign[") + kAttachNames[attach] + "]",
            [&] { answer = op(index, attach); });
        if (digest_of(answer.result) != out.digest)
          out.failures.push_back(std::string("digest mismatch: ") +
                                 kAttachNames[attach] + " campaign differs");
        if (attach == kLog)
          samples.add("blocklog.bytes_per_block",
                      static_cast<double>(
                          std::filesystem::file_size(log_path_)) /
                          kBlocks);
        discard_log();
        if (attach == kBare) {
          std::size_t active_rounds = 0;
          for (const net::MinerCampaignStats& miner : answer.result.miners)
            active_rounds += miner.rounds_active;
          samples.add("campaign.active_miners",
                      static_cast<double>(active_rounds) / kBlocks);
        }
        if (attach == kBoth) {
          samples.add("monitor.incidents",
                      static_cast<double>(answer.incidents));
          check(index, answer, out.failures);
        }
      }
      const double per_block = 1e3 / static_cast<double>(kBlocks);
      samples.add("campaign.loop_us_per_block", ms[kBare] * per_block);
      samples.add("blocklog.us_per_block", (ms[kLog] - ms[kBare]) * per_block);
      samples.add("monitor.us_per_block",
                  (ms[kMonitor] - ms[kBare]) * per_block);
      out.ms = ms[kBoth];
      samples.add("op.traced_ms", out.ms);
      sample_block_calls(index, tracer, samples);
    });
    return out;
  }

  [[nodiscard]] WorkloadInfo info() const override {
    WorkloadInfo info;
    char line[256];
    std::snprintf(line, sizeof line,
                  "run_campaign of %zu blocks per op; pool %zu miners in %d "
                  "budget classes, Gaussian churn %.0f +- %.0f active; "
                  "block log + monitor attached; P_e %.4f P_c %.4f",
                  kBlocks, kPool, kClasses, kActiveMean, kActiveStddev,
                  prices_.edge, prices_.cloud);
    info.description = line;
    info.units_per_op = static_cast<double>(kBlocks);
    std::snprintf(line, sizeof line,
                  "known defect: CampaignMonitor raised %llu drift incidents "
                  "over %zu equilibrium campaigns (%.2f per op) although the "
                  "miners play the monitor's reference",
                  static_cast<unsigned long long>(incidents_), campaigns_,
                  campaigns_ > 0 ? static_cast<double>(incidents_) /
                                       static_cast<double>(campaigns_)
                                 : 0.0);
    info.notes.emplace_back(line);
    return info;
  }

 private:
  static EdgeMode mode_of(std::size_t index) {
    return index % 2 == 0 ? EdgeMode::kConnected : EdgeMode::kStandalone;
  }

  /// Removes the op's block log. Every op writes a fresh file: rewriting a
  /// truncated one makes ext4 start writeback on close, and the next
  /// truncation then waits for the disk, which put the host's I/O latency
  /// into op latency. An unlinked file's dirty pages are dropped unwritten.
  void discard_log() const { std::filesystem::remove(log_path_); }

  std::vector<core::MinerRequest>& equilibrium(EdgeMode mode) {
    return equilibria_[mode == EdgeMode::kConnected ? 0 : 1];
  }

  [[nodiscard]] net::CampaignConfig config(EdgeMode mode) const {
    net::CampaignConfig config;
    config.params = params_;
    config.policy.mode = mode;
    config.policy.success_prob = params_.edge_success;
    config.policy.capacity = params_.edge_capacity;
    config.prices = prices_;
    config.population = population_;
    config.blocks = kBlocks;
    return config;
  }

  [[nodiscard]] std::vector<core::MinerRequest> solve_equilibrium(
      EdgeMode mode, int threads) const {
    core::SolveContext context;
    context.threads = threads;
    context.aggregate.dispatch_threshold = 1;
    return core::make_follower_oracle(params_, budgets_, mode, context)
        ->solve(prices_)
        .expanded();
  }

  /// One campaign with the block log and/or the monitor attached.
  CampaignAnswer op(std::size_t index, unsigned attach) {
    const EdgeMode mode = mode_of(index);
    const std::vector<core::MinerRequest>& strategies = equilibrium(mode);
    net::CampaignConfig campaign = config(mode);
    const bool connected = mode == EdgeMode::kConnected;
    const double edge_success = connected ? params_.edge_success : 1.0;
    std::optional<chain::BlockLogWriter> log;
    if ((attach & kLog) != 0U) {
      log.emplace(log_path_, &manifest_);
      std::vector<chain::Allocation> requests(strategies.size());
      for (std::size_t i = 0; i < strategies.size(); ++i)
        requests[i] = chain::Allocation{strategies[i].edge, strategies[i].cloud};
      log->write_reference(connected ? "connected" : "standalone",
                           params_.fork_rate, edge_success, requests);
      campaign.block_log = &*log;
    }
    std::optional<support::Telemetry> sink;
    std::optional<net::CampaignMonitor> monitor;
    if ((attach & kMonitor) != 0U) {
      net::CampaignMonitorOptions options;
      options.action = support::health::WatchdogAction::kObserve;
      sink.emplace();
      monitor.emplace(*sink, options);
      monitor->set_reference(strategies, mode, params_.fork_rate,
                             edge_success);
      campaign.monitor = &*monitor;
    }
    CampaignAnswer answer;
    answer.result = net::run_campaign(campaign, strategies,
                                      mix64(seed_ + 0x9e37ULL * (index + 1)));
    if (monitor) answer.incidents = monitor->incidents();
    return answer;
  }

  /// Admission and race on sampled blocks of op `index`, called directly:
  /// one block's active requests, then its granted allocations.
  void sample_block_calls(std::size_t index, Tracer& tracer,
                          LayerSamples& samples) const {
    const EdgeMode mode = mode_of(index);
    const std::vector<core::MinerRequest>& strategies =
        equilibria_[mode == EdgeMode::kConnected ? 0 : 1];
    const net::CampaignConfig campaign = config(mode);
    support::Rng rng(mix64(seed_ ^ mix64(index + 0x5eedULL)));
    std::vector<std::size_t> order(kPool);
    std::iota(order.begin(), order.end(), std::size_t{0});
    chain::RaceConfig race;
    race.fork_rate = params_.fork_rate;
    for (int block = 0; block < kSampledBlocks; ++block) {
      const auto active = std::min<std::size_t>(
          static_cast<std::size_t>(population_.sample(rng)), kPool);
      std::shuffle(order.begin(), order.end(), rng.engine());
      std::vector<core::MinerRequest> requests(active);
      for (std::size_t a = 0; a < active; ++a)
        requests[a] = strategies[order[a]];
      std::vector<net::ServiceRecord> records;
      samples.add("admission.us_per_call",
                  1e3 * tracer.span("net.admit_requests", [&] {
                    records = net::admit_requests(requests, campaign.policy,
                                                  prices_, rng);
                  }));
      std::vector<chain::Allocation> allocations(records.size());
      for (std::size_t a = 0; a < records.size(); ++a)
        allocations[a] = records[a].granted;
      samples.add("race.us_per_call", 1e3 * tracer.span("chain.run_race", [&] {
        (void)chain::run_race(allocations, race, rng);
      }));
    }
  }

  void check(std::size_t index, const CampaignAnswer& answer,
             std::vector<std::string>& failures) {
    if (answer.result.blocks_mined != kBlocks)
      failures.push_back("campaign op " + std::to_string(index) + ": mined " +
                         std::to_string(answer.result.blocks_mined) + " of " +
                         std::to_string(kBlocks) + " blocks");
    ++campaigns_;
    incidents_ += answer.incidents;
  }

  std::uint64_t seed_;
  int threads_;
  std::string log_path_;
  core::NetworkParams params_;
  core::PopulationModel population_;
  core::Prices prices_;
  std::vector<double> budgets_;
  std::vector<core::MinerRequest> equilibria_[2];
  support::provenance::RunManifest manifest_;
  std::size_t campaigns_ = 0;
  std::uint64_t incidents_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(std::uint64_t seed, int threads,
                                        const std::string& out_dir) {
  return std::make_unique<Campaign>(seed, threads, out_dir);
}

}  // namespace perfbench

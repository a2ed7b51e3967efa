#include "net/campaign_monitor.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <map>
#include <utility>

#include "core/decentralization.hpp"
#include "core/winning.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace hecmine::net {

namespace health = support::health;

namespace {

/// Smoothing of the observed / model orphan-rate EWMAs.
constexpr double kForkEwmaAlpha = 0.01;
/// Target number of sim-time timeline samples over the whole campaign;
/// begin_campaign() derives the decimation stride from it.
constexpr std::size_t kTimelineSamples = 2048;
/// Incidents events() retains, newest kept.
constexpr std::size_t kMaxEvents = 64;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One escalation decided under the monitor lock, delivered outside it.
struct Escalation {
  std::string solver;
  std::uint64_t solve = 0;
  std::uint64_t round = 0;
  double z = 0.0;
  double gap = 0.0;
  bool abort = false;
};

}  // namespace

CampaignMonitor::CampaignMonitor(support::Telemetry& sink,
                                 CampaignMonitorOptions options)
    : sink_(sink), options_(options), wall_start_ns_(steady_now_ns()) {
  HECMINE_REQUIRE(options_.drift_z > 0.0,
                  "CampaignMonitor: drift_z must be positive");
  HECMINE_REQUIRE(options_.check_stride > 0,
                  "CampaignMonitor: check_stride must be positive");
}

void CampaignMonitor::set_reference(std::vector<core::MinerRequest> requests,
                                    core::EdgeMode mode, double fork_rate,
                                    double edge_success) {
  const std::lock_guard<std::mutex> lock(mutex_);
  HECMINE_REQUIRE(rounds_ == 0,
                  "CampaignMonitor: set the reference before observing");
  reference_group_.assign(requests.size(), 0);
  groups_.clear();
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> group_of;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto key =
        std::make_pair(std::bit_cast<std::uint64_t>(requests[i].edge),
                       std::bit_cast<std::uint64_t>(requests[i].cloud));
    const auto [it, fresh] =
        group_of.emplace(key, static_cast<std::uint32_t>(groups_.size()));
    if (fresh) groups_.push_back({requests[i], 0, 0.0});
    reference_group_[i] = it->second;
  }
  reference_mode_ = mode;
  reference_fork_rate_ = fork_rate;
  reference_edge_success_ = edge_success;
  ensure_miners(requests.size());
}

bool CampaignMonitor::has_reference() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !reference_group_.empty();
}

void CampaignMonitor::begin_campaign(std::size_t expected_blocks) {
  const std::lock_guard<std::mutex> lock(mutex_);
  timeline_stride_ = std::max<std::uint64_t>(
      1, expected_blocks / kTimelineSamples);
}

void CampaignMonitor::ensure_miners(std::size_t count) {
  // Caller holds mutex_.
  if (miners_.size() >= count) return;
  const std::size_t old = miners_.size();
  miners_.resize(count);
  for (std::size_t i = old; i < count; ++i)
    miners_[i].sums.miner = static_cast<std::uint64_t>(i);
}

double drift_score(double hits, double expected, double variance) {
  if (variance < 1e-12) return 0.0;
  return (hits - expected) / std::sqrt(variance);
}

DriftTest drift_test(std::uint64_t hits, std::uint64_t rounds,
                     double expected, double variance,
                     const CampaignMonitorOptions& options) {
  DriftTest test;
  test.z = drift_score(static_cast<double>(hits), expected, variance);
  const double trials = std::max(1.0, static_cast<double>(rounds));
  test.empirical = static_cast<double>(hits) / trials;
  test.expected = expected / trials;
  test.gap = std::abs(test.empirical - test.expected);
  test.slack = kMinRelGap * std::max(test.expected, 1e-12);
  test.drifted = rounds >= options.min_rounds &&
                 std::abs(test.z) > options.drift_z && test.gap > test.slack;
  return test;
}

void CampaignMonitor::raise(const std::string& solver, std::uint64_t solve,
                            std::uint64_t round, double z, double gap,
                            double bound, double empirical, double expected) {
  // Caller holds mutex_; escalation (warn/throw) happens in the caller
  // after the lock is released.
  health::HealthEvent event;
  event.solver = solver;
  event.solve = solve;
  event.iteration = static_cast<int>(
      std::min<std::uint64_t>(round, static_cast<std::uint64_t>(INT32_MAX)));
  event.classification = health::LoopState::kDiverging;
  event.residual = gap;        ///< absolute rate gap
  event.tolerance = bound;     ///< the gap the thresholds allowed
  event.rho = z;               ///< CLT drift score
  event.window_min = empirical;
  event.window_max = expected;
  event.predicted_iterations = 0.0;
  event.action = options_.action;
  events_.push_back(event);
  while (events_.size() > kMaxEvents) events_.pop_front();
  ++incidents_;
  sink_.metrics.gauge("campaign.incidents")
      .set(static_cast<double>(incidents_));
  if (sink_.stream != nullptr)
    sink_.stream->write_line(health::event_json(event, &sink_.manifest));
}

void CampaignMonitor::scan(std::uint64_t round, bool final_scan) {
  // Caller holds mutex_ and collects escalations afterwards via the
  // incident log; this only updates scores, gauges, and raises events.
  double drift_max = 0.0;
  double sampler_max = 0.0;
  std::vector<double> win_shares;
  win_shares.reserve(miners_.size());
  bool any_wins = false;
  for (MinerSlot& slot : miners_) {
    const chain::BlockLogMinerSummary& m = slot.sums;
    win_shares.push_back(static_cast<double>(m.wins));
    any_wins = any_wins || m.wins > 0;
    if (m.rounds < options_.min_rounds) continue;
    const double sampler_z =
        drift_score(static_cast<double>(m.wins), m.expected, m.variance);
    sampler_max = std::max(sampler_max, std::abs(sampler_z));
    if (reference_group_.empty()) continue;
    const DriftTest test = drift_test(m.wins, m.rounds, m.expected_ref,
                                      m.variance_ref, options_);
    drift_max = std::max(drift_max, std::abs(test.z));
    if (slot.fired || !test.drifted) continue;
    slot.fired = true;
    raise("campaign.win_rate", m.miner, round, test.z, test.gap, test.slack,
          test.empirical, test.expected);
  }
  max_sampler_z_ = std::max(max_sampler_z_, sampler_max);
  max_drift_z_ = std::max(max_drift_z_, drift_max);
  sink_.metrics.gauge("campaign.sampler_z_max").set(max_sampler_z_);
  sink_.metrics.gauge("campaign.drift_z_max").set(max_drift_z_);

  // Fork-rate drift against the beta(D) model.
  if (rounds_ >= options_.min_rounds) {
    const DriftTest test = drift_test(forks_, blocks_, fork_expected_,
                                      fork_variance_, options_);
    sink_.metrics.gauge("campaign.fork_z").set(test.z);
    if (!fork_fired_ && test.drifted) {
      fork_fired_ = true;
      raise("campaign.fork_rate", 0, round, test.z, test.gap, test.slack,
            test.empirical, test.expected);
    }
  }

  if (any_wins) {
    sink_.metrics.gauge("campaign.hhi")
        .set(core::herfindahl_index(win_shares));
    sink_.metrics.gauge("campaign.effective_miners")
        .set(core::effective_miners(win_shares));
    if (final_scan) {
      sink_.metrics.gauge("campaign.nakamoto")
          .set(static_cast<double>(core::nakamoto_coefficient(win_shares)));
    }
  }
  if (options_.wall_clock) {
    const double wall_s =
        static_cast<double>(steady_now_ns() - wall_start_ns_) * 1e-9;
    if (wall_s > 0.0)
      sink_.metrics.gauge("campaign.sim_wall_ratio").set(sim_time_ / wall_s);
  }
}

void CampaignMonitor::observe_block(
    const chain::BlockRecord& record,
    const std::vector<std::size_t>& active_ids,
    const std::vector<chain::Allocation>& granted) {
  HECMINE_REQUIRE(active_ids.size() == granted.size(),
                  "CampaignMonitor: active/granted size mismatch");
  std::vector<Escalation> escalations;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t incidents_before = incidents_;
    if (!active_ids.empty()) {
      std::size_t max_id = 0;
      for (const std::size_t id : active_ids) max_id = std::max(max_id, id);
      ensure_miners(max_id + 1);
    }

    // Sampler expectation: exact per-round win probability of each active
    // miner under the granted allocations (Eq. 6 on granted units).
    const double total = record.edge_units + record.cloud_units;
    const std::size_t referenced = reference_group_.size();
    core::Totals reference_totals;
    for (const std::size_t id : active_ids) {
      if (id >= referenced) continue;
      const core::MinerRequest& request =
          groups_[reference_group_[id]].request;
      reference_totals.edge += request.edge;
      reference_totals.cloud += request.cloud;
    }
    ++group_stamp_;
    for (std::size_t a = 0; a < active_ids.size(); ++a) {
      MinerSlot& slot = miners_[active_ids[a]];
      chain::BlockLogMinerSummary& m = slot.sums;
      ++m.rounds;
      if (record.winner >= 0 &&
          static_cast<std::uint64_t>(record.winner) == m.miner)
        ++m.wins;
      if (total > 0.0) {
        double p = (1.0 - record.fork_rate) *
                   (granted[a].edge_units + granted[a].cloud_units) / total;
        if (record.edge_units > 0.0)
          p += record.fork_rate * granted[a].edge_units / record.edge_units;
        m.expected += p;
        m.variance += p * (1.0 - p);
      }
      if (active_ids[a] < referenced) {
        RequestGroup& group = groups_[reference_group_[active_ids[a]]];
        if (group.stamp != group_stamp_) {
          group.p_ref =
              reference_mode_ == core::EdgeMode::kConnected
                  ? core::win_prob_connected(group.request, reference_totals,
                                             reference_fork_rate_,
                                             reference_edge_success_)
                  : core::win_prob_full(group.request, reference_totals,
                                        reference_fork_rate_);
          group.stamp = group_stamp_;
        }
        m.expected_ref += group.p_ref;
        m.variance_ref += group.p_ref * (1.0 - group.p_ref);
      }
    }

    ++rounds_;
    sim_time_ = record.sim_time;
    if (record.winner >= 0) {
      ++blocks_;
      if (record.fork) ++forks_;
      fork_expected_ += record.p_fork;
      fork_variance_ += record.p_fork * (1.0 - record.p_fork);
      const double observed = record.fork ? 1.0 : 0.0;
      if (!ewma_seeded_) {
        fork_ewma_ = observed;
        fork_model_ewma_ = record.p_fork;
        ewma_seeded_ = true;
      } else {
        fork_ewma_ += kForkEwmaAlpha * (observed - fork_ewma_);
        fork_model_ewma_ += kForkEwmaAlpha * (record.p_fork - fork_model_ewma_);
      }
    }

    // Scalar gauges every round; O(n) scans on the stride.
    if (gauges_.rounds == nullptr) {
      support::MetricsRegistry& metrics = sink_.metrics;
      gauges_.rounds = &metrics.gauge("campaign.rounds");
      gauges_.sim_time = &metrics.gauge("campaign.sim_time");
      gauges_.difficulty = &metrics.gauge("campaign.difficulty");
      gauges_.unit_rate = &metrics.gauge("campaign.unit_rate");
      gauges_.fork_ewma = &metrics.gauge("campaign.fork_ewma");
      gauges_.fork_model_ewma = &metrics.gauge("campaign.fork_model_ewma");
    }
    gauges_.rounds->set(static_cast<double>(rounds_));
    gauges_.sim_time->set(sim_time_);
    gauges_.difficulty->set(record.difficulty);
    gauges_.unit_rate->set(record.unit_rate);
    gauges_.fork_ewma->set(fork_ewma_);
    gauges_.fork_model_ewma->set(fork_model_ewma_);

    // Sim-time Perfetto feed, decimated to the timeline stride.
    if (record.round % timeline_stride_ == 0) {
      const double t_ms = record.sim_time * 1000.0;
      sink_.timeline.span("campaign.block", (record.sim_time - record.interval) * 1000.0,
                          record.interval * 1000.0,
                          static_cast<std::int64_t>(record.height),
                          record.winner);
      sink_.timeline.counter("campaign.difficulty", t_ms, record.difficulty);
      sink_.timeline.counter("campaign.orphan_rate", t_ms, fork_ewma_);
    }

    if (rounds_ % options_.check_stride == 0) scan(record.round, false);

    // Decide escalations for incidents raised by this call.
    if (incidents_ > incidents_before &&
        options_.action != health::WatchdogAction::kObserve) {
      const std::size_t fresh =
          static_cast<std::size_t>(incidents_ - incidents_before);
      const std::size_t start = events_.size() >= fresh
                                    ? events_.size() - fresh
                                    : std::size_t{0};
      for (std::size_t i = start; i < events_.size(); ++i) {
        Escalation esc;
        esc.solver = events_[i].solver;
        esc.solve = events_[i].solve;
        esc.round = record.round;
        esc.z = events_[i].rho;
        esc.gap = events_[i].residual;
        esc.abort = options_.action == health::WatchdogAction::kAbort;
        escalations.push_back(std::move(esc));
      }
    }
  }
  // Escalation outside the lock: the log write can block, and the abort
  // throw must not leave the mutex held.
  for (const Escalation& esc : escalations) {
    support::log_warn("campaign: ", esc.solver, " miner #", esc.solve,
                      " drifted from the model at round ", esc.round,
                      " (z=", esc.z, ", rate gap=", esc.gap, ")");
  }
  for (const Escalation& esc : escalations) {
    if (esc.abort) {
      throw health::SolverHealthError(
          esc.solver, esc.solve, static_cast<int>(esc.round),
          health::LoopState::kDiverging, esc.z, esc.gap);
    }
  }
}

void CampaignMonitor::observe_queue(std::size_t max_depth,
                                    std::uint64_t processed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  support::MetricsRegistry& metrics = sink_.metrics;
  metrics.gauge("campaign.queue_depth").set(static_cast<double>(max_depth));
  metrics.gauge("campaign.queue_events").set(static_cast<double>(processed));
  sink_.timeline.counter("campaign.queue_depth", sim_time_ * 1000.0,
                         static_cast<double>(max_depth));
}

void CampaignMonitor::finalize(chain::BlockLogWriter* log) {
  std::vector<Escalation> escalations;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t incidents_before = incidents_;
    scan(rounds_ == 0 ? 0 : rounds_ - 1, true);
    finalized_ = true;
    if (log != nullptr) {
      chain::BlockLogSummary summary;
      summary.rounds = rounds_;
      summary.blocks = blocks_;
      summary.forks = forks_;
      summary.fork_expected = fork_expected_;
      summary.fork_variance = fork_variance_;
      summary.has_reference = !reference_group_.empty();
      summary.miners.reserve(miners_.size());
      for (const MinerSlot& slot : miners_) summary.miners.push_back(slot.sums);
      log->write_summary(summary);
    }
    if (incidents_ > incidents_before &&
        options_.action != health::WatchdogAction::kObserve) {
      const std::size_t fresh =
          static_cast<std::size_t>(incidents_ - incidents_before);
      const std::size_t start = events_.size() >= fresh
                                    ? events_.size() - fresh
                                    : std::size_t{0};
      for (std::size_t i = start; i < events_.size(); ++i) {
        Escalation esc;
        esc.solver = events_[i].solver;
        esc.solve = events_[i].solve;
        esc.round = rounds_;
        esc.z = events_[i].rho;
        esc.gap = events_[i].residual;
        esc.abort = options_.action == health::WatchdogAction::kAbort;
        escalations.push_back(std::move(esc));
      }
    }
  }
  for (const Escalation& esc : escalations) {
    support::log_warn("campaign: ", esc.solver, " miner #", esc.solve,
                      " drifted from the model by end of campaign (z=", esc.z,
                      ", rate gap=", esc.gap, ")");
  }
  for (const Escalation& esc : escalations) {
    if (esc.abort) {
      throw health::SolverHealthError(
          esc.solver, esc.solve, static_cast<int>(esc.round),
          health::LoopState::kDiverging, esc.z, esc.gap);
    }
  }
}

std::vector<chain::BlockLogMinerSummary> CampaignMonitor::miner_summaries()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<chain::BlockLogMinerSummary> out;
  out.reserve(miners_.size());
  for (const MinerSlot& slot : miners_) out.push_back(slot.sums);
  return out;
}

chain::BlockLogSummary CampaignMonitor::summary() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  chain::BlockLogSummary summary;
  summary.rounds = rounds_;
  summary.blocks = blocks_;
  summary.forks = forks_;
  summary.fork_expected = fork_expected_;
  summary.fork_variance = fork_variance_;
  summary.has_reference = !reference_group_.empty();
  summary.miners.reserve(miners_.size());
  for (const MinerSlot& slot : miners_) summary.miners.push_back(slot.sums);
  return summary;
}

double CampaignMonitor::max_drift_z() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_drift_z_;
}

double CampaignMonitor::max_sampler_z() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_sampler_z_;
}

double CampaignMonitor::fork_z() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return drift_score(static_cast<double>(forks_), fork_expected_,
                     fork_variance_);
}

std::uint64_t CampaignMonitor::incidents() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return incidents_;
}

std::vector<support::health::HealthEvent> CampaignMonitor::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<health::HealthEvent>(events_.begin(), events_.end());
}

}  // namespace hecmine::net

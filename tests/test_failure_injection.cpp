// Failure injection and determinism: errors from embedded callbacks must
// propagate cleanly (no corrupted state, no swallowed exceptions), I/O
// failures must throw, and every stochastic component must be bit-stable
// under a fixed seed.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/oracle.hpp"
#include "game/stackelberg.hpp"
#include "net/campaign.hpp"
#include "net/network.hpp"
#include "rl/trainer.hpp"
#include "sim/event_queue.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace hecmine {
namespace {

TEST(FailureInjection, ThrowingLeaderPayoffPropagates) {
  const game::LeaderPayoffFn payoff = [](const std::vector<double>&,
                                         std::size_t) -> double {
    throw std::runtime_error("payoff exploded");
  };
  EXPECT_THROW(
      (void)game::solve_stackelberg(payoff, {0.5}, {{0.0, 1.0}}),
      std::runtime_error);
}

TEST(FailureInjection, ThrowingEventHandlerLeavesQueueUsable) {
  sim::EventQueue queue;
  queue.schedule_at(1.0, [] { throw std::runtime_error("boom"); });
  queue.schedule_at(2.0, [] {});
  EXPECT_THROW((void)queue.run(), std::runtime_error);
  // The failing event was consumed; the rest still runs.
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.run(), 1u);
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(FailureInjection, CsvWriteToUnwritablePathThrows) {
  support::Table table({"x"});
  table.add_row({1.0});
  EXPECT_THROW(table.write_csv("/proc/definitely/not/writable.csv"),
               std::exception);
}

TEST(FailureInjection, AllZeroRequestsAreHandledEndToEnd) {
  core::NetworkParams params;
  net::EdgePolicy policy{core::EdgeMode::kConnected, 0.9, 10.0};
  net::MiningNetwork network(params, policy, {2.0, 1.0}, 7);
  const std::vector<core::MinerRequest> profile{{0.0, 0.0}, {0.0, 0.0}};
  network.run_rounds(profile, 100);
  EXPECT_EQ(network.stats().rounds, 100u);
  EXPECT_EQ(network.stats().wins[0] + network.stats().wins[1], 0u);
  EXPECT_DOUBLE_EQ(network.stats().revenue_edge, 0.0);
  EXPECT_EQ(network.ledger().height(), 0u);  // nobody ever mined
}

TEST(FailureInjection, ZeroBudgetsYieldTheEmptyEquilibrium) {
  core::NetworkParams params;
  const auto eq = core::solve_followers(params, {2.0, 1.0}, {0.0, 0.0},
                                        core::EdgeMode::kConnected);
  EXPECT_NEAR(eq.totals.grand(), 0.0, 1e-9);
  for (double u : eq.utilities) EXPECT_DOUBLE_EQ(u, 0.0);
}

TEST(Determinism, CampaignIsBitStableUnderSeed) {
  net::CampaignConfig config;
  config.params.reward = 100.0;
  config.policy = {core::EdgeMode::kConnected, 0.9, 10.0};
  config.prices = {2.0, 1.0};
  config.blocks = 2000;
  const std::vector<core::MinerRequest> strategies{{1.0, 2.0}, {2.0, 1.0}};
  const auto a = run_campaign(config, strategies, 99);
  const auto b = run_campaign(config, strategies, 99);
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    EXPECT_EQ(a.miners[i].wins, b.miners[i].wins);
    EXPECT_DOUBLE_EQ(a.miners[i].income, b.miners[i].income);
  }
  EXPECT_EQ(a.forks, b.forks);
  const auto c = run_campaign(config, strategies, 100);
  EXPECT_NE(a.miners[0].wins, c.miners[0].wins);  // seed actually matters
}

TEST(Determinism, TrainerIsBitStableUnderSeed) {
  core::NetworkParams params;
  params.reward = 100.0;
  const core::PopulationModel population(3.0, 0.0, 1, 3);
  rl::TrainerConfig config;
  config.blocks = 500;
  config.edge_steps = 7;
  config.cloud_steps = 7;
  const auto a =
      rl::train_miners(params, {2.0, 1.0}, 10.0, population, config, 5);
  const auto b =
      rl::train_miners(params, {2.0, 1.0}, 10.0, population, config, 5);
  EXPECT_DOUBLE_EQ(a.mean.edge, b.mean.edge);
  EXPECT_DOUBLE_EQ(a.mean.cloud, b.mean.cloud);
}

TEST(Determinism, SolversAreDeterministicWithoutSeeds) {
  // Purely numerical paths must be exactly reproducible call to call.
  core::NetworkParams params;
  params.reward = 100.0;
  const std::vector<double> budgets{20.0, 35.0};
  const auto a = core::solve_followers(params, {2.0, 1.0}, budgets,
                                       core::EdgeMode::kStandalone);
  const auto b = core::solve_followers(params, {2.0, 1.0}, budgets,
                                       core::EdgeMode::kStandalone);
  EXPECT_DOUBLE_EQ(a.requests[0].edge, b.requests[0].edge);
  EXPECT_DOUBLE_EQ(a.surcharge, b.surcharge);
}

}  // namespace
}  // namespace hecmine

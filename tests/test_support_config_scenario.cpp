// Tests for support/config and core/scenario.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/scenario.hpp"
#include "support/config.hpp"
#include "support/error.hpp"

namespace hecmine {
namespace {

TEST(Config, ParsesKeysCommentsAndBlanks) {
  const auto config = support::Config::parse(
      "# header comment\n"
      "alpha = 1.5\n"
      "\n"
      "name= bench # trailing comment\n"
      "  spaced   =   value here  \n");
  EXPECT_TRUE(config.has("alpha"));
  EXPECT_DOUBLE_EQ(config.get("alpha", 0.0), 1.5);
  EXPECT_EQ(config.get("name", std::string()), "bench");
  EXPECT_EQ(config.get("spaced", std::string()), "value here");
  EXPECT_FALSE(config.has("missing"));
  EXPECT_EQ(config.get("missing", 7), 7);
}

TEST(Config, RejectsMalformedLinesAndValues) {
  EXPECT_THROW((void)support::Config::parse("not a key value line"),
               support::PreconditionError);
  EXPECT_THROW((void)support::Config::parse("= value"),
               support::PreconditionError);
  const auto config = support::Config::parse("n = abc\nflag = maybe");
  EXPECT_THROW((void)config.get("n", 1.0), support::PreconditionError);
  EXPECT_THROW((void)config.get("flag", true), support::PreconditionError);
}

TEST(Config, BooleansAndLists) {
  const auto config = support::Config::parse(
      "on = true\noff = 0\nxs = 1, 2.5,3 \nempty_fallback = 1");
  EXPECT_TRUE(config.get("on", false));
  EXPECT_FALSE(config.get("off", true));
  EXPECT_TRUE(config.get("missing", true));
  const auto xs = config.get_list("xs", {});
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[1], 2.5);
  const auto fallback = config.get_list("nope", {9.0});
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_THROW((void)config.get_list("on", {}), support::PreconditionError);
}

TEST(Config, LoadsFromFile) {
  // A directory of its own, so parallel test processes never remove each
  // other's files.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "hecmine_config_load";
  const std::string path = (dir / "config_load.conf").string();
  std::filesystem::create_directories(dir);
  {
    std::ofstream out{path};
    out << "reward = 250\n";
  }
  const auto config = support::Config::load(path);
  EXPECT_DOUBLE_EQ(config.get("reward", 0.0), 250.0);
  EXPECT_THROW(
      (void)support::Config::load((dir / "nonexistent.conf").string()),
      std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(Scenario, ParsesFullScenario) {
  const auto scenario = core::scenario_from_config(support::Config::parse(
      "reward = 200\n"
      "beta = 0.3\n"
      "h = 0.8\n"
      "capacity = 12\n"
      "mode = standalone\n"
      "budgets = 10, 20, 30\n"
      "price_edge = 3\n"
      "price_cloud = 1.5\n"));
  EXPECT_DOUBLE_EQ(scenario.params.reward, 200.0);
  EXPECT_DOUBLE_EQ(scenario.params.fork_rate, 0.3);
  EXPECT_EQ(scenario.mode, core::EdgeMode::kStandalone);
  ASSERT_EQ(scenario.budgets.size(), 3u);
  EXPECT_FALSE(scenario.homogeneous());
  ASSERT_TRUE(scenario.fixed_prices.has_value());
  EXPECT_DOUBLE_EQ(scenario.fixed_prices->edge, 3.0);
  EXPECT_FALSE(scenario.population.has_value());
}

TEST(Scenario, DelayConvertsThroughForkModel) {
  const auto scenario = core::scenario_from_config(
      support::Config::parse("delay = 2.5\ntau = 12.6\n"));
  const core::ForkModel model(12.6);
  EXPECT_NEAR(scenario.params.fork_rate, model.fork_rate(2.5), 1e-12);
  // Explicit beta wins over delay.
  const auto explicit_beta = core::scenario_from_config(
      support::Config::parse("beta = 0.11\ndelay = 2.5\n"));
  EXPECT_DOUBLE_EQ(explicit_beta.params.fork_rate, 0.11);
}

TEST(Scenario, HomogeneousShortcutAndDefaults) {
  const auto scenario = core::scenario_from_config(
      support::Config::parse("miners = 4\nbudget = 25\n"));
  ASSERT_EQ(scenario.budgets.size(), 4u);
  EXPECT_TRUE(scenario.homogeneous());
  EXPECT_EQ(scenario.mode, core::EdgeMode::kConnected);
  EXPECT_FALSE(scenario.fixed_prices.has_value());
}

TEST(Scenario, PopulationLaws) {
  const auto gaussian = core::scenario_from_config(support::Config::parse(
      "population_mean = 10\npopulation_stddev = 2\n"));
  ASSERT_TRUE(gaussian.population.has_value());
  EXPECT_NEAR(gaussian.population->mean(), 10.0, 0.05);
  const auto poisson = core::scenario_from_config(support::Config::parse(
      "population_mean = 9\npopulation_law = poisson\n"));
  ASSERT_TRUE(poisson.population.has_value());
  EXPECT_NEAR(poisson.population->variance(), 9.0, 0.4);
  EXPECT_THROW((void)core::scenario_from_config(support::Config::parse(
                   "population_mean = 9\npopulation_law = weird\n")),
               support::PreconditionError);
}

TEST(Scenario, RejectsBadValues) {
  EXPECT_THROW(
      (void)core::scenario_from_config(support::Config::parse("mode = p2p")),
      support::PreconditionError);
  EXPECT_THROW((void)core::scenario_from_config(
                   support::Config::parse("budgets = 10, -5")),
               support::PreconditionError);
  EXPECT_THROW((void)core::scenario_from_config(
                   support::Config::parse("miners = 1")),
               support::PreconditionError);
  EXPECT_THROW((void)core::scenario_from_config(
                   support::Config::parse("beta = 1.5")),
               support::PreconditionError);
}

}  // namespace
}  // namespace hecmine

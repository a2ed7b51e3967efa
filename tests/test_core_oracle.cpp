// Tests for the follower oracle (core/oracle.hpp): the one follower solver
// must agree with the VI reference, the factory must build it for every
// pool, and the leader stage built on it must skip the price scan only
// where the scan cannot settle. Registered under the `oracle` ctest label
// so `ctest -L oracle` runs exactly this suite.
#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/closed_forms.hpp"
#include "core/equilibrium.hpp"
#include "core/sp.hpp"
#include "game/stackelberg.hpp"
#include "numerics/optimize.hpp"
#include "support/error.hpp"

namespace hecmine::core {
namespace {

NetworkParams default_params() {
  NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 8.0;
  params.cost_edge = 1.0;
  params.cost_cloud = 0.4;
  return params;
}

SpSolveOptions fast_options() {
  SpSolveOptions options;
  options.grid_points = 12;
  options.max_rounds = 8;
  options.tolerance = 1e-3;
  return options;
}

TEST(EquilibriumProfileShape, SymmetricAccessorsMapEveryIndexToTheFront) {
  const NetworkParams params = default_params();
  const auto eq = FollowerOracle(params, 40.0, 5, EdgeMode::kConnected)
                      .solve({2.0, 1.0});
  ASSERT_TRUE(eq.converged);
  EXPECT_TRUE(eq.class_shaped());
  EXPECT_EQ(eq.miner_count, 5);
  ASSERT_EQ(eq.requests.size(), 1u);
  // Any miner index resolves to the shared entry.
  EXPECT_EQ(eq.request(0).edge, eq.request(4).edge);
  EXPECT_EQ(eq.utility(0), eq.utility(4));
  const auto profile = eq.expanded();
  ASSERT_EQ(profile.size(), 5u);
  EXPECT_EQ(profile.front().edge, profile.back().edge);
  // Totals are the n-fold replication of the shared request.
  EXPECT_NEAR(eq.totals.edge, 5.0 * eq.request().edge, 1e-12);
  EXPECT_NEAR(eq.totals.cloud, 5.0 * eq.request().cloud, 1e-12);
}

TEST(EquilibriumProfileShape, HeterogeneousAccessorsIndexPerMiner) {
  const NetworkParams params = default_params();
  const std::vector<double> budgets{20.0, 30.0, 40.0};
  const auto eq = FollowerOracle(params, budgets, EdgeMode::kConnected)
                      .solve({2.0, 1.0});
  ASSERT_TRUE(eq.converged);
  ASSERT_EQ(eq.requests.size(), 3u);
  ASSERT_EQ(eq.utilities.size(), 3u);
  EXPECT_EQ(eq.expanded().size(), 3u);
  // Richer miners buy more, so indexing is meaningful.
  EXPECT_GE(eq.request(2).total(), eq.request(0).total() - 1e-9);
  EXPECT_THROW((void)eq.request(3), support::PreconditionError);
}

TEST(OracleParity, SymmetricFastPathMatchesTheFullProfileNep) {
  // Homogeneous budgets: the O(1) one-class solve and the O(n) VI
  // reference must land on the same equilibrium.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets(5, 40.0);
  const auto fast = FollowerOracle(params, 40.0, 5, EdgeMode::kConnected)
                        .solve(prices);
  const auto full =
      solve_followers_vi(params, prices, budgets, EdgeMode::kConnected);
  ASSERT_TRUE(fast.converged);
  ASSERT_TRUE(full.converged);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(full.request(i).edge, fast.request().edge, 1e-3);
    EXPECT_NEAR(full.request(i).cloud, fast.request().cloud, 1e-3);
  }
  EXPECT_NEAR(full.totals.edge, fast.totals.edge, 5e-3);
  EXPECT_NEAR(full.totals.cloud, fast.totals.cloud, 5e-3);
  EXPECT_NEAR(full.utility(0), fast.utility(), 1e-3 * std::abs(fast.utility()) + 1e-4);
}

TEST(OracleParity, GnepSharedPriceAndViAgree) {
  // The class solver's shared-surcharge decomposition and the VI are
  // independent routes to the same variational equilibrium (Theorem 5).
  const NetworkParams params = default_params();
  const Prices prices{2.2, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};
  const auto shared =
      FollowerOracle(params, budgets, EdgeMode::kStandalone)
          .solve(prices);
  const auto vi =
      solve_followers_vi(params, prices, budgets, EdgeMode::kStandalone);
  ASSERT_TRUE(shared.converged);
  ASSERT_TRUE(vi.converged);
  EXPECT_EQ(shared.cap_active, vi.cap_active);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(vi.request(i).edge, shared.request(i).edge, 2e-2);
    EXPECT_NEAR(vi.request(i).cloud, shared.request(i).cloud, 2e-2);
  }
  EXPECT_NEAR(vi.totals.edge, shared.totals.edge, 3e-2);
  EXPECT_NEAR(vi.surcharge, shared.surcharge, 5e-2);
}

TEST(MakeFollowerOracle, DispatchesTheDocumentedFastPaths) {
  const NetworkParams params = default_params();
  // One solver for every pool: equal budgets (one class), heterogeneous
  // pools in both modes, a single miner and degenerate zero budgets.
  const auto class_count = [&](const std::vector<double>& budgets,
                               EdgeMode mode) {
    return make_follower_oracle(params, budgets, mode)->class_count();
  };
  EXPECT_EQ(class_count({40.0, 40.0, 40.0}, EdgeMode::kConnected), 1);
  EXPECT_EQ(class_count({20.0, 30.0}, EdgeMode::kConnected), 2);
  EXPECT_EQ(class_count({20.0, 30.0}, EdgeMode::kStandalone), 2);
  EXPECT_EQ(class_count({40.0}, EdgeMode::kConnected), 1);
  EXPECT_EQ(class_count({0.0, 0.0}, EdgeMode::kConnected), 1);
  // The degenerate pools still solve: the lone miner plays the epsilon
  // probe, zero budgets buy nothing.
  const auto zero = solve_followers(params, {2.0, 1.0}, {0.0, 0.0},
                                    EdgeMode::kConnected);
  EXPECT_TRUE(zero.converged);
  EXPECT_EQ(zero.totals.grand(), 0.0);
}

TEST(SolveFollowers, AutoDispatchMatchesTheExplicitSymmetricCall) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const auto dispatched =
      solve_followers(params, prices, {40.0, 40.0, 40.0, 40.0, 40.0},
                      EdgeMode::kConnected);
  const auto explicit_symmetric =
      solve_followers_symmetric(params, prices, 40.0, 5, EdgeMode::kConnected);
  EXPECT_EQ(dispatched.requests.size(), 1u);
  EXPECT_EQ(dispatched.request().edge, explicit_symmetric.request().edge);
  EXPECT_EQ(dispatched.request().cloud, explicit_symmetric.request().cloud);
  EXPECT_EQ(dispatched.totals.edge, explicit_symmetric.totals.edge);
}

TEST(LeaderStage, AutoDispatchAgreesWithTheForcedProfileOracle) {
  // solve_leader_stage on equal budgets takes the closed-form CSP
  // reaction. The reference here is built from scratch: Theorem 4's
  // sequential construction with a numeric reaction, i.e. a scan over P_e
  // of V_e whose CSP reaction is a scan over P_c of V_c, both through the
  // one-class follower solve. Both must find the same leader equilibrium.
  const NetworkParams params = default_params();
  const std::vector<double> budgets(3, 30.0);
  SpSolveOptions options = fast_options();
  const auto fast =
      solve_leader_stage(params, budgets, EdgeMode::kConnected, options);

  // The leader stage's price box and scan settings (core/sp.cpp).
  const double ceiling =
      2.0 * std::max(params.cost_edge, params.cost_cloud) +
      0.5 * params.reward;
  const double edge_lo =
      params.cost_edge * (1.0 + kPriceMargin) + 1e-9;
  const double cloud_lo =
      params.cost_cloud * (1.0 + kPriceMargin) + 1e-9;
  const auto followers = [&](const Prices& prices) {
    return solve_followers_symmetric(params, prices, 30.0, 3,
                                     EdgeMode::kConnected, options.context);
  };
  num::Maximize1DOptions reaction_scan;
  reaction_scan.grid_points = options.grid_points;
  reaction_scan.tolerance = 1e-8;
  const auto reaction = [&](double price_edge) {
    return num::maximize_scan(
               [&](double price_cloud) {
                 const Prices prices{price_edge, price_cloud};
                 return sp_profits(params, prices, followers(prices).totals)
                     .cloud;
               },
               cloud_lo, ceiling, reaction_scan)
        .argmax;
  };
  num::Maximize1DOptions composite_scan;
  composite_scan.grid_points = std::max(4 * options.grid_points, 160);
  composite_scan.tolerance = 1e-7;
  const double price_edge =
      num::maximize_scan(
          [&](double pe) {
            const Prices prices{pe, reaction(pe)};
            return sp_profits(params, prices, followers(prices).totals).edge;
          },
          edge_lo, ceiling, composite_scan)
          .argmax;
  const Prices prices{price_edge, reaction(price_edge)};
  const EquilibriumProfile reference = followers(prices);
  const SpProfits profits = sp_profits(params, prices, reference.totals);

  // The price game cycles under simultaneous moves, so the leader stage
  // must converge through Theorem 4's sequential construction.
  ASSERT_TRUE(fast.converged);
  ASSERT_TRUE(reference.converged);
  EXPECT_EQ(fast.method, SpSolveMethod::kSequential);
  EXPECT_EQ(fast.followers.requests.size(), 1u);
  EXPECT_NEAR(prices.edge, fast.prices.edge, 0.05 * fast.prices.edge + 1e-3);
  EXPECT_NEAR(prices.cloud, fast.prices.cloud,
              0.05 * fast.prices.cloud + 1e-3);
  const double fast_welfare = fast.profits.edge + fast.profits.cloud;
  EXPECT_NEAR(profits.edge + profits.cloud, fast_welfare,
              0.03 * std::abs(fast_welfare));
  EXPECT_NEAR(reference.totals.grand(), fast.followers.totals.grand(),
              0.05 * fast.followers.totals.grand());
}

// --- Theorem 4's test: which leader stages run the price scan ------------

/// The leader stage's price box (core/sp.cpp).
std::vector<game::ActionBounds> leader_box(const NetworkParams& params) {
  const double ceiling =
      2.0 * std::max(params.cost_edge, params.cost_cloud) +
      0.5 * params.reward;
  return {{params.cost_edge * (1.0 + kPriceMargin) + 1e-9, ceiling},
          {params.cost_cloud * (1.0 + kPriceMargin) + 1e-9, ceiling}};
}

/// Algorithm 1/2's price scan as the leader stage runs it: the same payoff,
/// price box, start and settings, called directly.
game::StackelbergResult direct_price_scan(const NetworkParams& params,
                                          const FollowerOracle& oracle,
                                          const SpSolveOptions& options) {
  const game::LeaderPayoffFn payoff = [&](const std::vector<double>& actions,
                                          std::size_t leader) {
    const Prices prices{actions[0], actions[1]};
    const SpProfits profits =
        sp_profits(params, prices, oracle.solve(prices).totals);
    return leader == 0 ? profits.edge : profits.cloud;
  };
  const auto box = leader_box(params);
  game::StackelbergOptions driver;
  driver.tolerance = options.tolerance;
  driver.max_rounds = options.max_rounds;
  driver.grid_points = options.grid_points;
  driver.context = options.context;
  return game::solve_stackelberg(
      payoff,
      {std::min(box[0].hi, 2.0 * params.cost_edge + 1.0),
       std::min(box[1].hi, 2.0 * params.cost_cloud + 0.5)},
      box, driver);
}

/// Theorem 4's sequential construction: the ESP's best point on the CSP's
/// reaction curve. One budget class takes solve_leader_stage_sequential;
/// any other pool the composite scan with the numeric V_c scan, rebuilt
/// from public pieces with the leader stage's box and scan settings.
LeaderStageResult sequential_reference(const NetworkParams& params,
                                       const std::vector<double>& budgets,
                                       EdgeMode mode,
                                       const SpSolveOptions& options) {
  const FollowerOracle oracle(params, budgets, mode, options.context);
  if (oracle.class_count() == 1)
    return solve_leader_stage_sequential(params, budgets.front(),
                                         oracle.miner_count(), mode, options);
  const auto box = leader_box(params);
  num::Maximize1DOptions reaction_scan;
  reaction_scan.grid_points = options.grid_points;
  reaction_scan.tolerance = 1e-8;
  const auto reaction = [&](double price_edge) {
    return num::maximize_scan(
               [&](double price_cloud) {
                 const Prices prices{price_edge, price_cloud};
                 return sp_profits(params, prices, oracle.solve(prices).totals)
                     .cloud;
               },
               box[1].lo, box[1].hi, reaction_scan)
        .argmax;
  };
  num::Maximize1DOptions composite_scan;
  composite_scan.grid_points = std::max(4 * options.grid_points, 160);
  composite_scan.tolerance = 1e-7;
  LeaderStageResult result;
  result.prices.edge =
      num::maximize_scan(
          [&](double price_edge) {
            const Prices prices{price_edge, reaction(price_edge)};
            return sp_profits(params, prices, oracle.solve(prices).totals)
                .edge;
          },
          box[0].lo, box[0].hi, composite_scan)
          .argmax;
  result.prices.cloud = reaction(result.prices.edge);
  result.followers = oracle.solve(result.prices);
  result.profits = sp_profits(params, result.prices, result.followers.totals);
  result.converged = result.followers.converged;
  return result;
}

void expect_same_answer(const LeaderStageResult& stage,
                        const LeaderStageResult& reference,
                        const std::string& where) {
  EXPECT_EQ(stage.prices.edge, reference.prices.edge) << where;
  EXPECT_EQ(stage.prices.cloud, reference.prices.cloud) << where;
  EXPECT_EQ(stage.followers.totals.edge, reference.followers.totals.edge)
      << where;
  EXPECT_EQ(stage.followers.totals.cloud, reference.followers.totals.cloud)
      << where;
  EXPECT_EQ(stage.profits.edge, reference.profits.edge) << where;
  EXPECT_EQ(stage.profits.cloud, reference.profits.cloud) << where;
  EXPECT_EQ(stage.converged, reference.converged) << where;
}

TEST(LeaderStage, SkipsThePriceScanOnlyWhereItCannotSettle) {
  // Where Theorem 4's test rules out a pure equilibrium (docs/MATH.md §4),
  // the leader stage skips the price scan. Over a grid of pools in both
  // modes, with slack, binding, mixed and heterogeneous budgets, capacities
  // down to 0.5 and cloud costs at or above the edge cost, the scan run
  // directly must then fail to settle, and the answer must be the
  // sequential construction's, bit for bit.
  SpSolveOptions options;
  options.context.threads = 1;
  // One-class pools on every parameter set: slack ones in both modes, and
  // in connected mode one that always binds and one that binds at R = 200.
  // Every other pool takes a numeric CSP reaction, a scan per point of the
  // composite scan, so a mixed pool (one binding class) and an all-slack
  // heterogeneous one run on every seventeenth set. A standalone pool with
  // a binding class always keeps the scan.
  const std::vector<std::vector<double>> slack{std::vector<double>(2, 500.0),
                                               std::vector<double>(6, 400.0)};
  const std::vector<std::vector<double>> binding{std::vector<double>(10, 2.0),
                                                 std::vector<double>(3, 30.0)};
  const std::vector<std::vector<double>> several_classes{
      {2.0, 500.0, 500.0}, {100.0, 150.0, 250.0}};
  int sets = 0;
  int stages = 0;
  int skipped = 0;
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone})
  for (const double reward : {50.0, 200.0})
  for (const double fork_rate : {0.05, 0.2, 0.5})
  for (const double success : {0.5, 1.0})
  for (const double capacity : {0.5, 3.0, 30.0})
  for (const double cost_edge : {0.5, 1.0, 3.0, 10.0})
  for (const double cost_cloud : {0.1, 0.4, 1.0}) {
    // Standalone mode reads no h, connected mode no E_max.
    if (mode == EdgeMode::kStandalone ? success != 1.0 : capacity != 3.0)
      continue;
    NetworkParams params;
    params.reward = reward;
    params.fork_rate = fork_rate;
    params.edge_success = success;
    params.edge_capacity = capacity;
    params.cost_edge = cost_edge;
    params.cost_cloud = cost_cloud;
    std::vector<std::vector<double>> pools = slack;
    if (mode == EdgeMode::kConnected)
      pools.insert(pools.end(), binding.begin(), binding.end());
    if (sets++ % 17 == 0)
      pools.insert(pools.end(), several_classes.begin(),
                   several_classes.end());
    for (const std::vector<double>& budgets : pools) {
      ++stages;
      const LeaderStageResult stage =
          solve_leader_stage(params, budgets, mode, options);
      if (stage.method != SpSolveMethod::kSequential || stage.rounds > 1)
        continue;
      ++skipped;
      const std::string where =
          std::string(mode == EdgeMode::kConnected ? "connected"
                                                   : "standalone") +
          " R=" + std::to_string(reward) +
          " beta=" + std::to_string(fork_rate) +
          " h=" + std::to_string(success) +
          " E_max=" + std::to_string(capacity) +
          " C_e=" + std::to_string(cost_edge) +
          " C_c=" + std::to_string(cost_cloud) +
          " budgets=" + std::to_string(budgets.front()) + "x" +
          std::to_string(budgets.size());
      const FollowerOracle oracle(params, budgets, mode, options.context);
      EXPECT_FALSE(direct_price_scan(params, oracle, options).converged)
          << where;
      expect_same_answer(
          stage, sequential_reference(params, budgets, mode, options), where);
    }
  }
  EXPECT_GE(stages, 1000);
  EXPECT_GT(skipped, stages / 4);
  EXPECT_LT(skipped, stages - stages / 4);
}

// --- The ESP's optimum by candidates, with the grid scan as the oracle --

/// The sequential construction for one budget class as a composite scan,
/// rebuilt from public pieces: V_e over a grid of the edge-price box and
/// golden-section refines of its best cells, with the leader stage's box,
/// scan settings and CSP reaction against one oracle (the closed-form root
/// in connected mode, Table II's better-scoring candidate in standalone
/// mode, the numeric V_c scan where neither applies).
LeaderStageResult composite_scan_reference(const NetworkParams& params,
                                           double budget, int n,
                                           EdgeMode mode,
                                           const SpSolveOptions& options) {
  const FollowerOracle oracle(params, budget, n, mode, options.context);
  const auto box = leader_box(params);
  const auto profits_at = [&](const Prices& prices) {
    return sp_profits(params, prices, oracle.solve(prices).totals);
  };
  const auto reaction = [&](double price_edge) {
    if (mode == EdgeMode::kConnected) {
      const double root = csp_reaction_sufficient_closed(params, price_edge);
      if (root >= box[1].lo && root <= box[1].hi) return root;
    } else {
      const StandaloneCspCandidates closed = csp_reaction_standalone_closed(
          params, budget, n, price_edge, box[1].lo, box[1].hi);
      if (closed.slack > 0.0 && closed.binding > 0.0)
        return profits_at({price_edge, closed.binding}).cloud >
                       profits_at({price_edge, closed.slack}).cloud
                   ? closed.binding
                   : closed.slack;
      if (closed.slack > 0.0) return closed.slack;
      if (closed.binding > 0.0) return closed.binding;
    }
    num::Maximize1DOptions reaction_scan;
    reaction_scan.grid_points = options.grid_points;
    reaction_scan.tolerance = 1e-8;
    return num::maximize_scan(
               [&](double price_cloud) {
                 return profits_at({price_edge, price_cloud}).cloud;
               },
               box[1].lo, box[1].hi, reaction_scan)
        .argmax;
  };
  num::Maximize1DOptions composite_scan;
  composite_scan.grid_points = std::max(4 * options.grid_points, 160);
  composite_scan.tolerance = 1e-7;
  LeaderStageResult result;
  result.prices.edge =
      num::maximize_scan(
          [&](double price_edge) {
            return profits_at({price_edge, reaction(price_edge)}).edge;
          },
          box[0].lo, box[0].hi, composite_scan)
          .argmax;
  result.prices.cloud = reaction(result.prices.edge);
  result.followers = oracle.solve(result.prices);
  result.profits = sp_profits(params, result.prices, result.followers.totals);
  result.converged = result.followers.converged;
  return result;
}

/// docs/MATH.md §4's coverage test: the closed-form reaction covers the
/// edge-price box (connected: its root clears the cloud floor at the box's
/// left end; standalone: B >= R(n-1)/n^2, a Table II candidate and the h = 1
/// root in the cloud box there).
bool closed_forms_cover(const NetworkParams& params, double budget, int n,
                        EdgeMode mode) {
  const auto box = leader_box(params);
  if (mode == EdgeMode::kConnected)
    return csp_reaction_sufficient_closed(params, box[0].lo) >= box[1].lo;
  NetworkParams unit = params;
  unit.edge_success = 1.0;
  const StandaloneCspCandidates closed = csp_reaction_standalone_closed(
      params, budget, n, box[0].lo, box[1].lo, box[1].hi);
  return (closed.slack > 0.0 || closed.binding > 0.0) &&
         csp_reaction_sufficient_closed(unit, box[0].lo) >= box[1].lo;
}

TEST(LeaderStage, CandidatesMatchTheCompositeScanOnOneClassPools) {
  // Over a grid of one-class pools in both modes, with slack and binding
  // budgets, the sequential construction by candidates must reach the
  // composite scan's V_e to 1e-9 relative on an exact follower answer.
  // Pools the closed forms do not cover keep the scan and must match it bit
  // for bit: every seventh of them (standalone ones only up to n = 3, to
  // bound the run time, as each of their composite points scans V_c over
  // binding-budget follower solves), and the standalone n = 10, B = 5 pool.
  SpSolveOptions options;
  options.context.threads = 1;
  int covered = 0;
  int kept = 0;
  const auto check = [&](const NetworkParams& params, double budget, int n,
                         EdgeMode mode, bool sample_kept) {
    const std::string where =
        std::string(mode == EdgeMode::kConnected ? "connected" : "standalone") +
        " beta=" + std::to_string(params.fork_rate) +
        " h=" + std::to_string(params.edge_success) +
        " E_max=" + std::to_string(params.edge_capacity) +
        " C_e=" + std::to_string(params.cost_edge) +
        " C_c=" + std::to_string(params.cost_cloud) +
        " budgets=" + std::to_string(budget) + "x" + std::to_string(n);
    if (!closed_forms_cover(params, budget, n, mode)) {
      if (!sample_kept) return;
      ++kept;
      expect_same_answer(
          solve_leader_stage_sequential(params, budget, n, mode, options),
          composite_scan_reference(params, budget, n, mode, options), where);
      return;
    }
    ++covered;
    const LeaderStageResult stage =
        solve_leader_stage_sequential(params, budget, n, mode, options);
    const LeaderStageResult scan =
        composite_scan_reference(params, budget, n, mode, options);
    EXPECT_TRUE(stage.converged) << where;
    EXPECT_GE(stage.profits.edge,
              scan.profits.edge - 1e-9 * std::abs(scan.profits.edge))
        << where;
  };
  int uncovered = 0;
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone})
  for (const double capacity : {0.5, 3.0, 8.0, 30.0})
  for (const double cost_edge : {0.5, 1.0, 3.0, 10.0})
  for (const double cost_cloud : {0.1, 0.4, 1.0})
  for (const double fork_rate : {0.05, 0.2, 0.5})
  for (const double success : {0.5, 0.9, 1.0})
  for (const int n : {2, 3, 10, 50}) {
    // Standalone mode reads no h, connected mode no E_max.
    if (mode == EdgeMode::kStandalone ? success != 1.0 : capacity != 3.0)
      continue;
    NetworkParams params;
    params.fork_rate = fork_rate;
    params.edge_success = success;
    params.edge_capacity = capacity;
    params.cost_edge = cost_edge;
    params.cost_cloud = cost_cloud;
    // Twice and half of the smaller per-miner spend threshold.
    const double threshold = params.reward * (n - 1.0) * (1.0 - fork_rate) /
                             (static_cast<double>(n) * n);
    for (const double budget : {2.0 * params.reward / n, 0.5 * threshold}) {
      const bool sample =
          !closed_forms_cover(params, budget, n, mode) &&
          uncovered++ % 7 == 0 && (mode == EdgeMode::kConnected || n <= 3);
      check(params, budget, n, mode, sample);
    }
  }
  const NetworkParams defaults;
  check(defaults, 5.0, 10, EdgeMode::kStandalone, true);
  EXPECT_GE(covered, 1000);
  EXPECT_GE(kept, 20);
}

// Two pools whose price scan settles, so Theorem 4's test must keep it. The
// prices and rounds were pinned from the leader stage before the test
// existed, when every pool ran the scan.

TEST(LeaderStage, CeilingEquilibriumKeepsThePriceScan) {
  // The CSP answers the ceiling P_e = 45 below C_e = 10, so the ESP stays
  // at the ceiling: a pure equilibrium (condition 4 fails).
  NetworkParams params;
  params.reward = 50.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.cost_edge = 10.0;
  params.cost_cloud = 0.1;
  SpSolveOptions options;
  options.context.threads = 1;
  const LeaderStageResult stage =
      solve_leader_stage(params, {500.0, 500.0}, EdgeMode::kConnected, options);
  EXPECT_EQ(stage.method, SpSolveMethod::kBestResponse);
  EXPECT_TRUE(stage.converged);
  EXPECT_EQ(stage.rounds, 2);
  EXPECT_EQ(stage.prices.edge, 45.0);
  EXPECT_EQ(stage.prices.cloud, 0x1.049b691324512p+2);  // 4.0720
}

TEST(LeaderStage, CloudCostAboveEdgeCostKeepsThePriceScan) {
  // C_c = 1 > C_e = 0.5: the cloud floor lies above C_e, where the ESP
  // answers with the edge-only kink and the CSP cannot undercut, so the
  // scan settles at the floors (condition 3 fails).
  NetworkParams params;
  params.reward = 50.0;
  params.fork_rate = 0.05;
  params.edge_success = 0.5;
  params.cost_edge = 0.5;
  params.cost_cloud = 1.0;
  SpSolveOptions options;
  options.context.threads = 1;
  const LeaderStageResult stage =
      solve_leader_stage(params, {500.0, 500.0}, EdgeMode::kConnected, options);
  EXPECT_EQ(stage.method, SpSolveMethod::kBestResponse);
  EXPECT_TRUE(stage.converged);
  EXPECT_EQ(stage.rounds, 23);
  EXPECT_EQ(stage.prices.edge, 0x1.06c35b892b845p+0);   // 1.0264
  EXPECT_EQ(stage.prices.cloud, 0x1.00068dbd064a1p+0);  // 1.0001, the floor
}

TEST(Exploitability, ProfileOverloadCertifiesOracleEquilibria) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{25.0, 35.0, 45.0};
  const auto connected =
      solve_followers(params, prices, budgets, EdgeMode::kConnected);
  EXPECT_LT(miner_exploitability(params, prices, budgets, connected,
                                 EdgeMode::kConnected),
            1e-4);
  const auto standalone =
      solve_followers(params, prices, budgets, EdgeMode::kStandalone);
  EXPECT_LT(miner_exploitability(params, prices, budgets, standalone,
                                 EdgeMode::kStandalone),
            1e-3);
  // The one-class shape accepts a single shared budget entry.
  const auto symmetric =
      solve_followers_symmetric(params, prices, 40.0, 5, EdgeMode::kConnected);
  EXPECT_LT(miner_exploitability(params, prices, {40.0}, symmetric,
                                 EdgeMode::kConnected),
            1e-4);
}

}  // namespace
}  // namespace hecmine::core

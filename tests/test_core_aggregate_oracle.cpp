// Tests for FollowerOracle's class solver (core/aggregate_oracle.hpp): the
// share equation must land on the same equilibrium as the dense per-miner
// VI reference (Theorem 2's uniqueness makes the NE symmetric within
// budget classes) and put every class on its own best response, lazy
// per-miner expansion must be transparent to every consumer, and
// make_follower_oracle must bucket every pool. Registered under the
// `aggregate` ctest label.
#include "core/aggregate_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/closed_forms.hpp"
#include "core/equilibrium.hpp"
#include "core/kernels.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "core/sp.hpp"
#include "core/welfare.hpp"
#include "support/error.hpp"
#include "support/prof.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {
namespace {

// Documented parity tolerance between the aggregate solver and the dense
// VI reference: both stop within ~1e-9 of the unique equilibrium, so
// per-miner requests agree to ~1e-6 resource units at reward scale 100.
constexpr double kParityTol = 1e-5;

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

// Three budget classes over five miners, with duplicates in arbitrary order.
std::vector<double> few_class_budgets() { return {120.0, 50.0, 120.0, 50.0, 200.0}; }

TEST(ClassPartition, ExactKeysBucketDuplicatesAndSortAscending) {
  const auto partition = partition_budget_classes(few_class_budgets());
  ASSERT_EQ(partition.classes.size(), 3u);
  EXPECT_EQ(partition.classes[0].budget, 50.0);
  EXPECT_EQ(partition.classes[0].count, 2);
  EXPECT_EQ(partition.classes[1].budget, 120.0);
  EXPECT_EQ(partition.classes[1].count, 2);
  EXPECT_EQ(partition.classes[2].budget, 200.0);
  EXPECT_EQ(partition.classes[2].count, 1);
  const std::vector<std::uint32_t> expected{1, 0, 1, 0, 2};
  EXPECT_EQ(partition.class_of, expected);
}

TEST(ClassPartition, RejectsNegativeInputs) {
  EXPECT_THROW((void)partition_budget_classes({-1.0}),
               support::PreconditionError);
  EXPECT_THROW((void)partition_budget_classes(
                   {3.0, std::numeric_limits<double>::quiet_NaN()}),
               support::PreconditionError);
}

// The ordered-map bucketing the partition must reproduce bit for bit:
// ascending keys, dense indices, and the first-seen key of equal values.
ClassPartition ordered_map_partition(const std::vector<double>& budgets) {
  std::map<double, std::uint32_t> index_of;
  for (double budget : budgets) index_of.emplace(budget, 0);
  std::uint32_t next = 0;
  for (auto& [key, index] : index_of) index = next++;
  ClassPartition partition;
  partition.classes.resize(index_of.size());
  for (const auto& [key, index] : index_of)
    partition.classes[index].budget = key;
  partition.class_of.resize(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const std::uint32_t k = index_of.at(budgets[i]);
    partition.class_of[i] = k;
    ++partition.classes[k].count;
  }
  return partition;
}

void expect_same_partition(const ClassPartition& got,
                           const ClassPartition& want) {
  ASSERT_EQ(got.classes.size(), want.classes.size());
  for (std::size_t k = 0; k < want.classes.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.classes[k].budget),
              std::bit_cast<std::uint64_t>(want.classes[k].budget))
        << "class " << k;
    EXPECT_EQ(got.classes[k].count, want.classes[k].count) << "class " << k;
  }
  EXPECT_EQ(got.class_of, want.class_of);
}

TEST(ClassPartition, MatchesAnOrderedMapReference) {
  constexpr std::size_t kMiners = 100000;
  support::Rng rng(0x70617274ULL);
  for (const std::size_t classes : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, kMiners}) {
    // One key per stratum of [5, 500), so the K keys are distinct; every
    // key appears, and the pool is shuffled.
    std::vector<double> keys(classes);
    for (std::size_t k = 0; k < classes; ++k)
      keys[k] = 5.0 + 495.0 * (static_cast<double>(k) + rng.uniform()) /
                          static_cast<double>(classes);
    std::vector<double> budgets(kMiners);
    for (std::size_t i = 0; i < kMiners; ++i) budgets[i] = keys[i % classes];
    for (std::size_t i = kMiners - 1; i > 0; --i)
      std::swap(budgets[i], budgets[rng.uniform_index(i + 1)]);
    const ClassPartition partition = partition_budget_classes(budgets);
    EXPECT_EQ(partition.classes.size(), classes);
    expect_same_partition(partition, ordered_map_partition(budgets));
  }
  // Signed zeros are one key, kept as first seen.
  for (const std::vector<double>& budgets :
       {std::vector<double>{0.0, -0.0, 3.0, -0.0, 0.0, 3.0},
        std::vector<double>{-0.0, 3.0, 0.0, 1.0, -0.0}}) {
    const ClassPartition partition = partition_budget_classes(budgets);
    expect_same_partition(partition, ordered_map_partition(budgets));
    EXPECT_EQ(std::signbit(partition.classes.front().budget),
              std::signbit(budgets.front()));
  }
}

TEST(ClassAggregateOracleParity, ConnectedMatchesDenseNepPerMiner) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets = few_class_budgets();
  const auto dense =
      solve_followers_vi(params, prices, budgets, EdgeMode::kConnected);
  const auto aggregate =
      FollowerOracle(params, budgets, EdgeMode::kConnected)
          .solve(prices);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(aggregate.converged);
  EXPECT_TRUE(aggregate.class_shaped());
  EXPECT_EQ(aggregate.miner_count, dense.miner_count);
  EXPECT_NEAR(aggregate.totals.edge, dense.totals.edge, kParityTol);
  EXPECT_NEAR(aggregate.totals.cloud, dense.totals.cloud, kParityTol);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(aggregate.request(i).edge, dense.request(i).edge, kParityTol);
    EXPECT_NEAR(aggregate.request(i).cloud, dense.request(i).cloud,
                kParityTol);
    EXPECT_NEAR(aggregate.utility(i), dense.utility(i), kParityTol);
  }
}

TEST(ClassAggregateOracleParity, StandaloneMatchesDenseGnepWithActiveCap) {
  NetworkParams params = default_params();
  params.edge_capacity = 4.0;  // small cap so the shared constraint binds
  const Prices prices{1.5, 1.0};
  const std::vector<double> budgets = few_class_budgets();
  const auto dense =
      solve_followers_vi(params, prices, budgets, EdgeMode::kStandalone);
  const auto aggregate =
      FollowerOracle(params, budgets, EdgeMode::kStandalone)
          .solve(prices);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(aggregate.converged);
  EXPECT_EQ(aggregate.cap_active, dense.cap_active);
  EXPECT_NEAR(aggregate.totals.edge, dense.totals.edge, 1e-4);
  EXPECT_NEAR(aggregate.surcharge, dense.surcharge, 1e-3);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(aggregate.request(i).edge, dense.request(i).edge, 1e-4);
    EXPECT_NEAR(aggregate.request(i).cloud, dense.request(i).cloud, 1e-4);
    EXPECT_NEAR(aggregate.utility(i), dense.utility(i), 1e-3);
  }
}

TEST(ClassAggregateOracleParity, HomogeneousPoolMatchesSymmetricOracle) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets(6, 40.0);
  const auto symmetric = solve_followers_symmetric(params, prices, 40.0, 6,
                                                   EdgeMode::kConnected);
  const auto aggregate =
      FollowerOracle(params, budgets, EdgeMode::kConnected)
          .solve(prices);
  ASSERT_TRUE(aggregate.converged);
  EXPECT_EQ(FollowerOracle(params, budgets, EdgeMode::kConnected)
                .class_count(),
            1);
  EXPECT_NEAR(aggregate.request(0).edge, symmetric.request().edge, kParityTol);
  EXPECT_NEAR(aggregate.request(0).cloud, symmetric.request().cloud,
              kParityTol);
  // Both are Corollary 1 / Theorem 3's closed form.
  const MinerRequest closed =
      homogeneous_connected_request(params, prices, 40.0, 6);
  EXPECT_NEAR(aggregate.request(0).edge, closed.edge, kParityTol);
  EXPECT_NEAR(aggregate.request(0).cloud, closed.cloud, kParityTol);
}

TEST(ClassAggregateOracle, ExpansionIsExactlyClassSymmetric) {
  const NetworkParams params = default_params();
  const auto profile =
      FollowerOracle(params, few_class_budgets(), EdgeMode::kConnected)
          .solve({2.0, 1.0});
  // Miners 1 and 3 share budget 50, miners 0 and 2 share budget 120: their
  // lazily expanded requests are the same object, hence bitwise equal.
  EXPECT_EQ(profile.request(1).edge, profile.request(3).edge);
  EXPECT_EQ(profile.request(0).cloud, profile.request(2).cloud);
  EXPECT_EQ(profile.utility(1), profile.utility(3));
  const auto expanded = profile.expanded();
  ASSERT_EQ(expanded.size(), 5u);
  EXPECT_EQ(expanded[0].edge, expanded[2].edge);
  EXPECT_THROW((void)profile.request(5), support::PreconditionError);
  // Totals equal the count-weighted class sum.
  double edge = 0.0;
  for (const auto& request : expanded) edge += request.edge;
  EXPECT_NEAR(profile.totals.edge, edge, 1e-9);
}

TEST(ClassAggregateOracle, SolveIsBitwiseIdenticalAcrossThreadCounts) {
  const NetworkParams params = default_params();
  const std::vector<double> budgets = few_class_budgets();
  for (EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    SolveContext serial;
    serial.threads = 1;
    SolveContext parallel;
    parallel.threads = 4;
    const auto a =
        FollowerOracle(params, budgets, mode, serial).solve({2.0, 1.0});
    const auto b =
        FollowerOracle(params, budgets, mode, parallel).solve({2.0, 1.0});
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t k = 0; k < a.requests.size(); ++k) {
      EXPECT_EQ(a.requests[k].edge, b.requests[k].edge);
      EXPECT_EQ(a.requests[k].cloud, b.requests[k].cloud);
      EXPECT_EQ(a.utilities[k], b.utilities[k]);
    }
    EXPECT_EQ(a.totals.edge, b.totals.edge);
    EXPECT_EQ(a.surcharge, b.surcharge);
  }
}

TEST(ProfileOracleDispatch, MakeFollowerOracleRoutesHeterogeneousPools) {
  const NetworkParams params = default_params();
  // The factory buckets the pool: three budget classes over five miners.
  const auto oracle = make_follower_oracle(params, few_class_budgets(),
                                           EdgeMode::kConnected, {});
  EXPECT_EQ(oracle->class_count(), 3);
  EXPECT_EQ(oracle->miner_count(), 5);
}

TEST(ClassAggregateOracle, LeaderStageAndConsumersAcceptClassProfiles) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets = few_class_budgets();
  SolveContext context;
  const auto profile =
      make_follower_oracle(params, budgets, EdgeMode::kConnected, context)
          ->solve(prices);
  ASSERT_TRUE(profile.class_shaped());
  // welfare: the O(K) class path equals the expanded per-miner sum.
  const double class_sum = aggregate_utility(params, prices, profile);
  EquilibriumProfile dense_view = profile;
  dense_view.requests = profile.expanded();
  dense_view.utilities.clear();
  for (std::size_t i = 0; i < budgets.size(); ++i)
    dense_view.utilities.push_back(profile.utility(i));
  dense_view.classes.reset();
  EXPECT_NEAR(class_sum, aggregate_utility(params, prices, dense_view), 1e-9);
  // audit: full and sampled certificates accept the class shape.
  Scenario scenario;
  scenario.params = params;
  scenario.mode = EdgeMode::kConnected;
  scenario.budgets = budgets;
  AuditOptions audit_options;
  audit_options.context = context;
  const AuditReport full = audit_equilibrium(scenario, prices, profile,
                                             audit_options);
  EXPECT_LE(full.best_response_gap, 1e-6 * params.reward);
  audit_options.max_audited_miners = 3;
  const AuditReport sampled = audit_equilibrium(scenario, prices, profile,
                                                audit_options);
  EXPECT_EQ(sampled.budget_slack.size(), 3u);
  EXPECT_LE(sampled.best_response_gap, full.best_response_gap + 1e-12);
}


TEST(ClassShapeOracle, SharesAValidShapeAndRejectsMalformedOnes) {
  const NetworkParams params = default_params();
  const std::vector<double> budgets = few_class_budgets();
  const FollowerOracle bucketed(params, budgets, EdgeMode::kConnected);
  const auto shape =
      std::make_shared<const EquilibriumProfile::ClassShape>(
          bucketed.classes());
  const FollowerOracle shared(params, shape, EdgeMode::kConnected);
  EXPECT_EQ(shared.miner_count(), 5);
  EXPECT_EQ(shared.class_count(), 3);
  const auto a = bucketed.solve({2.0, 1.0});
  const auto b = shared.solve({2.0, 1.0});
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t k = 0; k < a.requests.size(); ++k) {
    EXPECT_EQ(a.requests[k].edge, b.requests[k].edge);
    EXPECT_EQ(a.requests[k].cloud, b.requests[k].cloud);
  }
  EXPECT_EQ(b.classes, shape);  // profiles share the caller's shape

  using Shape = EquilibriumProfile::ClassShape;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Shape> malformed = {
      {{}, {}, {}},                          // no classes
      {{0, 1}, {1, 1}, {50.0}},              // one budget for two classes
      {{0, 1}, {1, 1}, {120.0, 50.0}},       // keys descend
      {{0, 1}, {1, 1}, {50.0, 50.0}},        // repeated key
      {{}, {2}, {-1.0}},                     // negative budget
      {{0, 1}, {1, 1}, {nan, 50.0}},         // NaN budget
      {{0, 0}, {2, 0}, {50.0, 120.0}},       // empty class
      {{0, 1, 1}, {1, 1}, {50.0, 120.0}},    // map longer than the pool
      {{0, 2}, {1, 1}, {50.0, 120.0}},       // class index out of range
      {{0, 0, 1}, {1, 2}, {50.0, 120.0}},    // map disagrees with counts
      {{0, 0}, {2}, {50.0}},                 // one class with a map
  };
  for (std::size_t j = 0; j < malformed.size(); ++j)
    EXPECT_THROW(FollowerOracle(params,
                                std::make_shared<const Shape>(malformed[j]),
                                EdgeMode::kConnected),
                 support::PreconditionError)
        << "shape " << j;
  EXPECT_THROW(FollowerOracle(params, nullptr, EdgeMode::kConnected),
               support::PreconditionError);
}

TEST(ClassShapeOracle, OneClassPoolCarriesNoClassMap) {
  // Equal budgets need no miner -> class map; the pool solves bit for bit
  // like the (budget, n) constructor's.
  const NetworkParams params = default_params();
  constexpr int kMiners = 100000;
  const std::vector<double> budgets(kMiners, 40.0);
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    const FollowerOracle bucketed(params, budgets, mode);
    EXPECT_TRUE(bucketed.classes().of.empty());
    EXPECT_EQ(bucketed.class_count(), 1);
    EXPECT_EQ(bucketed.miner_count(), kMiners);
    const auto a = bucketed.solve({2.0, 1.0});
    const auto b = FollowerOracle(params, 40.0, kMiners, mode).solve({2.0, 1.0});
    ASSERT_EQ(a.requests.size(), 1u);
    ASSERT_EQ(b.requests.size(), 1u);
    EXPECT_EQ(a.requests[0].edge, b.requests[0].edge);
    EXPECT_EQ(a.requests[0].cloud, b.requests[0].cloud);
    EXPECT_EQ(a.utilities, b.utilities);
    EXPECT_EQ(a.totals.edge, b.totals.edge);
    EXPECT_EQ(a.totals.cloud, b.totals.cloud);
    EXPECT_EQ(a.surcharge, b.surcharge);
    EXPECT_EQ(a.cap_active, b.cap_active);
    EXPECT_EQ(a.converged, b.converged);
  }
  // +0.0 and -0.0 are one class, keyed by the first.
  const FollowerOracle zeros(params, std::vector<double>{-0.0, 0.0},
                             EdgeMode::kConnected);
  EXPECT_EQ(zeros.class_count(), 1);
  EXPECT_TRUE(std::signbit(zeros.classes().budgets[0]));
  // The one budget is still validated, N = 1 included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& bad :
       {std::vector<double>{-1.0}, std::vector<double>{nan},
        std::vector<double>(3, -2.0), std::vector<double>(3, nan)})
    EXPECT_THROW(FollowerOracle(params, bad, EdgeMode::kConnected),
                 support::PreconditionError);
}

TEST(ClassAggregateOracle, AllSlackPoolSettlesInTwoSweepsPerFixedPoint) {
  // Every budget affords the symmetric spend, so the share equation gives
  // u = 1/N and every class plays the symmetric request of the whole pool,
  // in closed form: no sweep and no cap-root step. At P_e < P_c the
  // standalone cap binds, and every class plays the symmetric cap
  // request.
  NetworkParams params = default_params();
  params.edge_capacity = 40.0;
  std::vector<double> budgets;
  for (int i = 0; i < 30; ++i) budgets.push_back(60.0 + 70.0 * (i % 3));
  const int n = static_cast<int>(budgets.size());
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    for (const Prices prices : {Prices{2.0, 1.0}, Prices{6.5, 2.2},
                                Prices{9.5, 1.0}, Prices{1.5, 2.2}}) {
      support::Telemetry telemetry;
      SolveContext context;
      context.telemetry = &telemetry;
      const auto profile = FollowerOracle(params, budgets, mode, context)
                               .solve(prices);
      ASSERT_TRUE(profile.converged);
      ASSERT_EQ(profile.requests.size(), 3u);
      const support::prof::WorkCounters work = telemetry.work.total();
      EXPECT_EQ(work[support::prof::WorkField::kSweeps], 0u);
      EXPECT_EQ(work[support::prof::WorkField::kBisectionIters], 0u)
          << "P_e=" << prices.edge << " P_c=" << prices.cloud;
      EXPECT_EQ(profile.iterations, 0);
      const auto symmetric =
          solve_followers_symmetric(params, prices, budgets.back(), n, mode);
      EXPECT_EQ(profile.cap_active, symmetric.cap_active);
      const double tol = symmetric.cap_active ? 1e-9 : 1e-12;
      for (const MinerRequest& request : profile.requests) {
        EXPECT_NEAR(request.edge, symmetric.request().edge,
                    tol * symmetric.request().edge);
        EXPECT_NEAR(request.cloud, symmetric.request().cloud,
                    tol * symmetric.request().cloud);
      }
    }
  }
}

// --- the share equation on budget-bound pools -------------------------------

// The symmetric spend R (N - 1)(1 - beta + beta h)/N^2 with h = 1 in
// standalone mode: a class binds when its budget is below it.
double symmetric_spend(const NetworkParams& params, double n, EdgeMode mode) {
  const double h =
      mode == EdgeMode::kConnected ? params.edge_success : 1.0;
  return params.reward * (n - 1.0) *
         (1.0 - params.fork_rate + params.fork_rate * h) / (n * n);
}

// The class shape of n miners spread as evenly as possible over the
// ascending class budgets, miners listed class by class.
std::shared_ptr<const EquilibriumProfile::ClassShape> spread_pool(
    const std::vector<double>& budgets, int n) {
  auto shape = std::make_shared<EquilibriumProfile::ClassShape>();
  const int kn = static_cast<int>(budgets.size());
  shape->budgets = budgets;
  for (int k = 0; k < kn; ++k) {
    shape->counts.push_back(n / kn + (k < n % kn ? 1 : 0));
    if (kn > 1)
      shape->of.insert(shape->of.end(),
                       static_cast<std::size_t>(shape->counts.back()),
                       static_cast<std::uint32_t>(k));
  }
  return shape;
}

// One solve against the class solver's contract: `converged`, totals equal
// to the class sums (1e-12 relative for N <= 1000, 1e-9 above), every class
// within its budget and the cap, and every class's request equal to
// best_response_kernel's reply to the rest (1e-9 relative for N <= 1000,
// 1e-7 above). Returns the largest residual.
double expect_exact(const NetworkParams& params,
                    std::shared_ptr<const EquilibriumProfile::ClassShape> shape,
                    EdgeMode mode, const Prices& prices,
                    const std::string& what) {
  const FollowerOracle oracle(params, shape, mode);
  const EquilibriumProfile profile = oracle.solve(prices);
  const bool large = oracle.miner_count() > 1000;
  const double totals_tol = large ? 1e-9 : 1e-12;
  const double residual_tol = large ? 1e-7 : 1e-9;
  EXPECT_TRUE(profile.converged) << what;
  Totals sums;
  for (std::size_t k = 0; k < shape->counts.size(); ++k) {
    sums.edge += shape->counts[k] * profile.requests[k].edge;
    sums.cloud += shape->counts[k] * profile.requests[k].cloud;
  }
  EXPECT_LE(std::abs(sums.edge - profile.totals.edge),
            totals_tol * profile.totals.edge)
      << what;
  EXPECT_LE(std::abs(sums.grand() - profile.totals.grand()),
            totals_tol * profile.totals.grand())
      << what;
  if (mode == EdgeMode::kStandalone) {
    EXPECT_LE(profile.totals.edge, params.edge_capacity * (1.0 + 1e-12))
        << what;
  }
  const KernelEnv env = make_kernel_env(
      params, prices,
      mode == EdgeMode::kConnected ? params.edge_success : 1.0,
      profile.surcharge);
  // With no edge bonus at equal effective prices (beta = 0 under a binding
  // cap), edge and cloud units are interchangeable: only totals count.
  const bool split_free =
      env.edge_coeff == 0.0 &&
      std::abs(env.effective_edge_price - prices.cloud) <= 4e-16 * prices.cloud;
  double worst = 0.0;
  for (std::size_t k = 0; k < shape->counts.size(); ++k) {
    const MinerRequest& request = profile.requests[k];
    EXPECT_LE(request_cost(request, prices),
              shape->budgets[k] * (1.0 + 1e-12))
        << what << " class " << k;
    const double others_edge = profile.totals.edge - request.edge;
    const double others_grand =
        profile.totals.grand() - request.total();
    const MinerRequest reply = best_response_kernel(
        env, shape->budgets[k], others_edge, others_grand);
    const double size = std::max(request.total(), reply.total());
    const double edge_miss =
        split_free ? 0.0 : std::abs(reply.edge - request.edge);
    if (size > 0.0)
      worst = std::max(
          worst,
          std::max(edge_miss, std::abs(reply.total() - request.total())) /
              size);
  }
  EXPECT_LE(worst, residual_tol) << what;
  return worst;
}

const Prices kGridPrices[] = {
    {6.0, 2.0}, {9.5, 1.0}, {3.0, 2.2}, {2.5, 2.2}, {2.0, 2.2}};

std::string row(const char* kind, int n, std::size_t kn, EdgeMode mode,
                const Prices& prices) {
  return std::string(kind) + " N=" + std::to_string(n) +
         " K=" + std::to_string(kn) +
         (mode == EdgeMode::kConnected ? " connected" : " standalone") +
         " P=(" + std::to_string(prices.edge) + ", " +
         std::to_string(prices.cloud) + ")";
}

TEST(ShareEquation, BudgetBoundGridIsExact) {
  // Budgets (0.05 + 3k/(K - 1)) x the symmetric spend: the poorest classes
  // bind, the richest do not. A beta = 0 pool (no edge bonus) rides along.
  for (const double beta : {0.2, 0.0}) {
    NetworkParams params;
    params.fork_rate = beta;
    for (const int n : {40, 1000, 300000}) {
      for (const int classes : {8, 64}) {
        const std::size_t kn = static_cast<std::size_t>(std::min(classes, n));
        for (const EdgeMode mode :
             {EdgeMode::kConnected, EdgeMode::kStandalone}) {
          const double spend = symmetric_spend(params, n, mode);
          std::vector<double> budgets(kn);
          for (std::size_t k = 0; k < kn; ++k)
            budgets[k] = (0.05 + 3.0 * static_cast<double>(k) /
                                     static_cast<double>(kn - 1)) *
                         spend;
          const auto shape = spread_pool(budgets, n);
          for (const Prices& prices : kGridPrices)
            expect_exact(params, shape, mode, prices,
                         row(beta > 0.0 ? "grid" : "beta=0 grid", n, kn, mode,
                             prices));
        }
      }
    }
  }
}

TEST(ShareEquation, TiesAtTheSymmetricSpendAreExact) {
  // The poorest class holds exactly the symmetric spend, the others more:
  // in exact arithmetic no class binds and u = 1/N, so every class plays
  // the symmetric equilibrium of the whole pool, however the tie rounds.
  const NetworkParams params;
  for (const int n : {1000, 300000}) {
    for (const std::size_t kn : {std::size_t{2}, std::size_t{8},
                                 std::size_t{64}}) {
      for (const EdgeMode mode :
           {EdgeMode::kConnected, EdgeMode::kStandalone}) {
        const double spend = symmetric_spend(params, n, mode);
        std::vector<double> budgets(kn);
        for (std::size_t k = 0; k < kn; ++k)
          budgets[k] = spend * (1.0 + 2.0 * static_cast<double>(k) /
                                          static_cast<double>(kn - 1));
        const auto shape = spread_pool(budgets, n);
        for (const Prices& prices : kGridPrices) {
          const std::string what = row("tie", n, kn, mode, prices);
          expect_exact(params, shape, mode, prices, what);
          const auto profile =
              FollowerOracle(params, shape, mode).solve(prices);
          const auto symmetric = solve_followers_symmetric(
              params, prices, budgets.back(), n, mode);
          for (const MinerRequest& request : profile.requests) {
            EXPECT_NEAR(request.edge, symmetric.request().edge,
                        1e-12 * symmetric.request().total())
                << what;
            EXPECT_NEAR(request.cloud, symmetric.request().cloud,
                        1e-12 * symmetric.request().total())
                << what;
          }
        }
      }
    }
  }
}

TEST(ShareEquation, SeededRandomPoolsAreExact) {
  // 300 pools: N log-uniform over 5..3x10^5, K <= 20 classes with budgets
  // log-uniform over 0.01..10x the symmetric spend, P_e in [1.5, 10] and
  // P_c in [0.5, 3] (so P_e <= P_c too), each solved in both modes.
  const NetworkParams params;
  support::Rng rng(0x73686172ULL);
  int edge_cheaper = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(
        std::round(5.0 * std::exp(rng.uniform() * std::log(6e4))));
    const std::size_t kn = std::min<std::size_t>(
        1 + rng.uniform_index(20), static_cast<std::size_t>(n));
    const Prices prices{rng.uniform(1.5, 10.0), rng.uniform(0.5, 3.0)};
    if (prices.edge <= prices.cloud) ++edge_cheaper;
    std::vector<double> scale(kn);
    for (double& x : scale) x = 0.01 * std::exp(rng.uniform() * std::log(1e3));
    std::sort(scale.begin(), scale.end());
    for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
      std::vector<double> budgets(kn);
      for (std::size_t k = 0; k < kn; ++k)
        budgets[k] = scale[k] * symmetric_spend(params, n, mode);
      expect_exact(params, spread_pool(budgets, n), mode, prices,
                   row("random", n, kn, mode, prices) + " trial " +
                       std::to_string(trial));
    }
  }
  EXPECT_GT(edge_cheaper, 10);
}

TEST(ShareEquation, CapBindingPoolsAreExact) {
  // Standalone pools of the budget-bound grid under caps of 30, 3 and 0.3:
  // where the cap binds and the poorest class cannot afford the symmetric
  // cap request, the surcharge and the grand total are roots.
  int cap_roots = 0;
  for (const double cap : {30.0, 3.0, 0.3}) {
    NetworkParams params;
    params.edge_capacity = cap;
    for (const int n : {40, 1000, 300000}) {
      for (const int classes : {8, 64}) {
        const std::size_t kn = static_cast<std::size_t>(std::min(classes, n));
        const double spend = symmetric_spend(params, n, EdgeMode::kStandalone);
        std::vector<double> budgets(kn);
        for (std::size_t k = 0; k < kn; ++k)
          budgets[k] = (0.05 + 3.0 * static_cast<double>(k) /
                                   static_cast<double>(kn - 1)) *
                       spend;
        const auto shape = spread_pool(budgets, n);
        for (const Prices& prices : kGridPrices) {
          const auto profile =
              FollowerOracle(params, shape, EdgeMode::kStandalone)
                  .solve(prices);
          if (!profile.cap_active) continue;
          cap_roots += profile.iterations > 0 ? 1 : 0;
          expect_exact(params, shape, EdgeMode::kStandalone, prices,
                       row("cap", n, kn, EdgeMode::kStandalone, prices) +
                           " E_max=" + std::to_string(cap));
        }
      }
    }
  }
  EXPECT_GT(cap_roots, 40);
}

// The profile with its class shape dropped: one request and utility per
// miner, as the VI reference returns.
EquilibriumProfile dense_expansion(const EquilibriumProfile& profile) {
  EquilibriumProfile dense = profile;
  dense.requests = profile.expanded();
  dense.utilities.clear();
  for (std::size_t i = 0; i < dense.requests.size(); ++i)
    dense.utilities.push_back(profile.utility(i));
  dense.classes.reset();
  return dense;
}

// `a` and `b` agree to 1e-12 relative to `scale` (the quantity's natural
// size: R for utility gaps, the budget for slacks).
void expect_close(double a, double b, double scale, const char* what) {
  EXPECT_NEAR(a, b, 1e-12 * std::max({std::abs(a), std::abs(b), scale}))
      << what;
}

void expect_same_audit(const AuditReport& a, const AuditReport& b,
                       double reward) {
  expect_close(a.best_response_gap, b.best_response_gap, reward,
               "best_response_gap");
  expect_close(a.min_budget_slack, b.min_budget_slack, 1.0,
               "min_budget_slack");
  ASSERT_EQ(a.budget_slack.size(), b.budget_slack.size());
  for (std::size_t j = 0; j < a.budget_slack.size(); ++j)
    expect_close(a.budget_slack[j], b.budget_slack[j], 1.0, "budget_slack");
  expect_close(a.capacity_violation, b.capacity_violation, 1.0,
               "capacity_violation");
  expect_close(a.monotonicity_quotient, b.monotonicity_quotient, 0.0,
               "monotonicity_quotient");
  expect_close(a.leader_gap_edge, b.leader_gap_edge, reward,
               "leader_gap_edge");
  expect_close(a.leader_gap_cloud, b.leader_gap_cloud, reward,
               "leader_gap_cloud");
}

// A shuffled 400-miner pool of four budget classes. A miner of a slack
// class spends about R/400 = 0.25, so the two poorest classes bind.
std::vector<double> shuffled_pool() {
  const double keys[4] = {0.05, 0.2, 1.0, 3.0};
  std::vector<double> budgets(400);
  for (std::size_t i = 0; i < budgets.size(); ++i) budgets[i] = keys[i % 4];
  support::Rng rng(0x61756469ULL);
  for (std::size_t i = budgets.size() - 1; i > 0; --i)
    std::swap(budgets[i], budgets[rng.uniform_index(i + 1)]);
  return budgets;
}

TEST(ClassShapedAudit, MatchesTheAuditOfItsDenseExpansion) {
  const NetworkParams params = default_params();
  Scenario scenario;
  scenario.params = params;
  scenario.budgets = shuffled_pool();
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    scenario.mode = mode;
    for (const Prices prices : {Prices{3.0, 1.0}, Prices{6.5, 2.2}}) {
      const auto profile =
          FollowerOracle(params, scenario.budgets, mode).solve(prices);
      ASSERT_TRUE(profile.class_shaped());
      for (const int audited : {0, 16}) {
        AuditOptions options;
        options.max_audited_miners = audited;
        expect_same_audit(
            audit_equilibrium(scenario, prices, profile, options),
            audit_equilibrium(scenario, prices, dense_expansion(profile),
                              options),
            params.reward);
      }
    }
  }
}

TEST(ClassShapedAudit, AShapeThatDisagreesWithTheBudgetsIsNotTrusted) {
  // The profile is solved for one pool and audited against another of the
  // same size: the leader-gap re-solves must run on the audited budgets,
  // as they do for a dense profile, not on the profile's class shape.
  const NetworkParams params = default_params();
  const Prices prices{3.0, 1.0};
  const std::vector<double> solved_for = shuffled_pool();
  Scenario scenario;
  scenario.params = params;
  scenario.budgets = solved_for;
  for (double& budget : scenario.budgets) budget *= 0.1;  // now binding
  for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
    scenario.mode = mode;
    const auto profile =
        FollowerOracle(params, solved_for, mode).solve(prices);
    AuditOptions options;
    options.max_audited_miners = 16;
    const AuditReport shaped =
        audit_equilibrium(scenario, prices, profile, options);
    expect_same_audit(shaped,
                      audit_equilibrium(scenario, prices,
                                        dense_expansion(profile), options),
                      params.reward);
    // Re-solving on the profile's own pool would give other leader gaps.
    Scenario own = scenario;
    own.budgets = solved_for;
    const AuditReport trusted =
        audit_equilibrium(own, prices, profile, options);
    EXPECT_GT(std::abs(shaped.leader_gap_edge - trusted.leader_gap_edge) +
                  std::abs(shaped.leader_gap_cloud - trusted.leader_gap_cloud),
              1e-6);
  }
}

}  // namespace
}  // namespace hecmine::core

// Tests for the SoA kernel layer (core/soa.hpp + core/kernels.hpp):
// AoS <-> SoA round-trip exactness, batch-of-one vs scalar bitwise parity,
// and parity of the batched sweeps with the class-aggregate solver on
// heterogeneous NEP/GNEP fixtures.
#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/aggregate_oracle.hpp"
#include "core/equilibrium.hpp"
#include "core/miner.hpp"
#include "core/soa.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

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

MinerEnv scalar_env(const NetworkParams& params, const Prices& prices,
                    double edge_success, double surcharge, double budget,
                    const Totals& others) {
  MinerEnv env;
  env.reward = params.reward;
  env.fork_rate = params.fork_rate;
  env.edge_success = edge_success;
  env.prices = prices;
  env.edge_surcharge = surcharge;
  env.budget = budget;
  env.others = others;
  return env;
}

TEST(MinerBatchSoA, RoundTripIsBitwiseExact) {
  support::Rng rng{7};
  std::vector<double> budgets(17);
  std::vector<MinerRequest> requests(17);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    budgets[i] = rng.uniform(0.0, 100.0);
    // Irrational-ish coordinates so any recomputation would show.
    requests[i] = {rng.uniform(0.0, 10.0) * std::sqrt(2.0),
                   rng.uniform(0.0, 10.0) * std::sqrt(3.0)};
  }
  const MinerBatch batch = make_miner_batch(budgets, requests);
  const std::vector<MinerRequest> back = extract_requests(batch);
  ASSERT_EQ(back.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(back[i].edge, requests[i].edge);    // bitwise, not approx
    EXPECT_EQ(back[i].cloud, requests[i].cloud);
    EXPECT_EQ(batch.budget[i], budgets[i]);
  }
}

TEST(MinerBatchSoA, TotalsMatchAggregateExactly) {
  support::Rng rng{11};
  std::vector<double> budgets(9, 10.0);
  std::vector<MinerRequest> requests(9);
  for (auto& request : requests)
    request = {rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)};
  const MinerBatch batch = make_miner_batch(budgets, requests);
  const Totals totals = aggregate(requests);
  // Same index-order summation: bitwise equality, not just closeness.
  EXPECT_EQ(batch.total_edge, totals.edge);
  EXPECT_EQ(batch.total_cloud, totals.cloud);
}

TEST(MinerBatchSoA, LoadRequestsRefreshesTotals) {
  MinerBatch batch = make_miner_batch({10.0, 20.0});
  EXPECT_EQ(batch.total_edge, 0.0);
  load_requests(batch, {{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(batch.total_edge, 1.0 + 3.0);
  EXPECT_EQ(batch.total_cloud, 2.0 + 4.0);
  EXPECT_THROW(load_requests(batch, {{1.0, 2.0}}),
               support::PreconditionError);
}

TEST(ScalarKernels, BitwiseMatchMinerEntryPoints) {
  // The entry points are wrappers over the kernels, so this guards the
  // wrapper contract: same inputs, identical bits, including surcharge and
  // degenerate-opponent cases.
  const NetworkParams params = default_params();
  support::Rng rng{23};
  for (int trial = 0; trial < 200; ++trial) {
    const Prices prices{rng.uniform(0.5, 4.0), rng.uniform(0.2, 2.0)};
    const double h = rng.uniform(0.1, 1.0);
    const double mu = trial % 3 == 0 ? rng.uniform(0.0, 1.0) : 0.0;
    const double budget = trial % 7 == 0 ? 0.0 : rng.uniform(1.0, 80.0);
    Totals others{rng.uniform(0.0, 30.0), rng.uniform(0.0, 50.0)};
    if (trial % 5 == 0) others.edge = 0.0;   // discontinuous sup-at-zero case
    if (trial % 11 == 0) others = {0.0, 0.0};  // epsilon-probe case
    const MinerEnv env = scalar_env(params, prices, h, mu, budget, others);
    const KernelEnv kenv = make_kernel_env(env);

    const MinerRequest br = miner_best_response(env);
    const MinerRequest kbr =
        best_response_kernel(kenv, budget, others.edge, others.grand());
    EXPECT_EQ(br.edge, kbr.edge);
    EXPECT_EQ(br.cloud, kbr.cloud);

    const MinerRequest own{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    EXPECT_EQ(miner_utility(env, own),
              utility_kernel(kenv, own.edge, own.cloud, others.edge,
                             others.grand()));
    EXPECT_EQ(miner_penalized_utility(env, own),
              penalized_utility_kernel(kenv, own.edge, own.cloud, others.edge,
                                       others.grand()));
    if (others.grand() + own.total() > 0.0) {
      const auto [du_de, du_dc] = miner_utility_gradient(env, own);
      double ke = 0.0;
      double kc = 0.0;
      gradient_kernel(kenv, own.edge, own.cloud, others.edge, others.grand(),
                      ke, kc);
      EXPECT_EQ(du_de, ke);
      EXPECT_EQ(du_dc, kc);
    }
  }
}

TEST(BatchSweeps, NepParityWithLegacySweepHeterogeneous) {
  // Theorem 2 uniqueness: the batched Gauss-Seidel sweep and the
  // class-aggregate solver (one class per miner here) must land on the
  // same equilibrium.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{5.0, 12.5, 20.0, 35.0, 60.0, 90.0};
  const auto eq_batched = solve_connected_nep(params, prices, budgets);
  const auto eq_classes =
      ClassAggregateOracle(params, budgets, EdgeMode::kConnected)
          .solve(prices);
  ASSERT_TRUE(eq_batched.converged);
  ASSERT_TRUE(eq_classes.converged);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(eq_batched.requests[i].edge, eq_classes.request(i).edge, 1e-6);
    EXPECT_NEAR(eq_batched.requests[i].cloud, eq_classes.request(i).cloud,
                1e-6);
    EXPECT_NEAR(eq_batched.utilities[i], eq_classes.utility(i), 1e-4);
  }
  EXPECT_NEAR(miner_exploitability(params, prices, budgets,
                                   eq_batched.requests, true),
              0.0, 1e-5);
}

TEST(BatchSweeps, GnepParityWithLegacyDecompositionHeterogeneous) {
  // Tight capacity so the surcharge bisection actually runs in both the
  // batched decomposition and the class-aggregate solver.
  NetworkParams params = default_params();
  params.edge_capacity = 4.0;
  const Prices prices{1.6, 1.0};
  const std::vector<double> budgets{8.0, 15.0, 30.0, 55.0};
  const auto eq_batched = solve_standalone_gnep(params, prices, budgets);
  const auto eq_classes =
      ClassAggregateOracle(params, budgets, EdgeMode::kStandalone)
          .solve(prices);
  ASSERT_TRUE(eq_batched.converged);
  ASSERT_TRUE(eq_classes.converged);
  EXPECT_EQ(eq_batched.cap_active, eq_classes.cap_active);
  EXPECT_NEAR(eq_batched.surcharge, eq_classes.surcharge,
              1e-4 * (1.0 + eq_classes.surcharge));
  EXPECT_NEAR(eq_batched.totals.edge, eq_classes.totals.edge, 1e-5);
  EXPECT_LE(eq_batched.totals.edge, params.edge_capacity * (1.0 + 1e-6));
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(eq_batched.requests[i].edge, eq_classes.request(i).edge,
                1e-4);
    EXPECT_NEAR(eq_batched.requests[i].cloud, eq_classes.request(i).cloud,
                1e-4);
  }
}

TEST(BatchSweeps, InvalidOptionsThrow) {
  const NetworkParams params = default_params();
  const KernelEnv env = make_kernel_env(params, {2.0, 1.0}, 0.9, 0.0);
  MinerBatch batch = make_miner_batch({10.0, 20.0});
  MinerSolveOptions options;
  options.damping = 0.0;
  EXPECT_THROW(solve_nep_batch(env, batch, options, {"t", 2.0, 1.0}),
               support::PreconditionError);
}

TEST(BatchSweeps, ConcurrentBatchSolvesAgree) {
  // The drivers share no mutable state across batches; concurrent solves
  // (as the leader-stage price scans issue) must be race-free and
  // deterministic. Run under TSan via the `tsan` label.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{10.0, 20.0, 30.0, 40.0};
  const MinerSolveOptions options;
  const auto solve_once = [&] {
    return solve_connected_nep(params, prices, budgets, options);
  };
  const MinerEquilibrium reference = solve_once();
  std::vector<MinerEquilibrium> results(4);
  std::vector<std::thread> workers;
  workers.reserve(results.size());
  for (auto& slot : results)
    workers.emplace_back([&, out = &slot] { *out = solve_once(); });
  for (auto& worker : workers) worker.join();
  for (const MinerEquilibrium& eq : results) {
    ASSERT_EQ(eq.requests.size(), reference.requests.size());
    for (std::size_t i = 0; i < eq.requests.size(); ++i) {
      EXPECT_EQ(eq.requests[i].edge, reference.requests[i].edge);
      EXPECT_EQ(eq.requests[i].cloud, reference.requests[i].cloud);
    }
  }
}

TEST(KernelEnvBuilder, ValidatesAndHoistsConstants) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const KernelEnv env = make_kernel_env(params, prices, 0.9, 0.5);
  EXPECT_DOUBLE_EQ(env.effective_edge_price, 2.5);
  EXPECT_DOUBLE_EQ(env.share_coeff, 100.0 * (1.0 - 0.2));
  EXPECT_DOUBLE_EQ(env.edge_coeff, 100.0 * 0.2 * 0.9);
  EXPECT_DOUBLE_EQ(env.sigma1_sq, 0.9 * 0.2 * 100.0 / (2.5 - 1.0));
  EXPECT_DOUBLE_EQ(env.sigma2_sq, (1.0 - 0.2) * 100.0 / 1.0);
  EXPECT_THROW((void)make_kernel_env(params, {0.0, 1.0}, 0.9, 0.0),
               support::PreconditionError);
  EXPECT_THROW((void)make_kernel_env(params, prices, 0.0, 0.0),
               support::PreconditionError);
  EXPECT_THROW((void)make_kernel_env(params, prices, 0.9, -1.0),
               support::PreconditionError);
  // with_surcharge re-derives only the mu-dependent constants.
  const KernelEnv bumped = with_surcharge(env, 2.0);
  EXPECT_DOUBLE_EQ(bumped.effective_edge_price, 4.0);
  EXPECT_DOUBLE_EQ(bumped.sigma1_sq, 0.9 * 0.2 * 100.0 / (4.0 - 1.0));
  EXPECT_EQ(bumped.share_coeff, env.share_coeff);
}

}  // namespace
}  // namespace hecmine::core

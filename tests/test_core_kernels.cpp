// Tests for the kernel layer (core/kernels.hpp): scalar-wrapper bitwise
// parity, and parity of the class solver with the VI reference on
// heterogeneous NEP/GNEP fixtures.
#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/miner.hpp"
#include "core/oracle.hpp"
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
  // Theorem 2 uniqueness: the class solver (one class per miner here) and
  // the independent VI reference must land on the same equilibrium.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{5.0, 12.5, 20.0, 35.0, 60.0, 90.0};
  MinerSolveOptions vi_options;
  vi_options.vi_tolerance = 1e-11;
  const auto eq_vi = solve_followers_vi(params, prices, budgets,
                                        EdgeMode::kConnected, vi_options);
  const auto eq_classes =
      FollowerOracle(params, budgets, EdgeMode::kConnected)
          .solve(prices);
  ASSERT_TRUE(eq_vi.converged);
  ASSERT_TRUE(eq_classes.converged);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(eq_vi.request(i).edge, eq_classes.request(i).edge, 1e-6);
    EXPECT_NEAR(eq_vi.request(i).cloud, eq_classes.request(i).cloud, 1e-6);
    EXPECT_NEAR(eq_vi.utility(i), eq_classes.utility(i), 1e-4);
  }
  EXPECT_NEAR(miner_exploitability(params, prices, budgets,
                                   eq_classes.expanded(), true),
              0.0, 1e-5);
}

TEST(BatchSweeps, GnepParityWithLegacyDecompositionHeterogeneous) {
  // Tight capacity so the class solver's cap root actually runs and the
  // shared cap binds in the VI reference.
  NetworkParams params = default_params();
  params.edge_capacity = 4.0;
  const Prices prices{1.6, 1.0};
  const std::vector<double> budgets{8.0, 15.0, 30.0, 55.0};
  MinerSolveOptions vi_options;
  vi_options.vi_tolerance = 1e-11;
  const auto eq_vi = solve_followers_vi(params, prices, budgets,
                                        EdgeMode::kStandalone, vi_options);
  const auto eq_classes =
      FollowerOracle(params, budgets, EdgeMode::kStandalone)
          .solve(prices);
  ASSERT_TRUE(eq_vi.converged);
  ASSERT_TRUE(eq_classes.converged);
  EXPECT_EQ(eq_vi.cap_active, eq_classes.cap_active);
  EXPECT_NEAR(eq_vi.surcharge, eq_classes.surcharge,
              1e-4 * (1.0 + eq_classes.surcharge));
  EXPECT_NEAR(eq_vi.totals.edge, eq_classes.totals.edge, 1e-5);
  EXPECT_LE(eq_classes.totals.edge, params.edge_capacity * (1.0 + 1e-6));
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(eq_vi.request(i).edge, eq_classes.request(i).edge, 1e-4);
    EXPECT_NEAR(eq_vi.request(i).cloud, eq_classes.request(i).cloud, 1e-4);
  }
}

TEST(BatchSweeps, ConcurrentBatchSolvesAgree) {
  // The solver shares no mutable state across solves; concurrent solves
  // (as the leader-stage price scans issue) must be race-free and
  // deterministic. Run under TSan via the `tsan` label.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{10.0, 20.0, 30.0, 40.0};
  const FollowerOracle oracle(params, budgets, EdgeMode::kConnected);
  const EquilibriumProfile reference = oracle.solve(prices);
  std::vector<EquilibriumProfile> results(4);
  std::vector<std::thread> workers;
  workers.reserve(results.size());
  for (auto& slot : results)
    workers.emplace_back([&, out = &slot] { *out = oracle.solve(prices); });
  for (auto& worker : workers) worker.join();
  for (const EquilibriumProfile& eq : results) {
    ASSERT_EQ(eq.requests.size(), reference.requests.size());
    for (std::size_t k = 0; k < eq.requests.size(); ++k) {
      EXPECT_EQ(eq.requests[k].edge, reference.requests[k].edge);
      EXPECT_EQ(eq.requests[k].cloud, reference.requests[k].cloud);
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

// Micro-benchmarks (google-benchmark) for the hot paths: the miner best
// response, the follower solver on homogeneous and heterogeneous pools in
// both modes, the extragradient VI reference and the PoW race simulator.
// google-benchmark's own --benchmark_out=FILE writes the timings as JSON.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/equilibrium.hpp"
#include "core/miner.hpp"
#include "core/oracle.hpp"
#include "chain/race.hpp"
#include "support/rng.hpp"

namespace {

using namespace hecmine;

core::NetworkParams bench_params() {
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 8.0;
  params.cost_edge = 1.0;
  params.cost_cloud = 0.4;
  return params;
}

void BM_MinerBestResponse(benchmark::State& state) {
  core::MinerEnv env;
  env.reward = 100.0;
  env.fork_rate = 0.2;
  env.edge_success = 0.9;
  env.prices = {2.0, 1.0};
  env.budget = 40.0;
  env.others = {10.0, 20.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::miner_best_response(env));
  }
}
BENCHMARK(BM_MinerBestResponse);

/// Distinct budgets 20, 30, ...: one class per miner (K = N).
std::vector<double> distinct_budgets(std::int64_t n) {
  std::vector<double> budgets(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < budgets.size(); ++i)
    budgets[i] = 20.0 + 10.0 * static_cast<double>(i);
  return budgets;
}

void BM_ConnectedFollowerSolve(benchmark::State& state) {
  const core::FollowerOracle oracle(bench_params(),
                                    distinct_budgets(state.range(0)),
                                    core::EdgeMode::kConnected);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve({2.0, 1.0}));
  }
}
BENCHMARK(BM_ConnectedFollowerSolve)->Arg(3)->Arg(5)->Arg(10);

void BM_HomogeneousFollowerSolve(benchmark::State& state) {
  const core::FollowerOracle oracle(bench_params(), 40.0, 5,
                                    core::EdgeMode::kConnected);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve({2.0, 1.0}));
  }
}
BENCHMARK(BM_HomogeneousFollowerSolve);

void BM_StandaloneFollowerSolve(benchmark::State& state) {
  const core::FollowerOracle oracle(bench_params(),
                                    distinct_budgets(state.range(0)),
                                    core::EdgeMode::kStandalone);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve({2.0, 1.0}));
  }
}
BENCHMARK(BM_StandaloneFollowerSolve)->Arg(3)->Arg(5);

void BM_StandaloneFollowerVi(benchmark::State& state) {
  const std::vector<double> budgets(3, 40.0);
  core::MinerSolveOptions options;
  options.vi_tolerance = 1e-7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_followers_vi(
        bench_params(), {2.0, 1.0}, budgets, core::EdgeMode::kStandalone,
        options));
  }
}
BENCHMARK(BM_StandaloneFollowerVi);

void BM_PowRace(benchmark::State& state) {
  support::Rng rng{7};
  const std::vector<chain::Allocation> allocations{
      {2.0, 1.0}, {1.5, 2.5}, {1.0, 4.0}, {0.5, 0.5}, {3.0, 0.0}};
  const chain::RaceConfig config{0.2, 1.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain::run_race(allocations, config, rng));
  }
}
BENCHMARK(BM_PowRace);

}  // namespace

BENCHMARK_MAIN();

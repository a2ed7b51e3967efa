// Micro-benchmarks (google-benchmark) for the hot paths: the miner best
// response, the block response, the follower solver on homogeneous and
// heterogeneous pools in both modes, the extragradient VI reference and the
// PoW race simulator.
//
// Besides google-benchmark's console report, a collecting reporter mirrors
// the per-benchmark timings to bench_out/BENCH_micro_solvers.json in the
// hecmine.bench.v1 ledger schema so bench_compare can gate them too.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/aggregate_oracle.hpp"
#include "core/equilibrium.hpp"
#include "core/kernels.hpp"
#include "core/miner.hpp"
#include "chain/race.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/provenance.hpp"
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

void BM_BlockResponse(benchmark::State& state) {
  const core::KernelEnv env =
      core::make_kernel_env(bench_params(), {2.0, 1.0}, 0.9, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::block_response_kernel(env, 8.0, 50.0, 10.0, 30.0));
  }
}
BENCHMARK(BM_BlockResponse);

/// Distinct budgets 20, 30, ...: one class per miner (K = N).
std::vector<double> distinct_budgets(std::int64_t n) {
  std::vector<double> budgets(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < budgets.size(); ++i)
    budgets[i] = 20.0 + 10.0 * static_cast<double>(i);
  return budgets;
}

void BM_ConnectedFollowerSolve(benchmark::State& state) {
  const core::ClassAggregateOracle oracle(bench_params(),
                                          distinct_budgets(state.range(0)),
                                          core::EdgeMode::kConnected);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve({2.0, 1.0}));
  }
}
BENCHMARK(BM_ConnectedFollowerSolve)->Arg(3)->Arg(5)->Arg(10);

void BM_HomogeneousFollowerSolve(benchmark::State& state) {
  const core::ClassAggregateOracle oracle(bench_params(), 40.0, 5,
                                          core::EdgeMode::kConnected);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve({2.0, 1.0}));
  }
}
BENCHMARK(BM_HomogeneousFollowerSolve);

void BM_StandaloneFollowerSolve(benchmark::State& state) {
  const core::ClassAggregateOracle oracle(bench_params(),
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

/// Collects per-iteration runs and writes the ledger JSON. The installed
/// google-benchmark predates Run::skipped, so filtering uses run_type and
/// error_occurred. google-benchmark reports one aggregate time per
/// benchmark (no repeat samples here), so wall_ms_p50 == wall_ms.
class LedgerReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Entry entry;
      entry.label = run.benchmark_name();
      const double iterations =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      entry.wall_ms = run.real_accumulated_time / iterations * 1e3;
      entries_.push_back(std::move(entry));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  void write_json(const std::string& path,
                  const support::provenance::RunManifest& manifest) const {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    HECMINE_REQUIRE(out.good(), "cannot open " + path);
    support::json::Writer writer(out);
    writer.begin_object(support::json::Writer::kBlock);
    writer.member("schema", "hecmine.bench.v1");
    writer.member("bench", "micro_solvers");
    writer.key("manifest");
    support::provenance::write(writer, manifest);
    writer.key("runs");
    writer.begin_array(support::json::Writer::kBlock);
    for (const Entry& entry : entries_) {
      writer.begin_object();
      writer.member("label", entry.label);
      writer.member("wall_ms", entry.wall_ms);
      writer.member("wall_ms_p50", entry.wall_ms);
      writer.member("wall_ms_p95", entry.wall_ms);
      writer.end_object();
    }
    writer.end_array();
    writer.end_object();
    writer.finish();
    HECMINE_REQUIRE(out.good(), "write failed: " + path);
  }

 private:
  struct Entry {
    std::string label;
    double wall_ms = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  // Collected before benchmark::Initialize mutates argc/argv. No thread or
  // seed knobs here, so the run half records only the arguments.
  const support::provenance::RunManifest manifest =
      support::provenance::collect(1, 0, argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  LedgerReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::string path = "bench_out/BENCH_micro_solvers.json";
  reporter.write_json(path, manifest);
  std::cout << "[json] " << path << "\n";
  return 0;
}

// hecmine end-to-end benchmark: the command-line entry point.
//
//   hecmine_perfbench --workload <pricing|crowd|campaign> --seed N
//                     --seconds S --trace <0|1> [--out-dir DIR]
//
// --trace 0 is the timed run: set-up (repeated kSetupRuns times, median
// reported), then ops in closed loop for S seconds with no sink or span
// attached, then the end-to-end metrics. --trace 1 is the traced run: the
// same seeded ops, each replayed in traced variants (spans around every
// public call the benchmark makes into a layer, thread scaling, a serial
// counted pass for the work counters), then the per-layer metrics. Both
// print a human-readable report, write a hecmine.bench.v1 ledger (and the
// traced run its spans) under DIR, and end stdout with one JSON line:
// {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "support/json.hpp"
#include "support/provenance.hpp"

namespace perfbench {
namespace {

namespace json = hecmine::support::json;
namespace provenance = hecmine::support::provenance;

constexpr int kSetupRuns = 7;
constexpr std::size_t kMinTimedOps = 100;  // >= 10 ops beyond p90
constexpr std::size_t kMaxOps = 100000;
constexpr double kHardLimitSeconds = 120.0;  // loop stops here regardless
// Solver fan-out of the timed ops. On the 4-core VM this benchmark was
// tuned on, 4 and 2 threads both failed the steadiness check: the pricing
// median varied by up to 3x between runs of one seed, likely because the
// parallel scans hand out sub-millisecond batches whose latency follows how
// fast idle vCPUs wake. The traced run still measures 1, 2 and 4 threads
// (support.parallel.speedup_*).
constexpr int kSolverThreads = 1;
constexpr std::size_t kMaxPrintedFailures = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = "bench_out/perfbench";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (args.workload != "pricing" && args.workload != "crowd" &&
      args.workload != "campaign")
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (pricing | crowd | campaign)");
  return args;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

/// Peak resident set of this program (VmHWM). getrusage's ru_maxrss is not
/// used: Linux carries it across execve, so it would report the launcher's
/// peak whenever that is larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::unique_ptr<Workload> make_workload(const Args& args, int threads) {
  if (args.workload == "pricing") return make_pricing(args.seed, threads);
  if (args.workload == "crowd") return make_crowd(args.seed, threads);
  return make_campaign(args.seed, threads, args.out_dir);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

/// A per-layer metric: how the traced run's raw samples fold into it.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::function<Metric(const LayerSamples&)> fold;
};

using Fold = std::function<double(const std::vector<double>&)>;

std::function<Metric(const LayerSamples&)> fold_one(std::string input,
                                                    Fold fold) {
  return [input, fold](const LayerSamples& samples) {
    Metric metric;
    if (const std::vector<double>* values = samples.find(input)) {
      metric.value = fold(*values);
      metric.samples = values->size();
    }
    return metric;
  };
}

double mean_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}
double median_of(const std::vector<double>& v) { return median(v); }
double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

/// sum(numerator) / sum(denominator) over the ops both were measured on.
std::function<Metric(const LayerSamples&)> ratio_of_sums(std::string num,
                                                         std::string den) {
  return [num, den](const LayerSamples& samples) {
    Metric metric;
    const std::vector<double>* a = samples.find(num);
    const std::vector<double>* b = samples.find(den);
    if (a != nullptr && b != nullptr && a->size() == b->size()) {
      metric.value = std::accumulate(a->begin(), a->end(), 0.0) /
                     std::accumulate(b->begin(), b->end(), 0.0);
      metric.samples = a->size();
    }
    return metric;
  };
}

/// The per-layer catalog. Inputs a workload does not exercise stay 0.
const std::vector<LayerMetric>& layer_catalog() {
  static const std::vector<LayerMetric> catalog = [] {
    std::vector<LayerMetric> c = {
        {"core.leader.rounds", "count", fold_one("leader.rounds", mean_of)},
        {"core.leader.fallback_frac", "ratio",
         fold_one("leader.fallback", mean_of)},
        {"core.leader.sequential_ms", "ms",
         fold_one("leader.sequential_ms", median_of)},
        {"core.leader.scan_ms", "ms", fold_one("leader.scan_ms", median_of)},
        {"core.leader.csp_reaction_us", "us",
         fold_one("leader.csp_reaction_us", median_of)},
        {"core.leader.follower_solves", "count",
         fold_one("leader.follower_solves", mean_of)},
        {"core.follower.solve_us.homog", "us",
         fold_one("follower.solve_us.homog", median_of)},
        {"core.follower.solve_us.hetero", "us",
         fold_one("follower.solve_us.hetero", median_of)},
        {"core.follower.solve_us.crowd", "us",
         fold_one("follower.solve_us.crowd", median_of)},
        {"core.follower.iterations", "count",
         fold_one("follower.iterations", mean_of)},
        {"core.population.bucket_ms", "ms",
         fold_one("population.bucket_ms", median_of)},
        {"core.population.build_ms", "ms",
         fold_one("population.build_ms", median_of)},
        {"core.population.classes", "count",
         fold_one("population.classes", mean_of)},
        {"core.audit.ms", "ms", fold_one("audit.ms", median_of)},
        {"core.audit.worst_violation", "utility",
         fold_one("audit.worst_violation", max_of)},
        {"support.parallel.speedup_2t", "x",
         ratio_of_sums("op_ms.threads=1", "op_ms.threads=2")},
        {"support.parallel.speedup_4t", "x",
         ratio_of_sums("op_ms.threads=1", "op_ms.threads=4")},
    };
    for (const char* field :
         {"sweeps", "best_response_evals", "utility_evals", "gradient_evals",
          "bisection_iters", "projection_clips", "convergence_checks",
          "soa_bytes_moved"}) {
      const std::string name = std::string("work.") + field;
      c.push_back({name, name == "work.soa_bytes_moved" ? "B" : "count",
                   fold_one(name, mean_of)});
    }
    const std::vector<LayerMetric> tail = {
        {"net.campaign.loop_us_per_block", "us",
         fold_one("campaign.loop_us_per_block", median_of)},
        {"net.admission.us_per_call", "us",
         fold_one("admission.us_per_call", median_of)},
        {"net.campaign.active_miners", "count",
         fold_one("campaign.active_miners", mean_of)},
        {"chain.race.us_per_call", "us",
         fold_one("race.us_per_call", median_of)},
        {"chain.blocklog.us_per_block", "us",
         fold_one("blocklog.us_per_block", median_of)},
        {"chain.blocklog.bytes_per_block", "B",
         fold_one("blocklog.bytes_per_block", mean_of)},
        {"net.monitor.us_per_block", "us",
         fold_one("monitor.us_per_block", median_of)},
        {"net.monitor.incidents", "count",
         fold_one("monitor.incidents", mean_of)},
        {"trace.overhead_frac", "ratio",
         [](const LayerSamples& samples) {
           Metric metric;
           const std::vector<double>* traced = samples.find("op.traced_ms");
           const std::vector<double>* bare = samples.find("op.untraced_ms");
           if (traced != nullptr && bare != nullptr) {
             metric.value = median(*traced) / median(*bare) - 1.0;
             metric.samples = traced->size();
           }
           return metric;
         }},
    };
    c.insert(c.end(), tail.begin(), tail.end());
    return c;
  }();
  return catalog;
}

struct RunRecord {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> latencies_ms;
  std::vector<std::uint64_t> digests;
  double wall_s = 0.0;
};

std::uint64_t run_digest(const std::vector<std::uint64_t>& digests) {
  Digest digest;
  for (const std::uint64_t d : digests) digest.add(d);
  return digest.value();
}

void write_ledger(const std::string& path, const Args& args, int threads,
                  int cpus, const provenance::RunManifest& manifest,
                  const WorkloadInfo& info, const RunRecord& run,
                  const std::vector<Metric>& metrics,
                  const std::vector<SelfTime>& layers) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  json::Writer writer(out);
  writer.begin_object(json::Writer::kBlock);
  writer.member("schema", "hecmine.bench.v1");
  writer.member("bench", "perfbench." + args.workload);
  writer.key("manifest");
  provenance::write(writer, manifest);
  writer.member("hardware_concurrency",
                static_cast<int>(std::thread::hardware_concurrency()));
  writer.member("nproc", cpus);
  writer.member("threads", threads);
  writer.key("config");
  writer.begin_object();
  writer.member("workload", args.workload);
  writer.member("seed", args.seed);
  writer.member("seconds", args.seconds);
  writer.member("traced", args.trace);
  writer.member("description", info.description);
  writer.end_object();
  if (!args.trace) {
    // One ledger row in the shape bench_compare reads.
    writer.key("runs");
    writer.begin_array(json::Writer::kBlock);
    writer.begin_object();
    writer.member("label", args.workload);
    writer.member("wall_ms", median(run.latencies_ms));
    writer.member("wall_ms_p50", median(run.latencies_ms));
    writer.member("wall_ms_p90", quantile(run.latencies_ms, 0.9));
    writer.member("converged", run.failed == 0);
    writer.end_object();
    writer.end_array();
  }
  writer.key("metrics");
  writer.begin_array(json::Writer::kBlock);
  for (const Metric& metric : metrics) {
    writer.begin_object();
    writer.member("name", metric.name);
    writer.member("unit", metric.unit);
    writer.member("value", metric.value);
    writer.member("samples", static_cast<std::uint64_t>(metric.samples));
    writer.end_object();
  }
  writer.end_array();
  if (!layers.empty()) {
    writer.key("layers");
    writer.begin_array(json::Writer::kBlock);
    for (const SelfTime& layer : layers) {
      writer.begin_object();
      writer.member("span", layer.name);
      writer.member("count", static_cast<std::uint64_t>(layer.count));
      writer.member("total_ms", layer.total_ms);
      writer.member("self_ms", layer.self_ms);
      writer.end_object();
    }
    writer.end_array();
  }
  writer.key("answers");
  writer.begin_object();
  writer.member("attempted", static_cast<std::uint64_t>(run.attempted));
  writer.member("failed", static_cast<std::uint64_t>(run.failed));
  writer.member("digest", hex64(run_digest(run.digests)));
  writer.key("op_digests");
  writer.begin_array();
  for (const std::uint64_t d : run.digests) writer.value(hex64(d));
  writer.end_array();
  writer.key("op_ms");
  writer.begin_array();
  for (const double ms : run.latencies_ms) writer.value(ms);
  writer.end_array();
  writer.end_object();
  writer.key("failures");
  writer.begin_array(json::Writer::kBlock);
  for (const std::string& failure : run.failures) writer.value(failure);
  writer.end_array();
  writer.key("notes");
  writer.begin_array(json::Writer::kBlock);
  for (const std::string& note : info.notes) writer.value(note);
  writer.end_array();
  writer.end_object();
  writer.finish();
  if (!out) throw std::runtime_error("write failed: " + path);
}

int run(const Args& args) {
  const int cpus = online_cpus();
  const int threads = kSolverThreads;
  provenance::RunManifest manifest =
      provenance::collect(threads, args.seed);
  manifest.args = {"--workload", args.workload, "--seed",
                   std::to_string(args.seed), "--trace",
                   args.trace ? "1" : "0"};
  const std::string& build = manifest.build_type;
  if (build != "Release" && build != "RelWithDebInfo" && build != "MinSizeRel")
    std::fprintf(stderr,
                 "warning: library built as '%s', not an optimised build; "
                 "timings are not comparable\n",
                 build.c_str());
  std::printf("perfbench %s seed=%llu %s run, %.0f s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "timed", args.seconds);
  std::printf("provenance: git %s, build %s, isa %s, compiler %s\n",
              manifest.git_sha.c_str(), build.c_str(), manifest.isa.c_str(),
              manifest.compiler.c_str());
  std::printf("host: nproc %d, hardware_concurrency %u, solver threads %d\n",
              cpus, std::thread::hardware_concurrency(), threads);

  // Set-up: input generation and one untimed warm-up op, repeated so the
  // reported set-up time is a median.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    const Clock::time_point start = Clock::now();
    workload = make_workload(args, threads);
    workload->setup();
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  RunRecord run;
  Tracer tracer;
  LayerSamples samples;
  const std::size_t min_ops =
      args.trace ? workload->min_traced_ops() : kMinTimedOps;
  const Clock::time_point start = Clock::now();
  for (std::size_t index = 0; index < kMaxOps; ++index) {
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (elapsed >= args.seconds && index >= min_ops) break;
    if (elapsed >= kHardLimitSeconds) break;
    const Clock::time_point op_start = Clock::now();
    OpResult op;
    try {
      op = args.trace ? workload->trace(index, tracer, samples)
                      : workload->run(index);
    } catch (const std::exception& error) {
      op.ms = ms_between(op_start, Clock::now());
      op.failures.push_back("op " + std::to_string(index) +
                            " threw: " + error.what());
    }
    ++run.attempted;
    if (!op.failures.empty()) ++run.failed;
    for (std::string& failure : op.failures)
      run.failures.push_back(std::move(failure));
    run.latencies_ms.push_back(op.ms);
    run.digests.push_back(op.digest);
  }
  run.wall_s = ms_between(start, Clock::now()) / 1e3;
  if (run.attempted < min_ops)
    std::fprintf(stderr,
                 "warning: only %zu ops completed within %.0f s (wanted %zu)\n",
                 run.attempted, kHardLimitSeconds, min_ops);
  const WorkloadInfo info = workload->info();

  // The timed phase: op latencies only; checks ran outside it.
  const double busy_ms = std::accumulate(run.latencies_ms.begin(),
                                         run.latencies_ms.end(), 0.0);
  std::vector<Metric> metrics;
  std::vector<SelfTime> layers;
  if (!args.trace) {
    const std::size_t n = run.latencies_ms.size();
    metrics = {
        {"setup_s", "s", median(setup_s), setup_s.size()},
        {"op_ms_p50", "ms", median(run.latencies_ms), n},
        {"op_ms_p90", "ms", quantile(run.latencies_ms, 0.9), n},
        {"ops_per_s", "1/s", 1e3 * static_cast<double>(n) / busy_ms, n},
        {"peak_rss_mb", "MiB", peak_rss_mib(), 1},
    };
  } else {
    for (const LayerMetric& layer : layer_catalog()) {
      Metric metric = layer.fold(samples);
      metric.name = layer.name;
      metric.unit = layer.unit;
      metrics.push_back(metric);
    }
    layers = tracer.self_times();
  }
  // Printed alongside the contract metrics; not in the final JSON line.
  std::vector<Metric> extra = {
      {"fail_frac", "ratio",
       static_cast<double>(run.failed) / static_cast<double>(run.attempted),
       run.attempted}};
  if (!args.trace && info.units_per_op > 0.0)
    extra.push_back({"sim_blocks_per_s", "1/s",
                     1e3 * info.units_per_op *
                         static_cast<double>(run.attempted) / busy_ms,
                     run.attempted});

  std::printf("workload: %s\n", info.description.c_str());
  std::printf("ops: %zu attempted, %zu failed, %.1f s wall; answer digest %s\n",
              run.attempted, run.failed, run.wall_s,
              hex64(run_digest(run.digests)).c_str());
  for (std::size_t i = 0; i < run.failures.size() && i < kMaxPrintedFailures;
       ++i)
    std::printf("FAILED CHECK: %s\n", run.failures[i].c_str());
  if (run.failures.size() > kMaxPrintedFailures)
    std::printf("FAILED CHECK: ... %zu more\n",
                run.failures.size() - kMaxPrintedFailures);
  for (const std::string& note : info.notes)
    std::printf("note: %s\n", note.c_str());
  if (!layers.empty()) {
    std::printf("%-44s %7s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const SelfTime& layer : layers)
      std::printf("%-44s %7zu %12.3f %12.3f\n", layer.name.c_str(),
                  layer.count, layer.total_ms, layer.self_ms);
  }
  for (const std::vector<Metric>* list : {&metrics, &extra})
    for (const Metric& metric : *list)
      std::printf("metric %-34s %16.6g %-7s (n=%zu)\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(), metric.samples);

  std::vector<Metric> ledger_metrics = metrics;
  ledger_metrics.insert(ledger_metrics.end(), extra.begin(), extra.end());
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-traced" : "-timed");
  write_ledger(stem + ".json", args, threads, cpus, manifest, info, run,
               ledger_metrics, layers);
  std::printf("[json] %s.json\n", stem.c_str());
  if (args.trace) {
    tracer.write_jsonl(stem + ".spans.jsonl");
    std::printf("[spans] %s.spans.jsonl (%zu spans)\n", stem.c_str(),
                tracer.spans().size());
  }

  std::ostringstream line;
  json::Writer writer(line);
  writer.begin_object();
  writer.member("correct", run.failed == 0);
  writer.member("attempted", static_cast<std::uint64_t>(run.attempted));
  writer.member("failed", static_cast<std::uint64_t>(run.failed));
  writer.key("metrics");
  writer.begin_object();
  for (const Metric& metric : metrics) {
    writer.key(metric.name);
    writer.begin_object();
    writer.member("value", metric.value);
    writer.member("unit", metric.unit);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
  writer.finish();
  std::cout << line.str() << std::flush;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hecmine_perfbench: %s\n", error.what());
    return 2;
  }
}

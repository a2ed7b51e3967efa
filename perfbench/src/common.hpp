// Shared plumbing of the hecmine benchmark: seeded input draws, answer
// digests, the benchmark-side span tracer, and the workload interface that
// main.cpp runs in closed loop.
//
// Everything here lives in the benchmark, not in the library: spans are
// recorded around calls into the library's public entry points, never
// inside them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/prof.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point start,
                                       Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// SplitMix64 step: derives independent 64-bit streams from the seed.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Stratified draws in [0, 1): a blocked Latin hypercube. Each block of
/// kBlock consecutive indices puts exactly one point of every dimension in
/// each of the kBlock equal strata, in an order drawn independently per
/// (block, dimension) from the seed, with a seeded jitter inside the
/// stratum. Every seed gives different inputs, but any run's ops cover each
/// parameter range evenly, so a run's latency distribution does not hinge
/// on a lucky or unlucky seed.
class Strata {
 public:
  static constexpr std::size_t kBlock = 8;

  Strata(std::uint64_t seed, std::uint64_t stream)
      : key_(mix64(seed ^ mix64(stream))) {}
  /// Point `index` of dimension `dim`.
  [[nodiscard]] double at(std::size_t index, std::size_t dim) const;
  /// The same point mapped linearly onto [lo, hi).
  [[nodiscard]] double at(std::size_t index, std::size_t dim, double lo,
                          double hi) const {
    return lo + (hi - lo) * at(index, dim);
  }

 private:
  std::uint64_t key_;
};

/// FNV-1a over the exact bit patterns of an op's answers.
class Digest {
 public:
  void add(double value);
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t value);

/// One recorded call: spans of one op share `op`; `parent` is the index of
/// the enclosing span in Tracer::spans(), or -1 at the op's root.
struct Span {
  std::string name;
  std::size_t op = 0;
  int parent = -1;
  double start_ms = 0.0;  ///< since the tracer's epoch
  double end_ms = 0.0;
};

/// Self time of one span name: span time minus the time its child spans
/// cover, summed over every span of that name.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// In-memory span recorder. Spans nest by call order (the benchmark is a
/// single closed-loop client, so one open-span stack suffices); they are
/// written out only when the run ends.
class Tracer {
 public:
  Tracer();

  /// Runs `body` inside a span named `name` under the current op and
  /// returns the span's duration in milliseconds.
  template <typename Body>
  double span(const std::string& name, Body&& body) {
    const int index = open(name);
    body();
    return close(index);
  }
  void begin_op(std::size_t op) { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::vector<SelfTime> self_times() const;
  /// One JSON object per span (name, op, parent, start/end in ms).
  void write_jsonl(const std::string& path) const;

 private:
  int open(const std::string& name);
  double close(int index);

  Clock::time_point epoch_;
  std::size_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times `body` inside a span when a tracer is given, bare otherwise, so a
/// workload's timed and traced ops share one code path.
template <typename Body>
double timed_call(Tracer* tracer, const std::string& name, Body&& body) {
  if (tracer != nullptr) return tracer->span(name, body);
  const Clock::time_point start = Clock::now();
  body();
  return ms_between(start, Clock::now());
}

/// Raw per-layer samples of a traced run, keyed by metric input name;
/// main.cpp folds them into the per-layer metrics.
class LayerSamples {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  /// Adds one op's work counters as `work.<field>` samples.
  void add_work(const hecmine::support::prof::WorkCounters& work);
  [[nodiscard]] const std::vector<double>* find(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Outcome of one op: its latency, a digest of its answers, and every
/// correctness check it failed (one message each).
struct OpResult {
  double ms = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
};

/// Per-run facts a workload reports besides its op latencies.
struct WorkloadInfo {
  std::string description;  ///< one line: the inputs the run generated
  double units_per_op = 0.0;  ///< simulated blocks per op (campaign only)
  /// Findings printed but not gated, e.g. leader-optimality gaps and the
  /// known defects the workload exposes.
  std::vector<std::string> notes;
};

/// A seeded workload. main.cpp constructs it, calls setup() (input
/// generation plus one untimed warm-up op), then issues ops in closed loop:
/// op i+1 starts when op i has returned.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// Op `index` as the timed run issues it: only the op itself is inside
  /// the returned latency; its correctness checks run afterwards.
  virtual OpResult run(std::size_t index) = 0;
  /// Traced replay of op `index`: the op as run() issues it (untimed
  /// reference answer), then the traced variants, each of which must
  /// reproduce the reference digest bitwise. Returns the traced op at the
  /// run's thread count.
  virtual OpResult trace(std::size_t index, Tracer& tracer,
                         LayerSamples& samples) = 0;
  /// Ops a traced run completes at least (one full scenario cycle).
  [[nodiscard]] virtual std::size_t min_traced_ops() const { return 1; }
  [[nodiscard]] virtual WorkloadInfo info() const = 0;
};

std::unique_ptr<Workload> make_pricing(std::uint64_t seed, int threads);
std::unique_ptr<Workload> make_crowd(std::uint64_t seed, int threads);
std::unique_ptr<Workload> make_campaign(std::uint64_t seed, int threads,
                                        const std::string& out_dir);

/// Median (linear interpolation) of a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);
/// Sample quantile with linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench

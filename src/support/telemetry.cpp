#include "support/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace hecmine::support {

namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Lock-free running-minimum update (same shape for max with >).
template <typename Compare>
void atomic_extremum(std::atomic<double>& slot, double value,
                     Compare better) noexcept {
  double current = slot.load(std::memory_order_relaxed);
  while (better(value, current) &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& slot, double delta) noexcept {
  double current = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

HistogramMetric::HistogramMetric(std::vector<double> edges) : edges_(std::move(edges)) {
  HECMINE_REQUIRE(!edges_.empty(), "HistogramMetric requires at least one edge");
  HECMINE_REQUIRE(std::is_sorted(edges_.begin(), edges_.end()),
                  "HistogramMetric edges must be sorted ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(edges_.size() + 1);
  for (std::size_t i = 0; i <= edges_.size(); ++i) buckets_[i] = 0;
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void HistogramMetric::observe(double value) noexcept {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - edges_.begin());  // edges.size() = overflow
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_extremum(min_, value, std::less<double>{});
  atomic_extremum(max_, value, std::greater<double>{});
}

std::vector<std::uint64_t> HistogramMetric::counts() const {
  std::vector<std::uint64_t> out(edges_.size() + 1);
  for (std::size_t i = 0; i <= edges_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t HistogramMetric::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double HistogramMetric::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

double HistogramMetric::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double HistogramMetric::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double HistogramMetric::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double HistogramMetric::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double lo_obs = min();
  const double hi_obs = max();
  if (q <= 0.0) return lo_obs;
  if (q >= 1.0) return hi_obs;
  const auto bucket_counts = counts();
  const double target = q * static_cast<double>(n);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_counts[i]);
    if (in_bucket > 0.0 && cumulative + in_bucket >= target) {
      // Interpolate within the bucket, clamped to the observed range so
      // sparse tail buckets cannot report values outside [min, max].
      double lo = i == 0 ? lo_obs : edges_[i - 1];
      double hi = i < edges_.size() ? edges_[i] : hi_obs;
      lo = std::max(lo, lo_obs);
      hi = std::min(hi, hi_obs);
      if (hi < lo) hi = lo;
      const double fraction = (target - cumulative) / in_bucket;
      return lo + fraction * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return hi_obs;
}

std::vector<double> geometric_edges(double first, double factor, int count) {
  HECMINE_REQUIRE(first > 0.0 && factor > 1.0 && count >= 1,
                  "geometric_edges: need first > 0, factor > 1, count >= 1");
  std::vector<double> edges(static_cast<std::size_t>(count));
  double edge = first;
  for (auto& e : edges) {
    e = edge;
    edge *= factor;
  }
  return edges;
}

MetricsRegistry::Stripe& MetricsRegistry::stripe_of(std::string_view name) {
  return stripes_[std::hash<std::string_view>{}(name) % kStripes];
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Stripe& stripe = stripe_of(name);
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  auto& slot = stripe.counters[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Stripe& stripe = stripe_of(name);
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  auto& slot = stripe.gauges[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& edges) {
  Stripe& stripe = stripe_of(name);
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  auto& slot = stripe.histograms[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<HistogramMetric>(edges);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [name, counter] : stripe.counters)
      snap.counters.push_back({name, counter->value()});
    for (const auto& [name, gauge] : stripe.gauges)
      snap.gauges.push_back({name, gauge->value()});
    for (const auto& [name, histogram] : stripe.histograms) {
      HistogramSample sample;
      sample.name = name;
      sample.edges = histogram->edges();
      sample.counts = histogram->counts();
      sample.count = histogram->count();
      sample.sum = histogram->sum();
      sample.min = histogram->min();
      sample.max = histogram->max();
      sample.p50 = histogram->quantile(0.50);
      sample.p95 = histogram->quantile(0.95);
      sample.p99 = histogram->quantile(0.99);
      snap.histograms.push_back(std::move(sample));
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

SolveTrace::SolveTrace(std::size_t capacity)
    : capacity_(capacity), epoch_ns_(steady_now_ns()) {}

double SolveTrace::now_ms() const noexcept {
  return static_cast<double>(steady_now_ns() - epoch_ns_) * 1e-6;
}

int SolveTrace::begin(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  // Clock read under the lock: recorded span order IS start-time order,
  // even across threads, which the timeline exporter relies on.
  const double start = now_ms();
  const std::thread::id tid = std::this_thread::get_id();
  auto ordinal = thread_ordinals_.find(tid);
  if (ordinal == thread_ordinals_.end())
    ordinal = thread_ordinals_
                  .emplace(tid, static_cast<int>(thread_ordinals_.size()))
                  .first;
  auto& stack = open_stacks_[tid];
  Span span;
  span.name = std::string(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = stack.empty() ? -1 : stack.back();
  span.depth = static_cast<int>(stack.size());
  span.thread = ordinal->second;
  span.start_ms = start;
  // Start-of-span snapshot; end() turns it into a delta. The snapshot is
  // the *calling* thread's cumulative block, so the recorded delta is
  // same-thread inclusive work.
  if (profile_ != nullptr) span.work = profile_->local().snapshot();
  stack.push_back(span.id);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SolveTrace::end(int id) {
  if (id < 0) return;
  const double stop = now_ms();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<std::size_t>(id) >= spans_.size()) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.duration_ms = stop - span.start_ms;
  if (profile_ != nullptr)
    span.work = profile_->local().snapshot().delta_since(span.work);
  span.closed = true;
  auto& stack = open_stacks_[std::this_thread::get_id()];
  // Unwind to the ended span so a missed inner end() cannot wedge the
  // thread's parent stack.
  while (!stack.empty()) {
    const int top = stack.back();
    stack.pop_back();
    if (top == id) break;
  }
}

std::vector<SolveTrace::Span> SolveTrace::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

int SolveTrace::thread_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(thread_ordinals_.size());
}

namespace {
thread_local Telemetry* t_current_telemetry = nullptr;
}  // namespace

Telemetry* current_telemetry() noexcept { return t_current_telemetry; }

TelemetryScope::TelemetryScope(Telemetry* sink)
    : previous_(t_current_telemetry),
      previous_block_(prof::exchange_current_block(
          sink != nullptr ? &sink->work.local() : nullptr)) {
  t_current_telemetry = sink;
}

TelemetryScope::~TelemetryScope() {
  t_current_telemetry = previous_;
  prof::exchange_current_block(previous_block_);
}

namespace {

/// One iteration-log line ("hecmine.iterlog.v1" record), newline included.
void jsonl_record(std::ostream& os, const IterationProbe::Record& record) {
  json::Writer writer(os);
  writer.begin_object();
  writer.member("solver", record.solver);
  writer.member("solve", record.solve);
  writer.member("iteration", record.iteration);
  writer.member("residual", record.residual);
  writer.member("tolerance", record.tolerance);
  writer.member("price_edge", record.price_edge);
  writer.member("price_cloud", record.price_cloud);
  writer.member("total_edge", record.total_edge);
  writer.member("total_cloud", record.total_cloud);
  writer.member("step", record.step);
  writer.member("cap_active", record.cap_active);
  writer.end_object();
  writer.finish();
}

}  // namespace

DomainTimeline::DomainTimeline(std::size_t capacity) : capacity_(capacity) {}

void DomainTimeline::counter(std::string_view name, double t_ms,
                             double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counters_.push_back(CounterSample{std::string(name), t_ms, value});
}

void DomainTimeline::span(std::string_view name, double start_ms,
                          double duration_ms, std::int64_t index,
                          std::int64_t owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(Span{std::string(name), start_ms, duration_ms, index,
                        owner});
}

std::vector<DomainTimeline::CounterSample> DomainTimeline::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::vector<DomainTimeline::Span> DomainTimeline::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool DomainTimeline::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.empty() && spans_.empty();
}

IterationProbe::IterationProbe(std::size_t capacity) : capacity_(capacity) {
  HECMINE_REQUIRE(capacity_ >= 1, "IterationProbe requires capacity >= 1");
}

IterationProbe::~IterationProbe() = default;

void IterationProbe::arm() noexcept {
  armed_.store(true, std::memory_order_relaxed);
}

void IterationProbe::stream_to(const std::string& path,
                               const provenance::RunManifest* manifest) {
  const std::filesystem::path file_path{path};
  if (file_path.has_parent_path())
    std::filesystem::create_directories(file_path.parent_path());
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stream_path_ = path;
    stream_manifest_ = manifest;
    stream_.reset();
  }
  arm();
}

void IterationProbe::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stream_ != nullptr) stream_->flush();
}

void IterationProbe::record(const Record& record) {
  if (!armed()) return;
  total_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[head_] = record;
    head_ = (head_ + 1) % capacity_;
  }
  if (stream_path_.empty()) return;
  if (stream_ == nullptr) {
    auto out = std::make_unique<std::ofstream>(stream_path_);
    HECMINE_REQUIRE(out->good(), "cannot open iteration log: " + stream_path_);
    json::Writer writer(*out);
    writer.begin_object();
    writer.member("schema", "hecmine.iterlog.v1");
    if (stream_manifest_ != nullptr) {
      writer.key("manifest");
      provenance::write(writer, *stream_manifest_);
    }
    writer.end_object();
    writer.finish();
    HECMINE_REQUIRE(out->good(),
                    "failed writing iteration log: " + stream_path_);
    stream_ = std::move(out);
  }
  jsonl_record(*stream_, record);
}

std::vector<IterationProbe::Record> IterationProbe::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  out.reserve(ring_.size());
  // head_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::uint64_t IterationProbe::overwritten() const {
  const std::uint64_t recorded = total();
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded - ring_.size();
}

namespace {

/// Shared by to_json and the flight recorder: the registry snapshot as
/// "counters"/"gauges"/"histograms" members of the writer's open object.
/// `full` additionally emits per-histogram edges/counts/min/max.
void write_metrics(json::Writer& writer, const MetricsSnapshot& snap,
                   bool full) {
  writer.key("counters");
  writer.begin_object(full ? json::Writer::kBlock : json::Writer::kCompact);
  for (const CounterSample& counter : snap.counters)
    writer.member(counter.name, counter.value);
  writer.end_object();

  writer.key("gauges");
  writer.begin_object(full ? json::Writer::kBlock : json::Writer::kCompact);
  for (const GaugeSample& gauge : snap.gauges)
    writer.member(gauge.name, gauge.value);
  writer.end_object();

  writer.key("histograms");
  writer.begin_object(full ? json::Writer::kBlock : json::Writer::kCompact);
  for (const HistogramSample& histogram : snap.histograms) {
    writer.key(histogram.name);
    writer.begin_object();
    if (full) {
      writer.key("edges");
      writer.begin_array();
      for (double edge : histogram.edges) writer.value(edge);
      writer.end_array();
      writer.key("counts");
      writer.begin_array();
      for (std::uint64_t bucket : histogram.counts) writer.value(bucket);
      writer.end_array();
    }
    writer.member("count", histogram.count);
    writer.member("sum", histogram.sum);
    if (full) {
      writer.member("min", histogram.min);
      writer.member("max", histogram.max);
    }
    writer.member("p50", histogram.p50);
    writer.member("p95", histogram.p95);
    writer.member("p99", histogram.p99);
    writer.end_object();
  }
  writer.end_object();
}

/// One WorkCounters object. `all_fields` emits every field (the stable
/// taxonomy shape); otherwise only nonzero fields (per-span deltas).
void write_work(json::Writer& writer, const prof::WorkCounters& work,
                bool all_fields) {
  writer.begin_object();
  for (std::size_t i = 0; i < prof::kWorkFieldCount; ++i) {
    const auto field = static_cast<prof::WorkField>(i);
    if (all_fields || work[field] != 0)
      writer.member(prof::work_field_name(field), work[field]);
  }
  writer.end_object();
}

}  // namespace

std::string to_json(const Telemetry& telemetry) {
  const MetricsSnapshot snap = telemetry.metrics.snapshot();
  const auto spans = telemetry.trace.snapshot();
  std::ostringstream os;
  json::Writer writer(os);
  writer.begin_object(json::Writer::kBlock);
  writer.member("schema", "hecmine.telemetry.v1");
  writer.key("manifest");
  provenance::write(writer, telemetry.manifest);
  write_metrics(writer, snap, /*full=*/true);
  // Deterministic work totals (field-wise sum of every thread's block):
  // the full taxonomy, zeros included, so the shape is seed-stable.
  writer.key("work");
  write_work(writer, telemetry.work.total(), /*all_fields=*/true);
  writer.key("trace");
  writer.begin_object(json::Writer::kBlock);
  writer.member("dropped", telemetry.trace.dropped());
  writer.member("threads", telemetry.trace.thread_count());
  writer.key("spans");
  writer.begin_array(json::Writer::kBlock);
  for (const SolveTrace::Span& span : spans) {
    writer.begin_object();
    writer.member("name", span.name);
    writer.member("id", span.id);
    writer.member("parent", span.parent);
    writer.member("depth", span.depth);
    writer.member("thread", span.thread);
    writer.member("start_ms", span.start_ms);
    writer.member("duration_ms", span.duration_ms);
    if (span.closed && span.work.any()) {
      writer.key("work");
      write_work(writer, span.work, /*all_fields=*/false);
    }
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
  writer.end_object();
  writer.finish();
  return os.str();
}

void write_json(const Telemetry& telemetry, const std::string& path) {
  const std::filesystem::path file_path{path};
  if (file_path.has_parent_path())
    std::filesystem::create_directories(file_path.parent_path());
  std::ofstream out{file_path};
  HECMINE_REQUIRE(out.good(), "cannot open telemetry file: " + path);
  out << to_json(telemetry);
  HECMINE_REQUIRE(out.good(), "failed writing telemetry file: " + path);
}

std::string to_chrome_trace(const Telemetry& telemetry) {
  const auto spans = telemetry.trace.snapshot();
  const int threads = telemetry.trace.thread_count();
  std::ostringstream os;
  json::Writer writer(os);
  writer.begin_object(json::Writer::kBlock);
  writer.member("schema", "hecmine.trace.v1");
  writer.member("displayTimeUnit", "ms");
  writer.key("manifest");
  provenance::write(writer, telemetry.manifest);
  writer.member("dropped", telemetry.trace.dropped());
  writer.member("domain_dropped", telemetry.timeline.dropped());
  writer.key("traceEvents");
  writer.begin_array(json::Writer::kBlock);
  // Metadata events name the process and one track per recording thread;
  // track ids are the trace's dense thread ordinals (0 = issuer).
  writer.begin_object();
  writer.member("ph", "M");
  writer.member("name", "process_name");
  writer.member("pid", 1);
  writer.member("tid", 0);
  writer.key("args");
  writer.begin_object();
  writer.member("name", "hecmine");
  writer.end_object();
  writer.end_object();
  for (int track = 0; track < threads; ++track) {
    writer.begin_object();
    writer.member("ph", "M");
    writer.member("name", "thread_name");
    writer.member("pid", 1);
    writer.member("tid", track);
    writer.key("args");
    writer.begin_object();
    writer.member("name", track == 0
                              ? std::string("issuer (t0)")
                              : "worker (t" + std::to_string(track) + ")");
    writer.end_object();
    writer.end_object();
  }
  // One complete ("X") event per span; ts/dur are microseconds on the
  // trace's monotonic clock, the Trace Event format's native unit. Spans
  // that recorded work carry the deltas in args (`hecmine_report prof`
  // reads them back for the hot-path table).
  for (const SolveTrace::Span& span : spans) {
    writer.begin_object();
    writer.member("ph", "X");
    writer.member("name", span.name);
    writer.member("cat", "solve");
    writer.member("pid", 1);
    writer.member("tid", span.thread);
    writer.member("ts", span.start_ms * 1000.0);
    writer.member("dur", span.duration_ms * 1000.0);
    writer.key("args");
    writer.begin_object();
    writer.member("id", span.id);
    writer.member("parent", span.parent);
    writer.member("depth", span.depth);
    if (span.closed && span.work.any()) {
      writer.key("work");
      write_work(writer, span.work, /*all_fields=*/false);
    }
    writer.end_object();
    writer.end_object();
  }
  // Perfetto counter tracks: one "C" series per (thread, work field),
  // stepping to the thread's cumulative count at each span close. Span
  // work deltas are same-thread *inclusive*, so the staircase sums each
  // span's exclusive share (delta minus its direct children's deltas —
  // children are always same-thread by construction) in close-time order;
  // that keeps every track monotone with no double counting.
  {
    std::vector<prof::WorkCounters> exclusive(spans.size());
    for (const SolveTrace::Span& span : spans)
      if (span.closed) exclusive[static_cast<std::size_t>(span.id)] = span.work;
    for (const SolveTrace::Span& span : spans) {
      if (!span.closed || span.parent < 0 ||
          !spans[static_cast<std::size_t>(span.parent)].closed)
        continue;
      // Nested same-thread intervals of monotone counters: the child's
      // delta never exceeds the parent's, so this cannot underflow.
      prof::WorkCounters& parent = exclusive[static_cast<std::size_t>(span.parent)];
      parent = parent.delta_since(span.work);
    }
    std::vector<std::size_t> by_close;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].closed && exclusive[i].any()) by_close.push_back(i);
    std::sort(by_close.begin(), by_close.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start_ms + spans[a].duration_ms <
             spans[b].start_ms + spans[b].duration_ms;
    });
    std::unordered_map<int, prof::WorkCounters> cumulative;
    for (const std::size_t index : by_close) {
      const SolveTrace::Span& span = spans[index];
      prof::WorkCounters& track = cumulative[span.thread];
      track += exclusive[index];
      for (std::size_t i = 0; i < prof::kWorkFieldCount; ++i) {
        const auto field = static_cast<prof::WorkField>(i);
        if (exclusive[index][field] == 0) continue;
        writer.begin_object();
        writer.member("ph", "C");
        writer.member("name", std::string("work.") + prof::work_field_name(field) +
                                  " (t" + std::to_string(span.thread) + ")");
        writer.member("pid", 1);
        writer.member("tid", span.thread);
        writer.member("ts", (span.start_ms + span.duration_ms) * 1000.0);
        writer.key("args");
        writer.begin_object();
        writer.member("value", track[field]);
        writer.end_object();
        writer.end_object();
      }
    }
  }
  // Domain (sim-time) process: campaign block spans and counter series on
  // pid 2, all timestamps simulated — deterministic for a fixed seed.
  {
    const auto domain_spans = telemetry.timeline.spans();
    const auto domain_counters = telemetry.timeline.counters();
    if (!domain_spans.empty() || !domain_counters.empty()) {
      writer.begin_object();
      writer.member("ph", "M");
      writer.member("name", "process_name");
      writer.member("pid", 2);
      writer.member("tid", 0);
      writer.key("args");
      writer.begin_object();
      writer.member("name", "hecmine sim");
      writer.end_object();
      writer.end_object();
      writer.begin_object();
      writer.member("ph", "M");
      writer.member("name", "thread_name");
      writer.member("pid", 2);
      writer.member("tid", 0);
      writer.key("args");
      writer.begin_object();
      writer.member("name", "campaign (sim time)");
      writer.end_object();
      writer.end_object();
      for (const DomainTimeline::Span& span : domain_spans) {
        writer.begin_object();
        writer.member("ph", "X");
        writer.member("name", span.name);
        writer.member("cat", "campaign");
        writer.member("pid", 2);
        writer.member("tid", 0);
        writer.member("ts", span.start_ms * 1000.0);
        writer.member("dur", span.duration_ms * 1000.0);
        writer.key("args");
        writer.begin_object();
        writer.member("index", span.index);
        writer.member("owner", span.owner);
        writer.end_object();
        writer.end_object();
      }
      for (const DomainTimeline::CounterSample& sample : domain_counters) {
        writer.begin_object();
        writer.member("ph", "C");
        writer.member("name", sample.name);
        writer.member("pid", 2);
        writer.member("tid", 0);
        writer.member("ts", sample.t_ms * 1000.0);
        writer.key("args");
        writer.begin_object();
        writer.member("value", sample.value);
        writer.end_object();
        writer.end_object();
      }
    }
  }
  writer.end_array();
  writer.end_object();
  writer.finish();
  return os.str();
}

void write_chrome_trace(const Telemetry& telemetry, const std::string& path) {
  const std::filesystem::path file_path{path};
  if (file_path.has_parent_path())
    std::filesystem::create_directories(file_path.parent_path());
  std::ofstream out{file_path};
  HECMINE_REQUIRE(out.good(), "cannot open trace file: " + path);
  out << to_chrome_trace(telemetry);
  HECMINE_REQUIRE(out.good(), "failed writing trace file: " + path);
}

void print_summary(std::ostream& os, const Telemetry& telemetry) {
  const MetricsSnapshot snap = telemetry.metrics.snapshot();
  const prof::WorkCounters work = telemetry.work.total();
  if (work.any()) {
    Table table("work counter", {"count"});
    for (std::size_t i = 0; i < prof::kWorkFieldCount; ++i) {
      const auto field = static_cast<prof::WorkField>(i);
      if (work[field] != 0)
        table.add_row(prof::work_field_name(field),
                      {static_cast<double>(work[field])});
    }
    print_section(os, "telemetry: work counters");
    table.print(os, 0);
  }
  if (!snap.counters.empty()) {
    Table table("counter", {"value"});
    for (const auto& sample : snap.counters)
      table.add_row(sample.name, {static_cast<double>(sample.value)});
    print_section(os, "telemetry: counters");
    table.print(os, 0);
  }
  if (!snap.gauges.empty()) {
    Table table("gauge", {"value"});
    for (const auto& sample : snap.gauges)
      table.add_row(sample.name, {sample.value});
    print_section(os, "telemetry: gauges");
    table.print(os, 4);
  }
  if (!snap.histograms.empty()) {
    Table table("histogram", {"count", "mean", "p50", "p95", "p99", "min", "max"});
    for (const auto& sample : snap.histograms) {
      const double n = static_cast<double>(sample.count);
      table.add_row(sample.name,
                    {n, sample.count == 0 ? 0.0 : sample.sum / n, sample.p50,
                     sample.p95, sample.p99, sample.min, sample.max});
    }
    print_section(os, "telemetry: histograms");
    table.print(os, 4);
  }
  const auto spans = telemetry.trace.snapshot();
  if (!spans.empty()) {
    print_section(os, "telemetry: solve trace");
    for (const auto& span : spans) {
      os << std::string(2 * static_cast<std::size_t>(span.depth), ' ')
         << span.name << "  " << span.duration_ms << " ms\n";
    }
    if (telemetry.trace.dropped() > 0)
      os << "(" << telemetry.trace.dropped() << " spans dropped at capacity)\n";
  }
}

TelemetryFlusher::TelemetryFlusher(const Telemetry& sink,
                                   const std::string& path)
    : TelemetryFlusher(sink, path, Options{}) {}

TelemetryFlusher::TelemetryFlusher(const Telemetry& sink,
                                   const std::string& path, Options options)
    : sink_(sink),
      path_(path),
      options_(options),
      epoch_(std::chrono::steady_clock::now()) {
  HECMINE_REQUIRE(options_.interval.count() > 0,
                  "TelemetryFlusher requires a positive interval");
  const std::filesystem::path file_path{path_};
  if (file_path.has_parent_path())
    std::filesystem::create_directories(file_path.parent_path());
  stream_ = std::make_unique<std::ofstream>(file_path);
  HECMINE_REQUIRE(stream_->good(), "cannot open flight recorder: " + path_);
  write_header();
  thread_ = std::thread([this] { run(); });
}

TelemetryFlusher::~TelemetryFlusher() {
  try {
    stop();
  } catch (...) {
    // A failing final flush must not terminate during unwinding; the
    // already-flushed prefix is the flight recorder's whole point.
  }
}

void TelemetryFlusher::write_header() {
  // Caller holds mutex_ (or the flusher thread has not started yet).
  std::ostringstream buffer;
  json::Writer writer(buffer);
  writer.begin_object();
  writer.member("schema", "hecmine.flight.v1");
  writer.key("manifest");
  provenance::write(writer, sink_.manifest);
  writer.end_object();
  writer.finish();
  const std::string line = buffer.str();
  *stream_ << line;
  stream_->flush();
  HECMINE_REQUIRE(stream_->good(), "failed writing flight recorder: " + path_);
  bytes_ += line.size();
}

void TelemetryFlusher::maybe_rotate() {
  // Caller holds mutex_.
  if (bytes_ <= options_.max_bytes) return;
  stream_->close();
  // Best-effort rename: a failed rotation (exotic filesystem) just means
  // the old generation is overwritten instead of preserved.
  std::error_code ec;
  std::filesystem::rename(path_, path_ + ".1", ec);
  stream_ = std::make_unique<std::ofstream>(std::filesystem::path{path_});
  HECMINE_REQUIRE(stream_->good(), "cannot reopen flight recorder: " + path_);
  bytes_ = 0;
  write_header();
  rotations_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryFlusher::set_event_drain(EventDrain drain) {
  const std::lock_guard<std::mutex> lock(mutex_);
  event_drain_ = std::move(drain);
}

void TelemetryFlusher::flush_now() {
  const MetricsSnapshot snap = sink_.metrics.snapshot();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stream_ == nullptr) return;  // already stopped
  if (event_drain_) {
    for (const std::string& event : event_drain_()) {
      *stream_ << event << '\n';
      bytes_ += event.size() + 1;
    }
  }
  std::ostringstream buffer;
  json::Writer writer(buffer);
  writer.begin_object();
  writer.member("seq", flushes_.load(std::memory_order_relaxed));
  writer.member("uptime_ms",
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - epoch_)
                    .count());
  write_metrics(writer, snap, /*full=*/false);
  writer.end_object();
  writer.finish();
  const std::string line = buffer.str();
  *stream_ << line;
  // Flushed per line so a killed run still leaves every completed
  // snapshot on disk.
  stream_->flush();
  HECMINE_REQUIRE(stream_->good(), "failed writing flight recorder: " + path_);
  bytes_ += line.size();
  flushes_.fetch_add(1, std::memory_order_relaxed);
  maybe_rotate();
}

void TelemetryFlusher::stop() {
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final flush so the last line always reflects the end of the run, then
  // release the stream (turns later flush_now() calls into no-ops).
  flush_now();
  const std::lock_guard<std::mutex> lock(mutex_);
  stream_.reset();
}

void TelemetryFlusher::run() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (!stopping_) {
    if (wake_.wait_for(lock, options_.interval, [this] { return stopping_; }))
      break;
    lock.unlock();
    flush_now();
    lock.lock();
  }
}

}  // namespace hecmine::support

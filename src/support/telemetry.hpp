// Telemetry: first-class counters, timers and solve traces for the solver
// stack.
//
// Everything the solvers compute about their own behaviour — convergence
// iterations, VI residual progress, per-phase wall time — used to be
// thrown away at the end of a solve. This header makes those numbers
// first-class so every perf or robustness claim can be made from a
// machine-readable profile instead of a stopwatch:
//
//   * MetricsRegistry — named monotonic Counters, Gauges and fixed-bucket
//     Histograms. The registry is lock-striped: a name is resolved to its
//     instrument under one of kStripes stripe mutexes, and the instruments
//     themselves are lock-free atomics, so the PR-1 thread pool never
//     serializes on telemetry. Handles returned by counter()/gauge()/
//     histogram() stay valid for the registry's lifetime — hot paths
//     resolve once and increment through the reference.
//   * SolveTrace — a capacity-bounded span recorder capturing the phase
//     tree of a solve at stage boundaries (leader stage -> its phases ->
//     leader rounds and pool tasks); a follower solve, well under a
//     microsecond, opens no span. Spans nest per thread; spans begun past
//     the capacity are counted as dropped rather than recorded.
//   * Telemetry — one sink bundling a registry and a trace. A nullable
//     `Telemetry*` rides in core::SolveContext; every instrumentation site
//     guards on it, so an absent sink costs one pointer test.
//   * TelemetryFlusher — the run's one JSONL stream (flight.jsonl): timed
//     snapshots of the sink, plus the iteration records of the solver
//     loops and the campaign monitor's incidents, each written as it
//     happens through the sink's nullable `stream` pointer.
//   * to_chrome_trace / print_summary — the Perfetto timeline and a
//     human-readable summary built on support::Table.
//
// Deep layers (the VI extragradient loop, the class solver) cannot see a
// SolveContext, so the sink also propagates through a
// thread-local: TelemetryScope installs a sink for the current thread and
// current_telemetry() reads it back. The leader stage and the pool's tasks
// install it once per stage and per task, and the instrumented follower
// oracle installs it around a solve run outside them — which is how work
// counts reach the sink without threading a pointer through every numeric
// call signature.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/prof.hpp"
#include "support/provenance.hpp"

namespace hecmine::support {

/// Monotonic event counter. add() is lock-free; never decreases.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (cache hit rate, episode reward, ...), or a
/// running maximum through raise_to(). set(), add() and raise_to() are
/// lock-free.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  /// Raises the value to `value` when that is larger: one relaxed load and
  /// compare, and a CAS only on a new maximum. A maximum does not depend
  /// on the order of the calls, so it is thread-count invariant.
  void raise_to(double value) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= edges[i]; one
/// implicit overflow bucket catches the rest. Edges are fixed at creation
/// (first registration wins), observations are lock-free.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> edges);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& edges() const noexcept {
    return edges_;
  }
  /// Bucket counts; size edges().size() + 1 (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  /// Smallest / largest observation (0 when empty).
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// Percentile estimate by linear interpolation inside the bucket holding
  /// rank q*count. Exact at the observed min/max (q <= 0 / q >= 1); inside a
  /// bucket the error is bounded by the bucket width. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> edges_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Geometric bucket edges {first, first*factor, ...} of length `count` —
/// the usual shape for iteration counts and wall-time histograms.
[[nodiscard]] std::vector<double> geometric_edges(double first, double factor,
                                                  int count);

/// One exported instrument value (see MetricsSnapshot).
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;  ///< edges.size() + 1, last = overflow
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  ///< interpolated percentile estimates (see quantile())
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every registered instrument, sorted by name so
/// exports are deterministic.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Thread-safe named-instrument registry. Lookup takes one stripe mutex
/// (striped by name hash); the returned references are stable for the
/// registry's lifetime and their operations are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// HistogramMetric under `name`; `edges` is consulted only on first
  /// registration (later calls with different edges get the original).
  [[nodiscard]] HistogramMetric& histogram(std::string_view name,
                                     const std::vector<double>& edges);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
    std::unordered_map<std::string, std::unique_ptr<HistogramMetric>> histograms;
  };
  [[nodiscard]] Stripe& stripe_of(std::string_view name);

  std::array<Stripe, kStripes> stripes_;
};

/// Capacity-bounded span recorder for the phase tree of a solve. begin()
/// opens a span whose parent is the innermost open span *on the same
/// thread* (so coarse phases spanned on the calling thread nest naturally,
/// and spans opened on pool workers become roots); end() closes it. Spans
/// past `capacity` are dropped and counted, never silently lost.
class SolveTrace {
 public:
  /// One recorded phase. Times are milliseconds on the monotonic
  /// (steady) clock since trace construction, read under the trace lock so
  /// the recorded span order IS start-time order; `thread` is a dense
  /// per-trace ordinal (0 = first thread ever to open a span, usually the
  /// constructing thread) that becomes the timeline track id.
  struct Span {
    std::string name;
    int id = -1;
    int parent = -1;  ///< index into the span vector, -1 = root
    int depth = 0;
    int thread = 0;   ///< dense thread ordinal (timeline track)
    double start_ms = 0.0;
    double duration_ms = 0.0;  ///< 0 while still open
    bool closed = false;       ///< end() reached (work delta valid)
    /// Work performed *on the span's own thread* between begin() and
    /// end() (holds the start-of-span cumulative snapshot while open).
    /// Same-thread inclusive: nested same-thread spans count the same
    /// work; spans dispatched to other threads do not.
    prof::WorkCounters work;
  };

  explicit SolveTrace(std::size_t capacity = 4096);

  /// Opens a span; returns its id, or -1 when the trace is full (the drop
  /// is counted and end(-1) is a no-op).
  [[nodiscard]] int begin(std::string_view name);
  void end(int id);

  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Distinct threads that have opened at least one span.
  [[nodiscard]] int thread_count() const;

  /// Attaches the work profile whose per-thread counters begin()/end()
  /// snapshot to attribute work to spans (Telemetry wires its own).
  void set_work_profile(prof::WorkProfile* profile) noexcept {
    profile_ = profile;
  }

  /// RAII span; tolerates a null trace (records nothing).
  class Scope {
   public:
    Scope(SolveTrace* trace, std::string_view name)
        : trace_(trace), id_(trace ? trace->begin(name) : -1) {}
    ~Scope() {
      if (trace_ != nullptr) trace_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SolveTrace* trace_;
    int id_;
  };

 private:
  [[nodiscard]] double now_ms() const noexcept;

  const std::size_t capacity_;
  const std::uint64_t epoch_ns_;
  prof::WorkProfile* profile_ = nullptr;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::unordered_map<std::thread::id, std::vector<int>> open_stacks_;
  std::unordered_map<std::thread::id, int> thread_ordinals_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Capacity-bounded domain timeline: counter samples and spans stamped
/// with *simulated* time instead of the wall clock. The campaign / chain
/// layers feed it (per-block spans, difficulty / orphan-rate / queue-depth
/// series) and to_chrome_trace renders it as its own Perfetto process
/// (pid 2, "campaign (sim time)") next to the wall-clock solver tracks.
/// Because every timestamp is simulated, the rendered track is
/// deterministic for a fixed seed — unlike the SolveTrace spans, which
/// read the monotonic clock. Entries past `capacity` (counters and spans
/// bounded independently) are dropped and counted, never silently lost.
class DomainTimeline {
 public:
  /// One point of a Perfetto counter ("C") series.
  struct CounterSample {
    std::string name;
    double t_ms = 0.0;  ///< simulated time, milliseconds
    double value = 0.0;
  };
  /// One complete ("X") span on the domain track.
  struct Span {
    std::string name;
    double start_ms = 0.0;     ///< simulated time, milliseconds
    double duration_ms = 0.0;
    std::int64_t index = -1;   ///< domain ordinal (e.g. block height)
    std::int64_t owner = -1;   ///< domain actor (e.g. winning miner)
  };

  explicit DomainTimeline(std::size_t capacity = 8192);

  void counter(std::string_view name, double t_ms, double value);
  void span(std::string_view name, double start_ms, double duration_ms,
            std::int64_t index = -1, std::int64_t owner = -1);

  [[nodiscard]] std::vector<CounterSample> counters() const;
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<CounterSample> counters_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// One iterate of a solver loop (the leader price scan, the VI
/// extragradient loop, the RL pricing loop), so a solve's trajectory, not
/// just its endpoint, is observable. Records carry no timestamps by design:
/// like the rest of the sink, they need no clock read. A loop writes them
/// only while its sink has a stream (TelemetryFlusher::record).
struct IterationRecord {
  std::string solver;        ///< loop label, e.g. "vi.extragradient"
  std::uint64_t solve = 0;   ///< TelemetryFlusher::next_solve_id of the loop
  int iteration = 0;         ///< 1-based iteration index
  double residual = 0.0;     ///< the loop's own stopping metric
  double tolerance = 0.0;    ///< the loop's own stopping tolerance (0 = unknown)
  double price_edge = 0.0;   ///< P_e in effect for this solve
  double price_cloud = 0.0;  ///< P_c in effect for this solve
  double total_edge = 0.0;   ///< aggregate edge demand E at this iterate
  double total_cloud = 0.0;  ///< aggregate cloud demand C at this iterate
  double step = 0.0;         ///< damping / step size / bisection knob
  bool cap_active = false;   ///< shared capacity constraint binding?
};

class TelemetryFlusher;

/// One telemetry sink: the metrics registry, the solve trace, the domain
/// timeline, the work profile, the run-provenance manifest embedded into
/// every export, and the run's stream while one is attached. Pass a
/// pointer down through core::SolveContext; null means "telemetry off" and
/// costs instrumentation sites a single pointer test.
class Telemetry {
 public:
  Telemetry() { trace.set_work_profile(&work); }

  MetricsRegistry metrics;
  SolveTrace trace;
  /// Sim-time campaign/chain timeline (block spans, difficulty / orphan /
  /// queue-depth counter series); empty unless a campaign layer feeds it.
  DomainTimeline timeline;
  /// Deterministic work accounting (support::prof): per-thread counter
  /// blocks installed by TelemetryScope, attributed to trace spans at
  /// span close, summed by work.total().
  prof::WorkProfile work;
  /// Embedded into to_chrome_trace and the flight-stream header.
  /// Defaults to the build/host half; callers stamp threads/seed/args
  /// (provenance::collect(threads, seed, argc, argv)).
  provenance::RunManifest manifest = provenance::collect();
  /// The run's flight stream, or null. support::RunDir points it at its
  /// flight recorder for the run's lifetime and clears it before the
  /// recorder stops, so it is set before the run's loops start and
  /// cleared after they end. Loops write their iteration records and the
  /// campaign monitor its incidents through it; null costs them one
  /// pointer test.
  TelemetryFlusher* stream = nullptr;
};

/// The thread's current sink (installed by TelemetryScope), or null.
[[nodiscard]] Telemetry* current_telemetry() noexcept;

/// Installs `sink` as the thread's current telemetry for the scope's
/// lifetime (restores the previous sink on destruction). Used by the
/// instrumented follower oracle so deep layers — the VI loop, the class
/// solver's counters — can record without seeing a SolveContext.
class TelemetryScope {
 public:
  explicit TelemetryScope(Telemetry* sink);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  Telemetry* previous_;
  prof::ThreadWorkBlock* previous_block_;
};

/// Serializes the solve trace as Chrome Trace Event JSON (schema
/// hecmine.trace.v1): one complete ("X") event per span in microseconds on
/// the trace's monotonic clock (args carry the span's work-counter deltas
/// when profiling recorded any), one track (tid) per recording thread with
/// thread_name metadata, per-thread Perfetto counter ("C") tracks named
/// "work.<field> (t<ordinal>)" stepping to the thread's cumulative count
/// at each span close, and the run manifest embedded as a top-level
/// "manifest" block. When the sink's DomainTimeline is non-empty it is
/// rendered as a second process (pid 2, "hecmine sim") whose single track
/// carries the campaign block spans and sim-time counter series. The file
/// loads directly in Perfetto / chrome://tracing; the extra top-level keys
/// are ignored there but keep the document parseable by support::json
/// readers.
[[nodiscard]] std::string to_chrome_trace(const Telemetry& telemetry);

/// Writes to_chrome_trace() to `path`, creating parent directories.
/// Throws on I/O failure.
void write_chrome_trace(const Telemetry& telemetry, const std::string& path);

/// Renders the registry and trace as aligned tables (support::Table) — the
/// end-of-run summary the benches and hecmine_cli print.
void print_summary(std::ostream& os, const Telemetry& telemetry);

/// Flight recorder: the run's one JSONL stream. The stream starts with a
/// {"schema": "hecmine.flight.v1", "manifest": {...}} header line. A
/// background thread adds one snapshot line of the sink every `interval`
/// ({"seq", "uptime_ms", "counters", "gauges", "histograms", "work"};
/// each histogram carries its edges, bucket counts, count, sum, min, max
/// and percentiles), so a long training or campaign run that crashes or is
/// killed still leaves an inspectable tail, and stop() writes the final
/// one. Between snapshots the run writes its iteration records
/// ({"kind": "iteration", ...}, see record()) and the campaign monitor's
/// hecmine.health.v1 incidents (write_line()) as they happen. Every line
/// is flushed to the OS as written. When the file grows past `max_bytes`
/// it is rotated to `<path>.1` (replacing any previous rotation) and a
/// fresh header is written, bounding disk usage at roughly two
/// generations. The recorder never touches solver hot paths: its thread
/// only *reads* the lock-free instruments.
class TelemetryFlusher {
 public:
  struct Options {
    std::chrono::milliseconds interval{500};
    /// Rotate when the current file exceeds this many bytes.
    std::size_t max_bytes = 4 * 1024 * 1024;
  };

  /// Opens `path` (parent directories created, throws on I/O failure),
  /// writes the header, and starts the flusher thread. `sink` must outlive
  /// the flusher. The two-argument form uses default Options.
  TelemetryFlusher(const Telemetry& sink, const std::string& path);
  TelemetryFlusher(const Telemetry& sink, const std::string& path,
                   Options options);
  /// Stops the thread after one final flush, so the last snapshot always
  /// reflects the end state of the run.
  ~TelemetryFlusher();
  TelemetryFlusher(const TelemetryFlusher&) = delete;
  TelemetryFlusher& operator=(const TelemetryFlusher&) = delete;

  /// Writes one snapshot line immediately (also used by the final flush).
  void flush_now();
  /// Stops the background thread (idempotent); flushes once before
  /// joining.
  void stop();

  /// Appends one serialized JSON line (newline included, as
  /// json::Writer::finish leaves it) and flushes it; a no-op once stopped.
  /// Throws on I/O failure.
  void write_line(std::string_view line);
  /// Appends `record` as one {"kind": "iteration", ...} line (write_line).
  void record(const IterationRecord& record);
  /// Fresh id grouping the records of one solver-loop invocation.
  [[nodiscard]] std::uint64_t next_solve_id() noexcept {
    return next_solve_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Snapshot lines written so far (excluding headers).
  [[nodiscard]] std::uint64_t flushes() const noexcept {
    return flushes_.load(std::memory_order_relaxed);
  }
  /// Rotations performed so far.
  [[nodiscard]] std::uint64_t rotations() const noexcept {
    return rotations_.load(std::memory_order_relaxed);
  }

 private:
  void write_header();
  /// Writes `line` and flushes it, then rotates past max_bytes. Caller
  /// holds mutex_ and has checked that the stream is open.
  void append(std::string_view line);
  void run();

  const Telemetry& sink_;
  const std::string path_;
  const Options options_;
  const std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;  ///< guards the stream and rotation
  std::unique_ptr<std::ofstream> stream_;
  std::size_t bytes_ = 0;  ///< bytes written to the current generation
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> rotations_{0};
  std::atomic<std::uint64_t> next_solve_{0};
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  ///< guarded by wake_mutex_
  std::thread thread_;
};

}  // namespace hecmine::support

#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::support {

int resolve_thread_count(int requested) {
  HECMINE_REQUIRE(requested >= 0, "thread count must be >= 0 (0 = auto)");
  if (requested > 0) return requested;
  const int env = env_thread_override();
  if (env > 0) return env;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

/// One parallel_for invocation. Indices are claimed through an atomic
/// cursor, so scheduling only decides *who* runs an item, never *what* the
/// item computes; `done` counts finished items. The issuer owns `body` and
/// the telemetry sink, so it may return only once no executor can touch
/// either: the last item to finish closes the batch, a helper dequeued
/// after that returns without entering it, and the issuer waits until
/// every executor that did enter has left.
struct ThreadPool::Batch {
  std::size_t size = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};
  std::mutex mutex;
  std::exception_ptr error;  // first failure; guarded by mutex
  bool closed = false;       // every item finished; guarded by mutex
  int active = 0;            // executors inside run_batch; guarded by mutex
  std::condition_variable finished;
  Telemetry* telemetry = nullptr;  // issuer's sink, propagated to executors
};

ThreadPool::ThreadPool(int workers) {
  HECMINE_REQUIRE(workers >= 0, "ThreadPool requires workers >= 0");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // pool tasks are noexcept wrappers; see submit/parallel_for
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  if (threads_.empty()) {
    // Inline: the caller's own telemetry scope applies.
    std::packaged_task<void()> packaged(std::move(task));
    auto future = packaged.get_future();
    packaged();
    return future;
  }
  // The scope and span live inside the packaged task, so both are closed
  // before the future turns ready and the issuer may drop its sink.
  auto packaged = std::make_shared<std::packaged_task<void()>>(
      [task = std::move(task), sink = current_telemetry()] {
        if (sink == nullptr) return task();
        const TelemetryScope scope(sink);
        const SolveTrace::Scope span(&sink->trace, "pool.task");
        task();
      });
  auto future = packaged->get_future();
  enqueue([packaged] { (*packaged)(); });
  return future;
}

void ThreadPool::run_batch(Batch& batch) {
  {
    std::lock_guard<std::mutex> lock(batch.mutex);
    if (batch.closed) return;  // late helper: the issuer may be gone
    ++batch.active;
  }
  if (batch.telemetry != nullptr) {
    // Propagate the issuer's sink to this executor and record its busy
    // window; idle time is the gap between busy spans on a track.
    const TelemetryScope scope(batch.telemetry);
    const SolveTrace::Scope span(&batch.telemetry->trace, "pool.batch");
    claim_loop(batch);
  } else {
    claim_loop(batch);
  }
  std::lock_guard<std::mutex> lock(batch.mutex);
  if (--batch.active == 0 && batch.closed) batch.finished.notify_all();
}

void ThreadPool::claim_loop(Batch& batch) {
  for (;;) {
    const std::size_t index = batch.next.fetch_add(1);
    if (index >= batch.size) return;
    if (!batch.cancelled.load(std::memory_order_relaxed)) {
      try {
        (*batch.body)(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch.mutex);
        if (!batch.error) batch.error = std::current_exception();
        batch.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (batch.done.fetch_add(1) + 1 == batch.size) {
      // This executor is still active, so it notifies when it leaves.
      std::lock_guard<std::mutex> lock(batch.mutex);
      batch.closed = true;
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              int threads) {
  HECMINE_REQUIRE(threads >= 0, "parallel_for requires threads >= 0");
  if (n == 0) return;
  const std::size_t executors = std::min<std::size_t>(
      n, threads > 0 ? static_cast<std::size_t>(threads)
                     : threads_.size() + 1);
  if (executors <= 1 || threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->size = n;
  batch->body = &body;
  batch->telemetry = current_telemetry();
  if (batch->telemetry != nullptr)
    batch->telemetry->metrics.counter("pool.batches").add();
  for (std::size_t helper = 0; helper + 1 < executors; ++helper)
    enqueue([batch] { run_batch(*batch); });
  run_batch(*batch);  // the issuer participates — no idle blocking, and a
                      // nested call from a pool task cannot deadlock
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->finished.wait(lock,
                         [&] { return batch->closed && batch->active == 0; });
    if (batch->error) std::rethrow_exception(batch->error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(resolve_thread_count(0) - 1);
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  int threads) {
  ThreadPool::global().parallel_for(n, body, threads);
}

}  // namespace hecmine::support

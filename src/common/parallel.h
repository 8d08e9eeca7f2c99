// Shared-memory parallelism for the experiment harnesses and the sharded
// placement engine.
//
// Monte-Carlo trials (Figures 6 and 9 repeat each setting 10+ times) are
// embarrassingly parallel, so the runner fans trials out over a ThreadPool.
// Determinism is preserved by deriving one Rng per trial index *before*
// dispatch; results are written to per-index slots so no ordering matters.
//
// The process-wide worker count resolves, in priority order:
//   1. set_thread_count_override() (the --threads CLI flag),
//   2. the BURSTQ_THREADS environment variable,
//   3. std::thread::hardware_concurrency(),
// and is never below 1.  Every ThreadPool / parallel_for call that passes
// threads == 0 picks up the resolved value, so one flag governs
// experiment fan-out and the sharded placement engine alike.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace burstq {

/// Process-wide worker count: override > BURSTQ_THREADS > hardware
/// concurrency, minimum 1.  Thread-safe.
std::size_t default_thread_count();

/// Sets (n >= 1) or clears (n == 0) the process-wide thread-count
/// override.  Thread-safe; takes effect for pools created afterwards.
void set_thread_count_override(std::size_t n);

/// Fixed-size worker pool executing void() jobs FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = default_thread_count()).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job.  Jobs must not throw; exceptions escaping a job
  /// terminate the process (they indicate library bugs, not data errors).
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_{0};
  bool stop_{false};
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for i in [0, n) across a transient pool.  Blocks until done.
/// fn must be safe to invoke concurrently for distinct indices.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

/// Like parallel_for but fn also receives the executing worker's index in
/// [0, workers).  Indices are claimed dynamically off a shared counter, so
/// an idle worker steals whatever task is next — fn(i, w) with w != i %
/// workers is exactly a stolen task.  Callers must not let results depend
/// on the worker index (it is for steal accounting / scratch selection).
void parallel_for_workers(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t threads = 0);

}  // namespace burstq

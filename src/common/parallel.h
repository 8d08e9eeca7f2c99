// Shared-memory parallelism for the experiment harnesses.
//
// Monte-Carlo trials (Figures 6 and 9 repeat each setting 10+ times) are
// embarrassingly parallel, so the runner fans trials out with
// parallel_for.  Determinism is preserved by deriving one Rng per trial
// index *before* dispatch; results are written to per-index slots so no
// ordering matters.
//
// The process-wide worker count resolves, in priority order:
//   1. set_thread_count_override() (the --threads CLI flag),
//   2. the BURSTQ_THREADS environment variable,
//   3. std::thread::hardware_concurrency(),
// and is never below 1.  Every parallel_for call that passes threads == 0
// picks up the resolved value, so one flag governs every parallel stage.

#pragma once

#include <cstddef>
#include <functional>

namespace burstq {

/// Process-wide worker count: override > BURSTQ_THREADS > hardware
/// concurrency, minimum 1.  Thread-safe.
std::size_t default_thread_count();

/// Sets (n >= 1) or clears (n == 0) the process-wide thread-count
/// override.  Thread-safe; takes effect for calls made afterwards.
void set_thread_count_override(std::size_t n);

/// Runs fn(i) for i in [0, n) across transient worker threads (threads ==
/// 0 means default_thread_count()); idle workers claim the next index off
/// a shared counter.  Blocks until done.  fn must be safe to invoke
/// concurrently for distinct indices.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace burstq

#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

namespace burstq {

namespace {

// 0 means "no override"; any positive value wins over env + hardware.
std::atomic<std::size_t> g_thread_override{0};

std::size_t env_thread_count() {
  const char* raw = std::getenv("BURSTQ_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || (end != nullptr && *end != '\0')) return 0;  // not a number
  return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t default_thread_count() {
  const std::size_t forced = g_thread_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  const std::size_t env = env_thread_count();
  if (env > 0) return env;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void set_thread_count_override(std::size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (n == 0) return;
  std::size_t workers = threads;
  if (workers == 0) workers = default_thread_count();
  workers = std::min(workers, n);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> ts;
  ts.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    ts.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  for (auto& t : ts) t.join();
}

}  // namespace burstq

// Unit tests for parallel_for and the process-wide thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/parallel.h"

namespace burstq {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  SUCCEED();
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  auto compute = [](std::size_t threads) {
    std::vector<double> out(64);
    parallel_for(64, [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= i; ++k) acc += static_cast<double>(k * k);
      out[i] = acc;
    }, threads);
    return out;
  };
  EXPECT_EQ(compute(1), compute(7));
}

TEST(ThreadCount, OverrideWinsOverEverything) {
  set_thread_count_override(3);
  EXPECT_EQ(default_thread_count(), 3u);
  set_thread_count_override(0);  // clear
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadCount, EnvVariableRespectedWhenNoOverride) {
  set_thread_count_override(0);
  ::setenv("BURSTQ_THREADS", "5", 1);
  EXPECT_EQ(default_thread_count(), 5u);
  ::setenv("BURSTQ_THREADS", "not-a-number", 1);
  EXPECT_GE(default_thread_count(), 1u);  // garbage falls through to hardware
  ::unsetenv("BURSTQ_THREADS");
}

TEST(ThreadCount, OverrideBeatsEnv) {
  ::setenv("BURSTQ_THREADS", "7", 1);
  set_thread_count_override(2);
  EXPECT_EQ(default_thread_count(), 2u);
  set_thread_count_override(0);
  EXPECT_EQ(default_thread_count(), 7u);
  ::unsetenv("BURSTQ_THREADS");
}

}  // namespace
}  // namespace burstq

// Lock-cheap metrics registry: named counters, gauges and histograms.
//
// Hot-path updates go to per-thread shards (cache-line-padded relaxed
// atomics, shard picked by a hashed thread id) so the parallel_for fan-out
// in common/parallel.h never contends on a metric; scrape() merges the
// shards into an immutable snapshot.  Metric objects are registered once
// per name and never destroyed, so call sites may cache references
// (BURSTQ_COUNT and friends in obs/obs.h do exactly that behind a
// function-local static).
//
// Histograms record into a fixed-precision streaming-quantile sketch
// (obs/quantiles.h): HDR-style log2 octaves subdivided into linear
// sub-buckets, so snapshots report p50/p95/p99 within a bounded relative
// error without storing samples.  The legacy coarse log2 view (bucket 0
// counts zeros, bucket b counts values of bit width b) is still derived
// at snapshot time for compact exposition buckets and old consumers.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/quantiles.h"

namespace burstq::obs {

/// Number of update shards per metric.  A power of two; more shards cost
/// memory (one cache line each), fewer cost contention.
inline constexpr std::size_t kMetricShards = 16;

/// Number of log2 histogram buckets.  Bucket 47 absorbs everything at or
/// above 2^46 (~19 hours in nanoseconds).
inline constexpr std::size_t kHistogramBuckets = 48;

namespace detail {

/// Stable shard index for the calling thread.
std::size_t shard_index() noexcept;

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Merged value across shards.
  [[nodiscard]] std::uint64_t value() const noexcept;

  /// Zeroes every shard (scrape-time races simply move counts between
  /// adjacent snapshots; callers reset only between runs).
  void reset() noexcept;

 private:
  std::array<detail::PaddedU64, kMetricShards> shards_{};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Merged view of a histogram at scrape time.
struct HistogramSnapshot {
  std::uint64_t count{0};
  std::uint64_t sum{0};
  std::uint64_t min{0};  ///< 0 when count == 0
  std::uint64_t max{0};
  /// Coarse log2 view, derived from the sketch (bucket b = bit width b).
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  /// Fine sub-bucket counts (obs/quantiles.h); count/min/max duplicated.
  SketchSnapshot sketch{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Streaming-quantile estimate from the sketch: exact at q=0 / q=1 and
  /// for small values, within kSketchRelativeError otherwise.
  [[nodiscard]] double quantile(double q) const { return sketch.quantile(q); }
  /// Backwards-compatible alias for quantile().
  [[nodiscard]] double approx_quantile(double q) const {
    return quantile(q);
  }
};

/// Histogram of non-negative integer observations over the fixed
/// sub-bucketed sketch of obs/quantiles.h.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;
  void reset() noexcept;

  /// Coarse log2 bucket index of a value (exposed for tests and for the
  /// derived HistogramSnapshot::buckets view).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept;

 private:
  // No separate count cell: a concurrent scrape summing buckets and a
  // count updated by a different store could disagree mid-record, which
  // renders as a non-monotone +Inf bucket.  The count is derived from
  // the bucket sums at snapshot time instead, so the two always agree.
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kSketchBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{UINT64_MAX};
    std::atomic<std::uint64_t> max{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Aggregated statistics of one named trace span (see obs/span.h for the
/// RAII recorder).  total includes time spent in child spans; self does
/// not, so sorting by self pinpoints where wall time actually goes.
class SpanStat {
 public:
  void record(std::uint64_t wall_ns, std::uint64_t self_ns) noexcept;

  [[nodiscard]] std::uint64_t calls() const noexcept;
  [[nodiscard]] std::uint64_t total_ns() const noexcept;
  [[nodiscard]] std::uint64_t self_ns() const noexcept;
  [[nodiscard]] std::uint64_t max_ns() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> self_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

struct CounterSample {
  std::string name;
  std::uint64_t value{0};
};
struct GaugeSample {
  std::string name;
  double value{0.0};
};
struct HistogramSample {
  std::string name;
  HistogramSnapshot hist;
};
struct SpanSample {
  std::string name;
  std::uint64_t calls{0};
  std::uint64_t total_ns{0};
  std::uint64_t self_ns{0};
  std::uint64_t max_ns{0};
};

/// Point-in-time merged view of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanSample> spans;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           spans.empty();
  }
  /// Lookup helpers; return nullptr when the name is unregistered.
  [[nodiscard]] const CounterSample* counter(std::string_view name) const;
  [[nodiscard]] const SpanSample* span(std::string_view name) const;
};

/// Name -> metric map.  Registration takes a mutex (once per call site);
/// updates touch only the returned object.  Returned references stay
/// valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  SpanStat& span(std::string_view name);

  [[nodiscard]] MetricsSnapshot scrape() const;

  /// Zeroes all values, keeping registrations (and thus cached
  /// references) valid.  Use between benchmark runs and in tests.
  void reset();

 private:
  template <typename T>
  using Map = std::unordered_map<std::string, std::unique_ptr<T>>;

  template <typename T>
  static T& intern(Map<T>& map, std::string_view name);

  mutable std::mutex mu_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
  Map<SpanStat> spans_;
};

/// Process-wide registry used by the BURSTQ_* macros.
MetricsRegistry& metrics();

}  // namespace burstq::obs

#include "obs/registry.h"

#include <algorithm>
#include <bit>
#include <thread>

namespace burstq::obs {

namespace detail {

std::size_t shard_index() noexcept {
  // One hash per thread, cached; consecutive thread creations spread over
  // shards well enough for the transient workers parallel_for spawns.
  static thread_local const std::size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kMetricShards;
  return idx;
}

namespace {

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur > v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace
}  // namespace detail

std::uint64_t Counter::value() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() noexcept {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

std::size_t Histogram::bucket_of(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const auto width = static_cast<std::size_t>(std::bit_width(v));
  return std::min(width, kHistogramBuckets - 1);
}

void Histogram::record(std::uint64_t v) noexcept {
  Shard& s = shards_[detail::shard_index()];
  s.buckets[sketch_bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  detail::atomic_min(s.min, v);
  detail::atomic_max(s.max, v);
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot out;
  std::uint64_t mn = UINT64_MAX;
  for (const auto& s : shards_) {
    out.sum += s.sum.load(std::memory_order_relaxed);
    mn = std::min(mn, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kSketchBuckets; ++b)
      out.sketch.counts[b] += s.buckets[b].load(std::memory_order_relaxed);
  }
  // Count derived from the merged buckets, never a separate cell, so a
  // mid-record scrape can't see sum(buckets) != count (the validator
  // checks exactly this via the +Inf bucket).
  for (const std::uint64_t c : out.sketch.counts) out.count += c;
  out.min = out.count == 0 ? 0 : mn;
  out.sketch.count = out.count;
  out.sketch.min = out.min;
  out.sketch.max = out.max;
  // Derive the coarse log2 view: every fine bucket lies entirely inside
  // one coarse bucket (its values share a bit width), so projecting by
  // the bucket's lower bound is exact.
  for (std::size_t b = 0; b < kSketchBuckets; ++b)
    out.buckets[bucket_of(sketch_bucket_lower(b))] += out.sketch.counts[b];
  return out;
}

void Histogram::reset() noexcept {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(UINT64_MAX, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

void SpanStat::record(std::uint64_t wall_ns, std::uint64_t self_ns) noexcept {
  Shard& s = shards_[detail::shard_index()];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.total_ns.fetch_add(wall_ns, std::memory_order_relaxed);
  s.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
  detail::atomic_max(s.max_ns, wall_ns);
}

std::uint64_t SpanStat::calls() const noexcept {
  std::uint64_t v = 0;
  for (const auto& s : shards_) v += s.calls.load(std::memory_order_relaxed);
  return v;
}

std::uint64_t SpanStat::total_ns() const noexcept {
  std::uint64_t v = 0;
  for (const auto& s : shards_)
    v += s.total_ns.load(std::memory_order_relaxed);
  return v;
}

std::uint64_t SpanStat::self_ns() const noexcept {
  std::uint64_t v = 0;
  for (const auto& s : shards_) v += s.self_ns.load(std::memory_order_relaxed);
  return v;
}

std::uint64_t SpanStat::max_ns() const noexcept {
  std::uint64_t v = 0;
  for (const auto& s : shards_)
    v = std::max(v, s.max_ns.load(std::memory_order_relaxed));
  return v;
}

void SpanStat::reset() noexcept {
  for (auto& s : shards_) {
    s.calls.store(0, std::memory_order_relaxed);
    s.total_ns.store(0, std::memory_order_relaxed);
    s.self_ns.store(0, std::memory_order_relaxed);
    s.max_ns.store(0, std::memory_order_relaxed);
  }
}

const CounterSample* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& c : counters)
    if (c.name == name) return &c;
  return nullptr;
}

const SpanSample* MetricsSnapshot::span(std::string_view name) const {
  for (const auto& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

template <typename T>
T& MetricsRegistry::intern(Map<T>& map, std::string_view name) {
  auto it = map.find(std::string(name));
  if (it == map.end())
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return intern(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return intern(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return intern(histograms_, name);
}

SpanStat& MetricsRegistry::span(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return intern(spans_, name);
}

MetricsSnapshot MetricsRegistry::scrape() const {
  const std::scoped_lock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    snap.histograms.push_back({name, h->snapshot()});
  snap.spans.reserve(spans_.size());
  for (const auto& [name, s] : spans_)
    snap.spans.push_back(
        {name, s->calls(), s->total_ns(), s->self_ns(), s->max_ns()});

  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  std::sort(snap.spans.begin(), snap.spans.end(), by_name);
  return snap;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : spans_) s->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never freed
  return *instance;
}

}  // namespace burstq::obs

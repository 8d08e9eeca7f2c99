#include "placement/cluster.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "common/error.h"

namespace burstq {

namespace {

// Equal-width bucketing of Re over [min Re, max Re]: the one bucketing
// expression behind cluster_by_re and queuing_ffd_order.
class ReBuckets {
 public:
  ReBuckets(const std::vector<VmSpec>& vms, std::size_t bucket_count)
      : count_(bucket_count) {
    BURSTQ_REQUIRE(bucket_count >= 1, "need at least one cluster bucket");
    BURSTQ_REQUIRE(!vms.empty(), "cannot cluster zero VMs");
    lo_ = vms.front().re;
    double hi = lo_;
    for (const auto& v : vms) {
      lo_ = std::min(lo_, v.re);
      hi = std::max(hi, v.re);
    }
    single_ = hi <= lo_;  // all spikes equal: one cluster
    if (!single_) width_ = (hi - lo_) / static_cast<double>(bucket_count);
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  [[nodiscard]] std::size_t operator()(double re) const {
    if (single_) return 0;
    const auto b = static_cast<std::size_t>((re - lo_) / width_);
    return std::min(b, count_ - 1);  // hi lands in the top bucket
  }

 private:
  std::size_t count_;
  double lo_{0.0};
  double width_{0.0};
  bool single_{true};
};

// One VM of a visit order, packed for the sort: ascending `key` is
// descending sort value, and `index` breaks ties.
struct RankedVm {
  std::uint64_t key;
  std::size_t index;
};

// Stable LSD radix sort of `a` by key, one byte per pass, through the
// scratch buffer `tmp` (same size).  A pass whose byte is the same for
// every pair moves nothing and is skipped.  Stability keeps equal keys in
// their incoming (ascending index) order.  Returns where the sorted pairs
// ended up: a.data() or tmp.data().
const RankedVm* radix_sort_by_key(std::span<RankedVm> a,
                                  std::span<RankedVm> tmp) {
  if (a.size() < 2) return a.data();
  constexpr unsigned kPasses = 8;
  std::array<std::array<std::size_t, 256>, kPasses> hist{};
  for (const RankedVm& r : a)
    for (unsigned p = 0; p < kPasses; ++p)
      ++hist[p][(r.key >> (8 * p)) & 0xFFu];
  RankedVm* src = a.data();
  RankedVm* dst = tmp.data();
  for (unsigned p = 0; p < kPasses; ++p) {
    auto& slot = hist[p];
    if (slot[(src[0].key >> (8 * p)) & 0xFFu] == a.size()) continue;
    std::size_t sum = 0;
    for (std::size_t& c : slot) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < a.size(); ++i)
      dst[slot[(src[i].key >> (8 * p)) & 0xFFu]++] = src[i];
    std::swap(src, dst);
  }
  return src;
}

// Bits of a non-negative, non-NaN double order like the double; the
// complement reverses that.  Adding +0.0 turns -0.0 into +0.0, so the two
// zeros tie as they compare equal.
std::uint64_t descending_bits(double x) {
  return ~std::bit_cast<std::uint64_t>(x + 0.0);
}

// The sort kernel of every visit order: counting-partitions the VM
// indices by bucket, highest bucket first, then sorts each bucket by
// (descending value, ascending index).  The packed pairs of one bucket at
// a time pass through one buffer and its radix scratch, so the transient
// memory is 32 bytes per VM of the largest bucket, not of the fleet: a
// fleet-sized array left a heap hole that raised peak RSS.
template <typename BucketOf, typename ValueOf>
std::vector<std::size_t> packed_order(const std::vector<VmSpec>& vms,
                                      std::size_t bucket_count,
                                      const BucketOf& bucket_of,
                                      const ValueOf& value_of) {
  // begin[s] is where slot s (bucket bucket_count - 1 - s) starts.
  std::vector<std::size_t> begin(bucket_count + 1, 0);
  for (const auto& v : vms) ++begin[bucket_count - bucket_of(v)];
  std::size_t largest = 0;
  for (std::size_t s = 1; s <= bucket_count; ++s) {
    largest = std::max(largest, begin[s]);
    begin[s] += begin[s - 1];
  }

  std::vector<std::size_t> order(vms.size());
  std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
  for (std::size_t i = 0; i < vms.size(); ++i)
    order[next[bucket_count - 1 - bucket_of(vms[i])]++] = i;

  std::vector<RankedVm> ranked(largest);
  std::vector<RankedVm> scratch(largest);
  for (std::size_t s = 0; s < bucket_count; ++s) {
    const std::span<std::size_t> slot(order.data() + begin[s],
                                      begin[s + 1] - begin[s]);
    for (std::size_t r = 0; r < slot.size(); ++r)
      ranked[r] = {descending_bits(value_of(vms[slot[r]])), slot[r]};
    const RankedVm* sorted =
        radix_sort_by_key({ranked.data(), slot.size()},
                          {scratch.data(), slot.size()});
    for (std::size_t r = 0; r < slot.size(); ++r) slot[r] = sorted[r].index;
  }
  return order;
}

template <typename ValueOf>
std::vector<std::size_t> order_desc(const std::vector<VmSpec>& vms,
                                    const ValueOf& value_of) {
  return packed_order(
      vms, 1, [](const VmSpec&) { return std::size_t{0}; }, value_of);
}

}  // namespace

std::vector<std::size_t> cluster_by_re(const std::vector<VmSpec>& vms,
                                       std::size_t bucket_count) {
  const ReBuckets bucket(vms, bucket_count);
  std::vector<std::size_t> cluster(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) cluster[i] = bucket(vms[i].re);
  return cluster;
}

std::vector<std::size_t> queuing_ffd_order(const std::vector<VmSpec>& vms,
                                           std::size_t bucket_count) {
  const ReBuckets bucket(vms, bucket_count);
  return packed_order(
      vms, bucket.count(), [&](const VmSpec& v) { return bucket(v.re); },
      [](const VmSpec& v) { return v.rb; });
}

std::vector<std::size_t> order_by_peak_desc(const std::vector<VmSpec>& vms) {
  return order_desc(vms, [](const VmSpec& v) { return v.rp(); });
}

std::vector<std::size_t> order_by_normal_desc(const std::vector<VmSpec>& vms) {
  return order_desc(vms, [](const VmSpec& v) { return v.rb; });
}

}  // namespace burstq

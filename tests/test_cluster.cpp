// Tests for Re-similarity clustering and visit orders (Algorithm 2 lines
// 7-9 and the baseline FFD orders).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "placement/cluster.h"

namespace burstq {
namespace {

const OnOffParams kP{0.01, 0.09};

std::vector<VmSpec> make_vms(std::initializer_list<std::pair<double, double>>
                                 rb_re) {
  std::vector<VmSpec> vms;
  for (auto [rb, re] : rb_re) vms.push_back(VmSpec{kP, rb, re});
  return vms;
}

TEST(ClusterByRe, EqualReCollapsesToOneCluster) {
  const auto vms = make_vms({{1, 5}, {2, 5}, {3, 5}});
  const auto c = cluster_by_re(vms, 4);
  EXPECT_EQ(c, (std::vector<std::size_t>{0, 0, 0}));
}

TEST(ClusterByRe, SimilarReShareCluster) {
  const auto vms = make_vms({{1, 2.0}, {1, 2.1}, {1, 19.9}, {1, 20.0}});
  const auto c = cluster_by_re(vms, 4);
  EXPECT_EQ(c[0], c[1]);
  EXPECT_EQ(c[2], c[3]);
  EXPECT_NE(c[0], c[2]);
}

TEST(ClusterByRe, AllIdsWithinRange) {
  Rng rng(3);
  std::vector<VmSpec> vms;
  for (int i = 0; i < 500; ++i)
    vms.push_back(VmSpec{kP, 1.0, rng.uniform(2.0, 20.0)});
  const auto c = cluster_by_re(vms, 8);
  for (auto id : c) EXPECT_LT(id, 8u);
}

TEST(ClusterByRe, MonotoneInRe) {
  // Higher Re never lands in a lower bucket.
  const auto vms = make_vms({{1, 2}, {1, 8}, {1, 14}, {1, 20}});
  const auto c = cluster_by_re(vms, 3);
  EXPECT_LE(c[0], c[1]);
  EXPECT_LE(c[1], c[2]);
  EXPECT_LE(c[2], c[3]);
}

TEST(ClusterByRe, InvalidArgsThrow) {
  EXPECT_THROW(cluster_by_re({}, 4), InvalidArgument);
  EXPECT_THROW(cluster_by_re(make_vms({{1, 1}}), 0), InvalidArgument);
}

TEST(QueuingFfdOrder, IsAPermutation) {
  Rng rng(7);
  std::vector<VmSpec> vms;
  for (int i = 0; i < 300; ++i)
    vms.push_back(VmSpec{kP, rng.uniform(2, 20), rng.uniform(2, 20)});
  auto order = queuing_ffd_order(vms, 8);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(QueuingFfdOrder, ClustersDescendingByRe) {
  Rng rng(9);
  std::vector<VmSpec> vms;
  for (int i = 0; i < 200; ++i)
    vms.push_back(VmSpec{kP, rng.uniform(2, 20), rng.uniform(2, 20)});
  const auto cluster = cluster_by_re(vms, 6);
  const auto order = queuing_ffd_order(vms, 6);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(cluster[order[i - 1]], cluster[order[i]]);
}

TEST(QueuingFfdOrder, RbDescendingWithinCluster) {
  Rng rng(11);
  std::vector<VmSpec> vms;
  for (int i = 0; i < 200; ++i)
    vms.push_back(VmSpec{kP, rng.uniform(2, 20), rng.uniform(2, 20)});
  const auto cluster = cluster_by_re(vms, 6);
  const auto order = queuing_ffd_order(vms, 6);
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (cluster[order[i - 1]] == cluster[order[i]]) {
      EXPECT_GE(vms[order[i - 1]].rb, vms[order[i]].rb);
    }
  }
}

TEST(QueuingFfdOrder, DeterministicTieBreak) {
  const auto vms = make_vms({{5, 5}, {5, 5}, {5, 5}});
  const auto order = queuing_ffd_order(vms, 4);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BaselineOrders, PeakDescending) {
  const auto vms = make_vms({{1, 10}, {8, 1}, {3, 3}});  // Rp: 11, 9, 6
  EXPECT_EQ(order_by_peak_desc(vms), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BaselineOrders, NormalDescending) {
  const auto vms = make_vms({{1, 10}, {8, 1}, {3, 3}});  // Rb: 1, 8, 3
  EXPECT_EQ(order_by_normal_desc(vms), (std::vector<std::size_t>{1, 2, 0}));
}

// --- The packed-key sort kernel against the comparator sorts ----------
//
// The oracles below are the indirect-comparator sorts the kernel replaced:
// every order must come out identical to them, index for index.

std::vector<std::size_t> oracle_queuing_ffd_order(
    const std::vector<VmSpec>& vms, std::size_t bucket_count) {
  const std::vector<std::size_t> cluster = cluster_by_re(vms, bucket_count);
  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cluster[a] != cluster[b]) return cluster[a] > cluster[b];
    if (vms[a].rb != vms[b].rb) return vms[a].rb > vms[b].rb;
    return a < b;
  });
  return order;
}

template <typename Key>
std::vector<std::size_t> oracle_order_desc(const std::vector<VmSpec>& vms,
                                           Key key) {
  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ka = key(vms[a]);
    const double kb = key(vms[b]);
    if (ka != kb) return ka > kb;
    return a < b;
  });
  return order;
}

enum class Flavour { kContinuous, kTies, kZerosAndInf, kSingleCluster };

// Rb/Re draws that stress the kernel: continuous values, Rb rounded to a
// few values (many ties), Rb mixing +0.0, -0.0, 1.0 and +inf, and one Re
// for every VM (a single cluster).
std::vector<VmSpec> flavoured_vms(std::size_t n, Flavour flavour, Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<VmSpec> vms;
  for (std::size_t i = 0; i < n; ++i) {
    double rb = rng.uniform(0.0, 20.0);
    double re = rng.uniform(2.0, 20.0);
    switch (flavour) {
      case Flavour::kContinuous:
        break;
      case Flavour::kTies:
        rb = std::round(rng.uniform(0.0, 3.0));
        re = std::round(re);
        break;
      case Flavour::kZerosAndInf: {
        const double pick[] = {0.0, -0.0, 1.0, inf};
        rb = pick[rng.next_below(4)];
        break;
      }
      case Flavour::kSingleCluster:
        re = 7.5;
        break;
    }
    vms.push_back(VmSpec{kP, rb, re});
  }
  return vms;
}

TEST(PackedOrders, MatchComparatorOracles) {
  Rng rng(2024);
  for (const std::size_t n : {1u, 2u, 1000u}) {
    for (const Flavour flavour :
         {Flavour::kContinuous, Flavour::kTies, Flavour::kZerosAndInf,
          Flavour::kSingleCluster}) {
      const auto vms = flavoured_vms(n, flavour, rng);
      const auto what = "n=" + std::to_string(n) + " flavour=" +
                        std::to_string(static_cast<int>(flavour));
      for (const std::size_t buckets : {1u, 3u, 8u, 64u})
        ASSERT_EQ(queuing_ffd_order(vms, buckets),
                  oracle_queuing_ffd_order(vms, buckets))
            << what << " buckets=" << buckets;
      ASSERT_EQ(order_by_normal_desc(vms),
                oracle_order_desc(vms, [](const VmSpec& v) { return v.rb; }))
          << what;
      ASSERT_EQ(order_by_peak_desc(vms),
                oracle_order_desc(vms, [](const VmSpec& v) { return v.rp(); }))
          << what;
    }
  }
}

TEST(PackedOrders, NegativeZeroTiesPositiveZeroByIndex) {
  // -0.0 == +0.0, so only the index may separate them.
  const auto vms = make_vms({{0.0, 3}, {-0.0, 3}, {0.0, 3}, {-0.0, 3}});
  const std::vector<std::size_t> by_index{0, 1, 2, 3};
  EXPECT_EQ(queuing_ffd_order(vms, 4), by_index);
  EXPECT_EQ(order_by_normal_desc(vms), by_index);
  EXPECT_EQ(order_by_peak_desc(vms), by_index);
}

TEST(PackedOrders, InfiniteRbLeadsItsCluster) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto vms = make_vms({{1, 2}, {inf, 2}, {5, 20}, {inf, 20}});
  EXPECT_EQ(queuing_ffd_order(vms, 2), (std::vector<std::size_t>{3, 2, 1, 0}));
  EXPECT_EQ(order_by_normal_desc(vms), (std::vector<std::size_t>{1, 3, 2, 0}));
}

TEST(PackedOrders, EmptyBaselineOrders) {
  EXPECT_TRUE(order_by_normal_desc({}).empty());
  EXPECT_TRUE(order_by_peak_desc({}).empty());
  EXPECT_THROW(queuing_ffd_order({}, 4), InvalidArgument);
  EXPECT_THROW(queuing_ffd_order(make_vms({{1, 1}}), 0), InvalidArgument);
}

TEST(BaselineOrders, StableOnTies) {
  const auto vms = make_vms({{5, 1}, {5, 2}, {5, 3}});
  EXPECT_EQ(order_by_normal_desc(vms), (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace burstq

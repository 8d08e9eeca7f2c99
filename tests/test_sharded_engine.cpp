// Property tests for the sharded parallel placement engine (sharded.h).
//
// The determinism contract under test:
//   * results are a pure function of (instance, order, shard count) — the
//     thread count NEVER changes them (this file runs under TSan in CI,
//     so the parallel phase is also raced-checked while being pinned);
//   * with one shard the engine is bit-identical to the single-threaded
//     incremental engine;
//   * the decision budget is deterministic (it counts checks, not time).
// Plus ShardedAdmitIndex unit coverage, PmSlackTree/engine edge cases
// (m = 1, all PMs infeasible, duplicate slack keys), and online/
// controller churn pinning.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/controller.h"
#include "placement/cluster.h"
#include "placement/incremental.h"
#include "placement/online.h"
#include "placement/queuing_ffd.h"
#include "placement/sharded.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq {
namespace {

const OnOffParams kParams{0.02, 0.08};

ProblemInstance random_inst(std::size_t n, std::size_t m, Rng& rng) {
  return random_instance(n, m, kParams, InstanceRanges{}, rng);
}

void expect_identical(const ProblemInstance& inst, const PlacementResult& a,
                      const PlacementResult& b, const std::string& what) {
  EXPECT_EQ(a.unplaced, b.unplaced) << what;
  ASSERT_EQ(a.placement.pms_used(), b.placement.pms_used()) << what;
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    ASSERT_EQ(a.placement.pm_of(VmId{i}), b.placement.pm_of(VmId{i}))
        << what << ": VM " << i;
}

// --- resolve_shard_count -----------------------------------------------

TEST(ResolveShardCount, RequestedIsClampedToFleet) {
  EXPECT_EQ(resolve_shard_count(100, 1), 1u);
  EXPECT_EQ(resolve_shard_count(100, 7), 7u);
  EXPECT_EQ(resolve_shard_count(100, 1000), 100u);
  EXPECT_EQ(resolve_shard_count(1, 5), 1u);
}

TEST(ResolveShardCount, AutoDependsOnlyOnFleetSize) {
  // Small fleets stay single-shard (== incremental engine), large fleets
  // scale with the PM count, capped — and never consult the thread count.
  EXPECT_EQ(resolve_shard_count(1, 0), 1u);
  EXPECT_EQ(resolve_shard_count(255, 0), 1u);
  EXPECT_GE(resolve_shard_count(4096, 0), 2u);
  EXPECT_LE(resolve_shard_count(1000000, 0), 64u);
  set_thread_count_override(3);
  const std::size_t with_three = resolve_shard_count(100000, 0);
  set_thread_count_override(11);
  EXPECT_EQ(resolve_shard_count(100000, 0), with_three);
  set_thread_count_override(0);
}

// --- ShardedAdmitIndex unit coverage -----------------------------------

TEST(ShardedAdmitIndex, ShardRangesTileTheFleet) {
  const ShardedAdmitIndex index(10, 3);
  ASSERT_EQ(index.shard_count(), 3u);
  EXPECT_EQ(index.n_pms(), 10u);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(index.shard_begin(s), covered);
    EXPECT_GT(index.shard_end(s), index.shard_begin(s));
    for (std::size_t j = index.shard_begin(s); j < index.shard_end(s); ++j)
      EXPECT_EQ(index.shard_of(j), s);
    covered = index.shard_end(s);
  }
  EXPECT_EQ(covered, 10u);
  // Sizes differ by at most one.
  EXPECT_EQ(index.shard_end(0) - index.shard_begin(0), 4u);
  EXPECT_EQ(index.shard_end(1) - index.shard_begin(1), 3u);
  EXPECT_EQ(index.shard_end(2) - index.shard_begin(2), 3u);
}

TEST(ShardedAdmitIndex, FindInShardRespectsBoundsAndFrom) {
  ShardedAdmitIndex index(6, 2, 0.0);
  for (std::size_t j = 0; j < 6; ++j)
    index.set_key(j, static_cast<double>(j));
  // Shard 0 = PMs 0..2, shard 1 = PMs 3..5.
  EXPECT_EQ(index.find_in_shard(0, 1.5), 2u);
  EXPECT_EQ(index.find_in_shard(0, 2.5), ShardedAdmitIndex::npos);
  EXPECT_EQ(index.find_in_shard(1, 2.5), 3u);
  EXPECT_EQ(index.find_in_shard(1, 2.5, 4), 4u);
  EXPECT_EQ(index.find_in_shard(1, 0.0, 99), ShardedAdmitIndex::npos);
  EXPECT_EQ(index.key(4), 4.0);
}

TEST(ShardedAdmitIndex, RouteVisitsHomeThenFixedOrder) {
  ShardedAdmitIndex index(9, 3, 1.0);  // every PM key-admissible
  std::vector<std::size_t> probed;
  const auto exact = [&](std::size_t j) {
    probed.push_back(j);
    return false;  // force a full tour
  };
  const auto out = index.route(0.5, 1, exact);
  EXPECT_EQ(out.pm, ShardedAdmitIndex::npos);
  // Home shard 1 (PMs 3..5) first, then shards 0 and 2 in fixed order.
  EXPECT_EQ(probed,
            (std::vector<std::size_t>{3, 4, 5, 0, 1, 2, 6, 7, 8}));
  EXPECT_EQ(out.exact_checks, 9u);
}

TEST(ShardedAdmitIndex, RouteStopsAtFirstAcceptAndHonoursBudget) {
  ShardedAdmitIndex index(8, 2, 1.0);
  std::size_t calls = 0;
  const auto accept_fifth = [&](std::size_t) { return ++calls == 5; };
  const auto hit = index.route(0.0, 0, accept_fifth);
  EXPECT_EQ(hit.pm, 4u);
  EXPECT_FALSE(hit.budget_exhausted);

  calls = 0;
  const auto starved = index.route(0.0, 0, accept_fifth, 3);
  EXPECT_EQ(starved.pm, ShardedAdmitIndex::npos);
  EXPECT_TRUE(starved.budget_exhausted);
  EXPECT_EQ(starved.exact_checks, 3u);
}

TEST(ShardedAdmitIndex, KeyFilterSkipsExactChecks) {
  ShardedAdmitIndex index(4, 1, 0.0);
  index.set_key(1, 10.0);
  index.set_key(3, 10.0);
  std::vector<std::size_t> probed;
  const auto out = index.route(5.0, 0, [&](std::size_t j) {
    probed.push_back(j);
    return false;
  });
  EXPECT_EQ(out.pm, ShardedAdmitIndex::npos);
  EXPECT_EQ(probed, (std::vector<std::size_t>{1, 3}));
}

// --- Tentpole: S = 1 is bit-identical to the incremental engine --------

TEST(ShardedEngine, SingleShardMatchesIncrementalBitForBit) {
  for (std::uint64_t seed : {1u, 17u, 98u, 4242u}) {
    Rng rng(seed);
    const auto inst = random_inst(300, 60, rng);
    const auto order = queuing_ffd_order(inst.vms, 8);
    const MapCalTable table(12, kParams, 0.02);

    const auto incr = first_fit_place_reservation(inst, order, table);
    for (const std::size_t threads : {1u, 2u, 5u}) {
      ShardedOptions opt;
      opt.shards = 1;
      opt.threads = threads;
      ShardedStats stats;
      const auto sharded =
          sharded_place_reservation(inst, order, table, opt, &stats);
      expect_identical(inst, incr, sharded,
                       "seed " + std::to_string(seed) + " threads " +
                           std::to_string(threads));
      EXPECT_EQ(stats.shards, 1u);
      EXPECT_EQ(stats.reconcile_placed, 0u);  // monotone: spills stay out
      EXPECT_EQ(stats.local_placed,
                inst.n_vms() - sharded.unplaced.size());
    }
  }
}

// --- Tentpole: thread count never changes the result -------------------

TEST(ShardedEngine, ResultsInvariantAcrossThreadCounts) {
  Rng rng(2024);
  const auto inst = random_inst(600, 90, rng);
  const auto order = queuing_ffd_order(inst.vms, 8);
  const MapCalTable table(12, kParams, 0.02);

  for (const std::size_t shards : {2u, 3u, 7u}) {
    std::optional<PlacementResult> reference;
    std::size_t reference_spills = 0;
    for (const std::size_t threads : {1u, 2u, 5u}) {
      ShardedOptions opt;
      opt.shards = shards;
      opt.threads = threads;
      ShardedStats stats;
      auto result = sharded_place_reservation(inst, order, table, opt, &stats);
      EXPECT_EQ(stats.shards, shards);
      if (!reference) {
        reference = std::move(result);
        reference_spills = stats.spills;
      } else {
        expect_identical(inst, *reference, result,
                         "shards " + std::to_string(shards) + " threads " +
                             std::to_string(threads));
        // Spill/reconcile accounting is part of the deterministic
        // contract too, not just the final mapping.
        EXPECT_EQ(stats.spills, reference_spills);
      }
    }
  }
}

TEST(ShardedEngine, EveryShardCountYieldsValidPlacement) {
  Rng rng(5150);
  const auto inst = random_inst(400, 64, rng);
  const auto order = queuing_ffd_order(inst.vms, 8);
  const MapCalTable table(12, kParams, 0.02);
  for (const std::size_t shards : {1u, 2u, 5u, 16u, 64u}) {
    ShardedOptions opt;
    opt.shards = shards;
    opt.threads = 4;
    const auto result = sharded_place_reservation(inst, order, table, opt);
    EXPECT_TRUE(
        placement_satisfies_reservation(inst, result.placement, table))
        << "shards " << shards;
    EXPECT_EQ(result.placement.vms_assigned() + result.unplaced.size(),
              inst.n_vms());
  }
}

TEST(ShardedEngine, DecisionBudgetIsDeterministic) {
  Rng rng(31337);
  const auto inst = random_inst(300, 40, rng);
  const auto order = queuing_ffd_order(inst.vms, 8);
  const MapCalTable table(12, kParams, 0.02);

  ShardedOptions opt;
  opt.shards = 4;
  opt.decision_budget = 2;
  opt.threads = 1;
  ShardedStats first_stats;
  const auto first =
      sharded_place_reservation(inst, order, table, opt, &first_stats);
  opt.threads = 6;
  ShardedStats second_stats;
  const auto second =
      sharded_place_reservation(inst, order, table, opt, &second_stats);
  expect_identical(inst, first, second, "budgeted runs");
  EXPECT_EQ(first_stats.budget_exhausted, second_stats.budget_exhausted);
  EXPECT_EQ(first_stats.exact_checks, second_stats.exact_checks);
  EXPECT_TRUE(placement_satisfies_reservation(inst, first.placement, table));
}

TEST(ShardedEngine, QueuingFfdDispatchMatchesDirectCall) {
  Rng rng(808);
  const auto inst = random_inst(250, 50, rng);
  QueuingFfdOptions incr_opt;
  incr_opt.engine = PlacementEngine::kIncremental;
  QueuingFfdOptions shard_opt;
  shard_opt.engine = PlacementEngine::kSharded;  // default: one shard
  expect_identical(inst, queuing_ffd(inst, incr_opt).result,
                   queuing_ffd(inst, shard_opt).result, "ffd dispatch");
}

// --- Edge cases: m = 1, all infeasible, duplicate keys ------------------

TEST(ShardedEngine, SinglePmFleet) {
  Rng rng(9);
  const auto inst = random_inst(40, 1, rng);
  const auto order = queuing_ffd_order(inst.vms, 4);
  const MapCalTable table(12, kParams, 0.02);
  const auto incr = first_fit_place_reservation(inst, order, table);
  for (const std::size_t shards : {0u, 1u, 8u}) {  // all resolve to 1
    ShardedOptions opt;
    opt.shards = shards;
    opt.threads = 3;
    expect_identical(inst, incr,
                     sharded_place_reservation(inst, order, table, opt),
                     "m=1 shards=" + std::to_string(shards));
  }
}

TEST(ShardedEngine, AllPmsInfeasibleLeavesEveryVmUnplacedInOrder) {
  ProblemInstance inst;
  for (int i = 0; i < 12; ++i)
    inst.vms.push_back(VmSpec{kParams, 50.0 + i, 5.0});
  inst.pms.assign(4, PmSpec{10.0});  // every Rb alone exceeds capacity
  const auto order = queuing_ffd_order(inst.vms, 3);
  const MapCalTable table(8, kParams, 0.02);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ShardedOptions opt;
    opt.shards = shards;
    opt.threads = 2;
    ShardedStats stats;
    const auto result =
        sharded_place_reservation(inst, order, table, opt, &stats);
    EXPECT_EQ(result.placement.vms_assigned(), 0u);
    ASSERT_EQ(result.unplaced.size(), inst.n_vms());
    // Unplaced VMs come back in visit order regardless of sharding.
    for (std::size_t r = 0; r < order.size(); ++r)
      EXPECT_EQ(result.unplaced[r].value, order[r]) << "rank " << r;
    EXPECT_EQ(stats.spills, inst.n_vms());
    EXPECT_EQ(stats.reconcile_placed, 0u);
  }
}

TEST(ShardedEngine, DuplicateSlackKeysTieBreakByLowestIndex) {
  // Identical PMs produce duplicate keys in every tree; first-fit must
  // still pick the lowest-indexed PM within the visited shard order.
  ProblemInstance inst;
  for (int i = 0; i < 20; ++i) inst.vms.push_back(VmSpec{kParams, 4.0, 2.0});
  inst.pms.assign(6, PmSpec{90.0});
  const auto order = queuing_ffd_order(inst.vms, 2);
  const MapCalTable table(12, kParams, 0.02);

  const auto incr = first_fit_place_reservation(inst, order, table);
  ShardedOptions opt;
  opt.shards = 1;
  opt.threads = 4;
  expect_identical(inst, incr,
                   sharded_place_reservation(inst, order, table, opt),
                   "duplicate keys");
  // And thread-invariance with real sharding on the degenerate fleet.
  opt.shards = 3;
  opt.threads = 1;
  const auto a = sharded_place_reservation(inst, order, table, opt);
  opt.threads = 5;
  const auto b = sharded_place_reservation(inst, order, table, opt);
  expect_identical(inst, a, b, "duplicate keys, 3 shards");
}

// --- Online consolidator: shard routing under churn --------------------

// Legacy reference: the pre-shard linear first-fit scan over every PM,
// fed by walk-based aggregates.
class OnlineModel {
 public:
  OnlineModel(std::vector<PmSpec> pms, const MapCalTable& table)
      : pms_(std::move(pms)), table_(table), hosted_(pms_.size()) {}

  std::optional<std::size_t> add(const VmSpec& vm) {
    for (std::size_t j = 0; j < pms_.size(); ++j) {
      if (fits_with_reservation_specs(hosted_[j], vm, pms_[j].capacity,
                                      table_)) {
        hosted_[j].push_back(vm);
        return j;
      }
    }
    return std::nullopt;
  }

  void remove(std::size_t pm, const VmSpec& vm) {
    auto& list = hosted_[pm];
    const auto it = std::find_if(list.begin(), list.end(), [&](const VmSpec& v) {
      return v.rb == vm.rb && v.re == vm.re;
    });
    ASSERT_NE(it, list.end());
    // Order-preserving, mirroring LiveFleet's hosted lists.
    list.erase(it);
  }

 private:
  std::vector<PmSpec> pms_;
  MapCalTable table_;
  std::vector<std::vector<VmSpec>> hosted_;
};

TEST(OnlineSharded, SingleShardChurnMatchesLegacyLinearScan) {
  Rng rng(616);
  const std::vector<PmSpec> pms(12, PmSpec{90.0});
  QueuingFfdOptions opt;
  opt.rho = 0.02;
  opt.max_vms_per_pm = 12;
  OnlineConsolidator online(pms, opt, kParams);
  OnlineModel model(pms, online.table());

  std::vector<std::pair<VmHandle, VmSpec>> live;
  for (std::size_t step = 0; step < 400; ++step) {
    const bool do_add = live.empty() || rng.next_below(3) != 0;
    if (do_add) {
      VmSpec vm{kParams, rng.uniform(2.0, 20.0), rng.uniform(2.0, 20.0)};
      const auto h = online.add_vm(vm);
      const auto expected = model.add(vm);
      ASSERT_EQ(h.has_value(), expected.has_value()) << "step " << step;
      if (h) {
        ASSERT_EQ(online.pm_of(*h).value, *expected) << "step " << step;
        live.emplace_back(*h, vm);
      }
    } else {
      const std::size_t pick = rng.next_below(live.size());
      const auto [h, vm] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      model.remove(online.pm_of(h).value, vm);
      online.remove_vm(h);
    }
  }
  EXPECT_TRUE(online.reservation_invariant_holds());
}

TEST(OnlineSharded, MultiShardChurnIsReproducible) {
  const std::vector<PmSpec> pms(16, PmSpec{90.0});
  QueuingFfdOptions opt;
  opt.rho = 0.02;
  opt.max_vms_per_pm = 12;
  opt.sharded.shards = 4;

  const auto run = [&] {
    Rng rng(99);  // identical op stream for both runs
    OnlineConsolidator online(pms, opt, kParams);
    std::vector<VmHandle> live;
    std::vector<std::size_t> trace;
    for (std::size_t step = 0; step < 300; ++step) {
      const std::size_t kind = rng.next_below(4);
      if (live.empty() || kind != 0) {
        VmSpec vm{kParams, rng.uniform(2.0, 20.0), rng.uniform(2.0, 20.0)};
        if (const auto h = online.add_vm(vm)) {
          live.push_back(*h);
          trace.push_back(online.pm_of(*h).value);
        } else {
          trace.push_back(static_cast<std::size_t>(-1));
        }
      } else if (kind == 0 && !live.empty()) {
        const std::size_t pick = rng.next_below(live.size());
        online.remove_vm(live[pick]);
        live[pick] = live.back();
        live.pop_back();
        trace.push_back(static_cast<std::size_t>(-2));
      }
    }
    EXPECT_TRUE(online.reservation_invariant_holds());
    trace.push_back(online.pms_used());
    trace.push_back(online.vms_hosted());
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(OnlineSharded, ResizeInPlaceMoveAndRollback) {
  // Re = 1 everywhere and max_vms_per_pm = 8 bound the reservation term
  // by 8, so the assertions below hold for any blocks(k) in [1, 8].
  const std::vector<PmSpec> pms{PmSpec{40.0}, PmSpec{1000.0},
                                PmSpec{1000.0}};
  QueuingFfdOptions opt;
  opt.rho = 0.02;
  opt.max_vms_per_pm = 8;
  OnlineConsolidator online(pms, opt, kParams);

  const auto h = online.add_vm(VmSpec{kParams, 10.0, 1.0});
  ASSERT_TRUE(h.has_value());
  const PmId original = online.pm_of(*h);
  EXPECT_EQ(original.value, 0u);  // first fit picks the first PM

  // Grow within capacity (30 + <=8 <= 40): stays put.
  EXPECT_TRUE(online.resize_vm(*h, VmSpec{kParams, 30.0, 1.0}));
  EXPECT_EQ(online.pm_of(*h), original);
  EXPECT_EQ(online.spec_of(*h).rb, 30.0);
  EXPECT_TRUE(online.reservation_invariant_holds());

  // Grow past the PM's raw capacity: the VM must migrate off PM 0.
  EXPECT_TRUE(online.resize_vm(*h, VmSpec{kParams, 45.0, 1.0}));
  EXPECT_NE(online.pm_of(*h), original);
  EXPECT_EQ(online.spec_of(*h).rb, 45.0);
  EXPECT_TRUE(online.reservation_invariant_holds());

  // Impossible growth: rolled back in place, handle still valid.
  const PmId before = online.pm_of(*h);
  EXPECT_FALSE(online.resize_vm(*h, VmSpec{kParams, 5000.0, 1.0}));
  EXPECT_EQ(online.pm_of(*h), before);
  EXPECT_EQ(online.spec_of(*h).rb, 45.0);
  EXPECT_TRUE(online.reservation_invariant_holds());
}

// Both online front ends run on one LiveFleet, so the same op stream must
// get the same answer from each: the same PM or the same rejection, and
// the same handle for every admission.
TEST(OnlineSharded, ControllerMakesTheSameDecisions) {
  const std::vector<PmSpec> pms(12, PmSpec{90.0});
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(shards);
    QueuingFfdOptions opt;
    opt.rho = 0.02;
    opt.max_vms_per_pm = 12;
    opt.sharded.shards = shards;
    ControllerConfig cfg;
    cfg.ffd = opt;
    // The controller calibrates its first table with default parameters.
    OnlineConsolidator online(pms, opt, OnOffParams{});
    CloudController ctl(pms, cfg, Rng(5));

    Rng rng(2024);
    std::vector<std::pair<VmHandle, TenantId>> live;
    for (std::size_t step = 0; step < 600; ++step) {
      const std::size_t kind = live.empty() ? 0 : rng.next_below(4);
      if (kind <= 1) {
        const VmSpec vm{kParams, rng.uniform(2.0, 20.0),
                        rng.uniform(2.0, 20.0)};
        const auto h = online.add_vm(vm);
        const auto t = ctl.admit(vm);
        ASSERT_EQ(h.has_value(), t.has_value()) << "admit, step " << step;
        if (!h) continue;
        ASSERT_EQ(h->slot, t->slot) << "step " << step;
        ASSERT_EQ(online.pm_of(*h), ctl.pm_of(*t)) << "step " << step;
        live.emplace_back(*h, *t);
      } else if (kind == 2) {
        const std::size_t pick = rng.next_below(live.size());
        const auto [h, t] = live[pick];
        live[pick] = live.back();
        live.pop_back();
        online.remove_vm(h);
        ctl.depart(t);
      } else {
        const auto [h, t] = live[rng.next_below(live.size())];
        // Up to 60: most resizes stay, some move, some find no PM.
        const VmSpec vm{kParams, rng.uniform(2.0, 60.0),
                        rng.uniform(2.0, 20.0)};
        ASSERT_EQ(online.resize_vm(h, vm), ctl.resize(t, vm))
            << "resize, step " << step;
        ASSERT_EQ(online.pm_of(h), ctl.pm_of(t)) << "step " << step;
        ASSERT_EQ(online.spec_of(h).rb, ctl.spec_of(t).rb) << "step " << step;
      }
      ASSERT_EQ(online.pms_used(), ctl.pms_used()) << "step " << step;
    }
    EXPECT_TRUE(online.reservation_invariant_holds());
    EXPECT_TRUE(ctl.reservation_invariant_holds());
    EXPECT_EQ(online.vms_hosted(), ctl.stats().vms_hosted);
    // The stream reaches every admission and resize outcome.
    EXPECT_GT(ctl.stats().rejections, 0u);
    EXPECT_GT(ctl.stats().resize_migrations, 0u);
    EXPECT_GT(ctl.stats().resize_rejections, 0u);
  }
}

// --- Controller: sharded routing stays deterministic -------------------

TEST(ControllerSharded, MultiShardRunsAreReproducible) {
  const auto run = [] {
    std::vector<PmSpec> pms(24, PmSpec{90.0});
    ControllerConfig cfg;
    cfg.ffd.rho = 0.02;
    cfg.ffd.max_vms_per_pm = 12;
    cfg.ffd.sharded.shards = 6;
    CloudController ctl(pms, cfg, Rng(7));

    Rng rng(1234);
    std::vector<TenantId> live;
    for (std::size_t step = 0; step < 200; ++step) {
      if (live.empty() || rng.next_below(3) != 0) {
        VmSpec vm{kParams, rng.uniform(2.0, 15.0), rng.uniform(2.0, 15.0)};
        if (const auto id = ctl.admit(vm)) live.push_back(*id);
      } else {
        const std::size_t pick = rng.next_below(live.size());
        ctl.depart(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
      if (step % 16 == 0 && !live.empty())
        ctl.resize(live.front(),
                   VmSpec{kParams, rng.uniform(2.0, 15.0),
                          rng.uniform(2.0, 15.0)});
      if (step % 25 == 0) ctl.tick();
      EXPECT_TRUE(ctl.reservation_invariant_holds()) << "step " << step;
    }
    std::vector<std::size_t> fingerprint;
    for (const auto id : live) fingerprint.push_back(ctl.pm_of(id).value);
    fingerprint.push_back(ctl.stats().admissions);
    fingerprint.push_back(ctl.stats().rejections);
    fingerprint.push_back(ctl.stats().resizes);
    fingerprint.push_back(ctl.stats().resize_migrations);
    fingerprint.push_back(ctl.pms_used());
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

TEST(ControllerSharded, CrashEvacuationWorksAcrossShards) {
  std::vector<PmSpec> pms(8, PmSpec{90.0});
  ControllerConfig cfg;
  cfg.ffd.rho = 0.02;
  cfg.ffd.max_vms_per_pm = 12;
  cfg.ffd.sharded.shards = 4;
  CloudController ctl(pms, cfg, Rng(3));

  std::vector<TenantId> ids;
  for (int i = 0; i < 24; ++i) {
    const auto id = ctl.admit(VmSpec{kParams, 8.0, 4.0});
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  // Crash every PM that hosts tenant 0's shard-mates; conservation must
  // hold: nothing is lost, everything is re-placed or queued.
  ctl.inject_pm_crash(ctl.pm_of(ids[0]));
  EXPECT_TRUE(ctl.reservation_invariant_holds());
  std::size_t placed = 0;
  for (const auto id : ids)
    if (ctl.pm_of(id).valid()) ++placed;
  EXPECT_EQ(placed + ctl.queued_tenants(), ids.size());

  // A resize on a queued tenant (if any) must not throw; on a placed one
  // it must preserve the invariant.
  EXPECT_TRUE(ctl.resize(ids[1], VmSpec{kParams, 9.0, 4.0}));
  EXPECT_TRUE(ctl.reservation_invariant_holds());
}

TEST(ControllerSharded, DecisionBudgetRejectsDeterministically) {
  std::vector<PmSpec> pms(16, PmSpec{30.0});
  ControllerConfig cfg;
  cfg.ffd.rho = 0.02;
  cfg.ffd.max_vms_per_pm = 4;
  cfg.ffd.sharded.shards = 4;
  cfg.ffd.sharded.decision_budget = 1;  // one exact check per decision

  const auto run = [&] {
    CloudController ctl(pms, cfg, Rng(11));
    std::vector<std::size_t> outcome;
    for (int i = 0; i < 40; ++i) {
      const auto id = ctl.admit(VmSpec{kParams, 12.0, 6.0});
      outcome.push_back(id ? ctl.pm_of(*id).value
                           : static_cast<std::size_t>(-1));
    }
    outcome.push_back(ctl.stats().rejections);
    return outcome;
  };
  const auto a = run();
  EXPECT_EQ(a, run());
  // The tight budget must actually bite on this saturated fleet.
  EXPECT_GT(a.back(), 0u);
}

}  // namespace
}  // namespace burstq

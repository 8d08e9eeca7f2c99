// Property tests for the incremental placement engine: the slack-tree
// first-fit must be bit-identical to the naive linear-scan driver, the
// cached per-PM aggregates must track the walk-based reference through
// arbitrary assign/unassign churn, and the MapCal table cache must make
// repeated identical QueuingFFD runs solve-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "placement/cluster.h"
#include "placement/first_fit.h"
#include "placement/incremental.h"
#include "placement/pm_slack_tree.h"
#include "placement/queuing_ffd.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq {
namespace {

const OnOffParams kParams{0.02, 0.08};

ProblemInstance random_churn_instance(std::size_t n, std::size_t m,
                                      Rng& rng) {
  return random_instance(n, m, kParams, InstanceRanges{}, rng);
}

void expect_identical(const ProblemInstance& inst, const PlacementResult& a,
                      const PlacementResult& b, const char* what) {
  EXPECT_EQ(a.unplaced, b.unplaced) << what;
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    ASSERT_EQ(a.placement.pm_of(VmId{i}), b.placement.pm_of(VmId{i}))
        << what << ": VM " << i;
}

// --- Tentpole part 2: slack-tree first-fit == naive driver -------------

TEST(IncrementalEngine, FirstFitMatchesNaiveOnRandomInstances) {
  for (std::uint64_t seed : {1u, 17u, 98u, 4242u}) {
    Rng rng(seed);
    const auto inst = random_churn_instance(300, 60, rng);
    const auto order = queuing_ffd_order(inst.vms, 8);
    const MapCalTable table(12, kParams, 0.02);

    const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
      return fits_with_reservation(inst, p, vm, pm, table);
    };
    const auto naive = first_fit_place(inst, order, fits);
    IncrementalStats stats;
    const auto incr = first_fit_place_reservation(inst, order, table, &stats);
    expect_identical(inst, naive, incr, "seed run");
    // Saturated instances exercise the "no PM fits" path too.
    EXPECT_GT(stats.tree_descents, 0u);
    EXPECT_GE(stats.exact_checks, inst.n_vms() - incr.unplaced.size());
  }
}

TEST(IncrementalEngine, FirstFitMatchesNaiveUnderLooseAndTightFleets) {
  Rng rng(7);
  for (const std::size_t m : {10u, 40u, 200u}) {
    const auto inst = random_churn_instance(200, m, rng);
    const auto order = queuing_ffd_order(inst.vms, 4);
    const MapCalTable table(16, kParams, 0.01);
    const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
      return fits_with_reservation(inst, p, vm, pm, table);
    };
    expect_identical(inst, first_fit_place(inst, order, fits),
                     first_fit_place_reservation(inst, order, table),
                     "fleet size sweep");
  }
}

// The engine before its aggregates went flat: one Placement::assign per
// VM and keys read back off the bound placement.  Reference for the
// engine's result and for its IncrementalStats.
PlacementResult assign_per_vm_engine(const ProblemInstance& inst,
                                     std::span<const std::size_t> order,
                                     const MapCalTable& table,
                                     IncrementalStats& stats) {
  PlacementResult result{Placement(inst), {}};
  Placement& p = result.placement;
  const auto key = [&](std::size_t j) {
    const PmId pm{j};
    return conservative_admit_key(inst.pms[j].capacity, p.count_on(pm),
                                  p.rb_sum_on(pm), p.re_max_on(pm), table);
  };
  std::vector<double> keys(inst.n_pms());
  for (std::size_t j = 0; j < keys.size(); ++j) keys[j] = key(j);
  PmSlackTree tree(std::move(keys));
  for (const std::size_t vi : order) {
    bool placed = false;
    for (std::size_t from = 0;;) {
      ++stats.tree_descents;
      const std::size_t j = tree.find_first_ge(inst.vms[vi].rb, from);
      if (j == PmSlackTree::npos) break;
      ++stats.exact_checks;
      if (fits_with_reservation(inst, p, VmId{vi}, PmId{j}, table)) {
        p.assign(VmId{vi}, PmId{j});
        tree.update(j, key(j));
        placed = true;
        break;
      }
      from = j + 1;
    }
    if (!placed) result.unplaced.push_back(VmId{vi});
  }
  return result;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Everything a caller can read off the result: mapping, list order,
// aggregate bits, counts and the unplaced list.
void expect_same_result(const ProblemInstance& inst, const PlacementResult& a,
                        const PlacementResult& b, const std::string& what) {
  expect_identical(inst, a, b, what.c_str());
  ASSERT_EQ(a.placement.pms_used(), b.placement.pms_used()) << what;
  ASSERT_EQ(a.placement.vms_assigned(), b.placement.vms_assigned()) << what;
  for (std::size_t j = 0; j < inst.n_pms(); ++j) {
    const PmId pm{j};
    ASSERT_EQ(a.placement.vms_on(pm), b.placement.vms_on(pm))
        << what << ": PM " << j;
    ASSERT_EQ(bits(a.placement.rb_sum_on(pm)), bits(b.placement.rb_sum_on(pm)))
        << what << ": PM " << j;
    ASSERT_EQ(bits(a.placement.re_max_on(pm)), bits(b.placement.re_max_on(pm)))
        << what << ": PM " << j;
  }
}

TEST(IncrementalEngine, MatchesNaiveOnSaturatedHeterogeneousAndDOneFleets) {
  struct Case {
    const char* name;
    std::size_t n, m, d;
    InstanceRanges ranges;
    bool every_pm_infeasible{false};
  };
  InstanceRanges hetero;
  hetero.capacity_lo = 20.0;
  hetero.capacity_hi = 160.0;
  // Every Rb alone exceeds every capacity.
  InstanceRanges infeasible;
  infeasible.rb_lo = 50.0;
  infeasible.rb_hi = 62.0;
  infeasible.capacity_lo = infeasible.capacity_hi = 10.0;
  // Identical VMs on identical PMs: duplicate keys all over the tree, so
  // first-fit must break every tie by the lowest PM index.
  InstanceRanges identical;
  identical.rb_lo = identical.rb_hi = 4.0;
  identical.re_lo = identical.re_hi = 2.0;
  identical.capacity_lo = identical.capacity_hi = 90.0;
  const Case cases[] = {
      {"saturated", 400, 15, 16, InstanceRanges{}},
      {"d=1", 120, 150, 1, InstanceRanges{}},
      {"d=1 saturated", 120, 40, 1, InstanceRanges{}},
      {"heterogeneous capacities", 500, 120, 12, hetero},
      {"heterogeneous saturated", 500, 30, 8, hetero},
      {"m=1 saturated", 40, 1, 12, InstanceRanges{}},
      {"every PM infeasible", 12, 4, 8, infeasible, true},
      {"identical PMs, duplicate keys", 20, 6, 12, identical},
  };
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {3u, 71u}) {
      Rng rng(seed);
      const auto inst = random_instance(c.n, c.m, kParams, c.ranges, rng);
      const auto order = queuing_ffd_order(inst.vms, 8);
      const MapCalTable table(c.d, kParams, 0.02);
      const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
        return fits_with_reservation(inst, p, vm, pm, table);
      };
      const std::string what =
          std::string(c.name) + " seed " + std::to_string(seed);

      IncrementalStats stats;
      const auto engine =
          first_fit_place_reservation(inst, order, table, &stats);
      expect_same_result(inst, first_fit_place(inst, order, fits), engine,
                         what);
      IncrementalStats ref_stats;
      const auto ref = assign_per_vm_engine(inst, order, table, ref_stats);
      expect_same_result(inst, ref, engine, what + " (assign per VM)");
      EXPECT_EQ(stats.tree_descents, ref_stats.tree_descents) << what;
      EXPECT_EQ(stats.exact_checks, ref_stats.exact_checks) << what;
      if (std::string(c.name).find("saturated") != std::string::npos) {
        EXPECT_FALSE(engine.unplaced.empty()) << what;
      }
      if (c.every_pm_infeasible) {
        // Every VM comes back unplaced, in visit order.
        EXPECT_EQ(engine.placement.vms_assigned(), 0u) << what;
        ASSERT_EQ(engine.unplaced.size(), order.size()) << what;
        for (std::size_t r = 0; r < order.size(); ++r)
          EXPECT_EQ(engine.unplaced[r].value, order[r]) << what;
      }
    }
  }
}

// --- Edge cases: m = 1, all infeasible, duplicate keys ------------------
// The suite keeps the name it had while a sharded variant of the engine
// existed; every case now pins the one engine (S = 1) against the naive
// driver and the assign-per-VM reference.

TEST(ShardedEngine, SinglePmFleet) {
  Rng rng(9);
  const auto inst = random_churn_instance(40, 1, rng);
  const auto order = queuing_ffd_order(inst.vms, 4);
  const MapCalTable table(12, kParams, 0.02);
  const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
    return fits_with_reservation(inst, p, vm, pm, table);
  };
  IncrementalStats stats;
  const auto engine = first_fit_place_reservation(inst, order, table, &stats);
  expect_same_result(inst, first_fit_place(inst, order, fits), engine, "m=1");
  IncrementalStats ref_stats;
  const auto ref = assign_per_vm_engine(inst, order, table, ref_stats);
  expect_same_result(inst, ref, engine, "m=1 (assign per VM)");
  EXPECT_EQ(stats.tree_descents, ref_stats.tree_descents);
  EXPECT_EQ(stats.exact_checks, ref_stats.exact_checks);
  EXPECT_GT(engine.placement.vms_assigned(), 0u);
  EXPECT_FALSE(engine.unplaced.empty());
}

TEST(ShardedEngine, AllPmsInfeasibleLeavesEveryVmUnplacedInOrder) {
  ProblemInstance inst;
  for (int i = 0; i < 12; ++i)
    inst.vms.push_back(VmSpec{kParams, 50.0 + i, 5.0});
  inst.pms.assign(4, PmSpec{10.0});  // every Rb alone exceeds capacity
  const auto order = queuing_ffd_order(inst.vms, 3);
  const MapCalTable table(8, kParams, 0.02);
  IncrementalStats stats;
  const auto result = first_fit_place_reservation(inst, order, table, &stats);
  EXPECT_EQ(result.placement.vms_assigned(), 0u);
  EXPECT_EQ(result.placement.pms_used(), 0u);
  ASSERT_EQ(result.unplaced.size(), inst.n_vms());
  for (std::size_t r = 0; r < order.size(); ++r)
    EXPECT_EQ(result.unplaced[r].value, order[r]) << "rank " << r;
  // The tree rejects every VM on one descent, before any exact check.
  EXPECT_EQ(stats.tree_descents, inst.n_vms());
  EXPECT_EQ(stats.exact_checks, 0u);
}

TEST(ShardedEngine, DuplicateSlackKeysTieBreakByLowestIndex) {
  // Identical PMs produce duplicate keys all over the tree; first-fit
  // must still pick the lowest-indexed PM that admits the VM.
  ProblemInstance inst;
  for (int i = 0; i < 20; ++i) inst.vms.push_back(VmSpec{kParams, 4.0, 2.0});
  inst.pms.assign(6, PmSpec{90.0});
  const auto order = queuing_ffd_order(inst.vms, 2);
  const MapCalTable table(12, kParams, 0.02);
  const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
    return fits_with_reservation(inst, p, vm, pm, table);
  };
  const auto engine = first_fit_place_reservation(inst, order, table);
  expect_same_result(inst, first_fit_place(inst, order, fits), engine,
                     "duplicate keys");
  ASSERT_TRUE(engine.unplaced.empty());
  // Identical VMs fill PM 0 before PM 1 gets any, and so on: the host
  // index never falls along the visit order.
  std::size_t prev = 0;
  for (const std::size_t vi : order) {
    const std::size_t pm = engine.placement.pm_of(VmId{vi}).value;
    EXPECT_GE(pm, prev) << "VM " << vi;
    prev = pm;
  }
  EXPECT_GT(prev, 0u) << "the fleet must need more than one PM";
  EXPECT_EQ(engine.placement.pms_used(), prev + 1);
}

TEST(IncrementalEngine, RejectsAnOrderThatNamesAVmTwiceOrOutOfRange) {
  Rng rng(5);
  const auto inst = random_churn_instance(20, 10, rng);
  const MapCalTable table(8, kParams, 0.02);
  std::vector<std::size_t> order(inst.n_vms());
  std::iota(order.begin(), order.end(), 0);
  order[7] = 3;
  EXPECT_THROW((void)first_fit_place_reservation(inst, order, table),
               InvalidArgument);
  order[7] = inst.n_vms();
  EXPECT_THROW((void)first_fit_place_reservation(inst, order, table),
               InvalidArgument);
  order.pop_back();
  EXPECT_THROW((void)first_fit_place_reservation(inst, order, table),
               InvalidArgument);
}

// --- One validation walk per call; every entry point still throws ------

std::vector<ProblemInstance> invalid_instances() {
  Rng rng(8);
  const auto valid = random_churn_instance(30, 10, rng);
  std::vector<ProblemInstance> bad(4, valid);
  bad[0].vms[4].rb = -1.0;
  bad[1].vms[9].re = std::numeric_limits<double>::quiet_NaN();
  bad[2].pms[2].capacity = 0.0;
  bad[3].vms[0].onoff.p_on = 1.5;
  return bad;
}

TEST(InstanceValidation, EveryQueuingFfdEngineThrows) {
  for (const auto& inst : invalid_instances()) {
    for (const PlacementEngine engine :
         {PlacementEngine::kIncremental, PlacementEngine::kNaive}) {
      QueuingFfdOptions opt;
      opt.engine = engine;
      EXPECT_THROW((void)queuing_ffd(inst, opt), InvalidArgument);
    }
    QueuingFfdOptions best;
    best.use_best_fit = true;
    EXPECT_THROW((void)queuing_ffd(inst, best), InvalidArgument);
  }
}

TEST(InstanceValidation, QueuingFfdWithTableThrows) {
  const MapCalTable table(16, kParams, 0.01);
  for (const auto& inst : invalid_instances())
    EXPECT_THROW((void)queuing_ffd_with_table(inst, table), InvalidArgument);
}

TEST(InstanceValidation, DirectFirstFitReservationThrows) {
  const MapCalTable table(16, kParams, 0.01);
  for (const auto& inst : invalid_instances()) {
    std::vector<std::size_t> order(inst.n_vms());
    std::iota(order.begin(), order.end(), 0);
    EXPECT_THROW((void)first_fit_place_reservation(inst, order, table),
                 InvalidArgument);
  }
}

TEST(IncrementalEngine, QueuingFfdEnginesAgree) {
  Rng rng(55);
  const auto inst = random_churn_instance(400, 80, rng);
  QueuingFfdOptions naive_opt;
  naive_opt.engine = PlacementEngine::kNaive;
  QueuingFfdOptions incr_opt;
  incr_opt.engine = PlacementEngine::kIncremental;
  expect_identical(inst, queuing_ffd(inst, naive_opt).result,
                   queuing_ffd(inst, incr_opt).result, "queuing_ffd");
}

// --- Satellite: best-fit on a bound placement keeps seed semantics -----

TEST(IncrementalEngine, BestFitBoundMatchesWalkReference) {
  Rng rng(31);
  const auto inst = random_churn_instance(250, 50, rng);
  const auto order = queuing_ffd_order(inst.vms, 8);
  const MapCalTable table(12, kParams, 0.02);

  const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
    return fits_with_reservation(inst, p, vm, pm, table);
  };
  const auto slack = [&](const Placement& p, VmId vm, PmId pm) {
    const std::size_t k_new = p.vms_on(pm).size() + 1;
    const Resource block =
        std::max(inst.vms[vm.value].re, max_re_on(inst, p, pm));
    return inst.pms[pm.value].capacity -
           (block * static_cast<double>(table.blocks(k_new)) +
            inst.vms[vm.value].rb + total_rb_on(inst, p, pm));
  };
  const auto bound = best_fit_place(inst, order, fits, slack);

  // Reference: same predicate/slack arithmetic forced through the
  // walk-based helpers on an unbound placement.
  PlacementResult ref{Placement(inst.n_vms(), inst.n_pms()), {}};
  for (const std::size_t vi : order) {
    const VmId vm{vi};
    PmId best{};
    double best_slack = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < inst.n_pms(); ++j) {
      const PmId pm{j};
      if (!fits_with_reservation(inst, ref.placement, vm, pm, table))
        continue;
      const std::size_t k_new = ref.placement.vms_on(pm).size() + 1;
      const Resource block = std::max(inst.vms[vm.value].re,
                                      max_re_on_walk(inst, ref.placement, pm));
      const double s =
          inst.pms[pm.value].capacity -
          (block * static_cast<double>(table.blocks(k_new)) +
           inst.vms[vm.value].rb + total_rb_on_walk(inst, ref.placement, pm));
      if (s < best_slack) {
        best_slack = s;
        best = pm;
      }
    }
    if (best.valid())
      ref.placement.assign(vm, best);
    else
      ref.unplaced.push_back(vm);
  }
  expect_identical(inst, ref, bound, "best-fit");
}

// --- Tentpole part 1: cached aggregates track the walk reference -------

TEST(IncrementalEngine, AggregatesExactWithoutChurn) {
  Rng rng(13);
  const auto inst = random_churn_instance(120, 12, rng);
  Placement p(inst);
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    p.assign(VmId{i}, PmId{i % inst.n_pms()});
  for (std::size_t j = 0; j < inst.n_pms(); ++j) {
    const PmId pm{j};
    // Append-only assignment adds in list order, so the cached sum is
    // bit-for-bit the walk sum, not merely close.
    EXPECT_EQ(p.rb_sum_on(pm), total_rb_on_walk(inst, p, pm));
    EXPECT_EQ(p.re_max_on(pm), max_re_on_walk(inst, p, pm));
  }
  EXPECT_TRUE(aggregates_consistent(inst, p));
}

TEST(IncrementalEngine, AggregatesConsistentUnderRandomChurn) {
  Rng rng(999);
  const auto inst = random_churn_instance(80, 8, rng);
  Placement p(inst);
  std::vector<std::size_t> assigned;

  for (std::size_t step = 0; step < 2000; ++step) {
    const bool do_assign =
        assigned.empty() ||
        (assigned.size() < inst.n_vms() && rng.next_below(3) != 0);
    if (do_assign) {
      std::size_t vi = 0;
      do {
        vi = rng.next_below(inst.n_vms());
      } while (p.assigned(VmId{vi}));
      p.assign(VmId{vi}, PmId{rng.next_below(inst.n_pms())});
      assigned.push_back(vi);
    } else {
      const std::size_t pick = rng.next_below(assigned.size());
      const std::size_t vi = assigned[pick];
      assigned[pick] = assigned.back();
      assigned.pop_back();
      p.unassign(VmId{vi});
    }
    ASSERT_TRUE(aggregates_consistent(inst, p)) << "step " << step;
  }
}

// --- Satellite: O(1) unassign keeps positions and membership coherent --

TEST(IncrementalEngine, SwapRemoveKeepsMembershipCoherent) {
  Placement p(6, 2);
  for (std::size_t i = 0; i < 6; ++i) p.assign(VmId{i}, PmId{0});
  // Remove from the middle: the tail VM must take the vacated slot.
  p.unassign(VmId{1});
  EXPECT_EQ(p.vms_on(PmId{0}), (std::vector<std::size_t>{0, 5, 2, 3, 4}));
  p.unassign(VmId{5});  // the VM that was just swapped into the middle
  EXPECT_EQ(p.vms_on(PmId{0}), (std::vector<std::size_t>{0, 4, 2, 3}));
  // Every surviving VM still reports the right PM and can be moved again.
  for (const std::size_t vi : {0u, 2u, 3u, 4u}) {
    EXPECT_EQ(p.pm_of(VmId{vi}), PmId{0});
    p.unassign(VmId{vi});
    p.assign(VmId{vi}, PmId{1});
    EXPECT_EQ(p.pm_of(VmId{vi}), PmId{1});
  }
  EXPECT_TRUE(p.vms_on(PmId{0}).empty());
}

// --- PmSlackTree unit coverage -----------------------------------------

TEST(PmSlackTree, FindsLowestIndexAtOrAfterFrom) {
  PmSlackTree tree({5.0, 1.0, 8.0, 3.0, 8.0});
  EXPECT_EQ(tree.find_first_ge(4.0), 0u);
  EXPECT_EQ(tree.find_first_ge(6.0), 2u);
  EXPECT_EQ(tree.find_first_ge(6.0, 3), 4u);
  EXPECT_EQ(tree.find_first_ge(9.0), PmSlackTree::npos);
  EXPECT_EQ(tree.find_first_ge(1.0, 5), PmSlackTree::npos);
  EXPECT_EQ(tree.find_first_ge(8.0, 2), 2u);
}

TEST(PmSlackTree, UpdateMovesTheAnswer) {
  PmSlackTree tree({2.0, 2.0, 2.0, 2.0});
  EXPECT_EQ(tree.find_first_ge(3.0), PmSlackTree::npos);
  tree.update(2, 7.0);
  EXPECT_EQ(tree.find_first_ge(3.0), 2u);
  EXPECT_EQ(tree.key(2), 7.0);
  tree.update(2, 0.0);
  EXPECT_EQ(tree.find_first_ge(3.0), PmSlackTree::npos);
  EXPECT_EQ(tree.find_first_ge(2.0, 1), 1u);
}

TEST(PmSlackTree, NonPowerOfTwoPaddingNeverMatches) {
  // 5 leaves pad to 8; padding holds -inf so a threshold of any finite
  // value (or even -inf itself... which no caller uses) cannot land there.
  PmSlackTree tree({1.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(tree.size(), 5u);
  EXPECT_EQ(tree.find_first_ge(1.0, 4), 4u);
  EXPECT_EQ(tree.find_first_ge(0.0, 5), PmSlackTree::npos);
}

TEST(PmSlackTree, SingleElement) {
  PmSlackTree tree({3.5});
  EXPECT_EQ(tree.find_first_ge(3.0), 0u);
  EXPECT_EQ(tree.find_first_ge(4.0), PmSlackTree::npos);
  tree.update(0, 9.0);
  EXPECT_EQ(tree.find_first_ge(4.0), 0u);
}

TEST(PmSlackTree, RandomizedAgainstLinearScan) {
  Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.next_below(60);
    std::vector<double> keys(n);
    for (auto& k : keys) k = rng.uniform(-5.0, 5.0);
    PmSlackTree tree(keys);
    for (int q = 0; q < 50; ++q) {
      if (rng.next_below(2) == 0) {
        const std::size_t i = rng.next_below(n);
        keys[i] = rng.uniform(-5.0, 5.0);
        tree.update(i, keys[i]);
      }
      const double threshold = rng.uniform(-5.0, 5.0);
      const std::size_t from = rng.next_below(n + 2);
      std::size_t expect = PmSlackTree::npos;
      for (std::size_t i = from; i < n; ++i)
        if (keys[i] >= threshold) {
          expect = i;
          break;
        }
      ASSERT_EQ(tree.find_first_ge(threshold, from), expect)
          << "trial " << trial << " query " << q;
    }
  }
}

TEST(PmSlackTree, RisingAndFallingKeysAgainstLinearScan) {
  // Keys rise as well as fall (a LiveFleet departure raises its PM's key)
  // and include -inf (a PM at its VM cap), so the early stop of update()
  // is exercised both ways; from = 0 takes the root descent.
  const double ninf = -std::numeric_limits<double>::infinity();
  Rng rng(4711);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.next_below(trial < 20 ? 17 : 300);
    std::vector<double> keys(n);
    for (auto& k : keys)
      k = rng.next_below(5) == 0 ? ninf : std::round(rng.uniform(-4, 4));
    PmSlackTree tree(keys);
    for (int q = 0; q < 400; ++q) {
      const std::size_t i = rng.next_below(n);
      const std::uint64_t move = rng.next_below(6);
      if (move == 0)
        keys[i] = ninf;
      else if (move == 1)
        keys[i] = keys[i] == ninf ? 0.0 : keys[i] + rng.uniform(0, 3);
      else if (move == 2)
        keys[i] -= rng.uniform(0, 3);
      else if (move == 3)
        keys[i] = std::round(rng.uniform(-4, 4));  // often an unchanged max
      tree.update(i, keys[i]);
      ASSERT_EQ(tree.key(i), keys[i]);

      const double threshold =
          rng.next_below(10) == 0 ? ninf : std::round(rng.uniform(-5, 5));
      const std::size_t from =
          rng.next_below(3) == 0 ? 0 : rng.next_below(n + 2);
      std::size_t expect = PmSlackTree::npos;
      for (std::size_t j = from; j < n; ++j)
        if (keys[j] >= threshold) {
          expect = j;
          break;
        }
      ASSERT_EQ(tree.find_first_ge(threshold, from), expect)
          << "trial " << trial << " step " << q << " n " << n;
    }
  }
}

// --- Tentpole part 3: MapCal memoization -------------------------------

TEST(MapCalCache, SecondIdenticalRunPerformsNoNewSolves) {
  if (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out";
  Rng rng(77);
  const auto inst = random_churn_instance(150, 30, rng);
  QueuingFfdOptions opt;
  opt.rho = 0.017531;  // unique rho so other tests cannot pre-warm the key

  const auto builds = [] {
    const auto snap = obs::metrics().scrape();
    const auto* c = snap.counter("mapcal.table.builds");
    return c != nullptr ? c->value : 0;
  };
  const auto solves = [] {
    const auto snap = obs::metrics().scrape();
    const auto* c = snap.counter("mapcal.calls");
    return c != nullptr ? c->value : 0;
  };

  const auto first = queuing_ffd(inst, opt);
  const auto builds_after_first = builds();
  const auto solves_after_first = solves();

  const auto second = queuing_ffd(inst, opt);
  EXPECT_EQ(builds() - builds_after_first, 0u)
      << "identical options must hit the table cache";
  EXPECT_EQ(solves() - solves_after_first, 0u)
      << "a cache hit must not run MapCal";
  expect_identical(inst, first.result, second.result, "cached run");
}

TEST(MapCalCache, DistinctKeysBuildDistinctTables) {
  const std::size_t size_before = mapcal_table_cache_size();
  const MapCalTable a(6, kParams, 0.031771);
  EXPECT_EQ(mapcal_table_cache_size(), size_before + 1);
  const MapCalTable b(6, kParams, 0.031771);  // same key: no growth
  EXPECT_EQ(mapcal_table_cache_size(), size_before + 1);
  const MapCalTable c(6, kParams, 0.031772);  // rho differs: new entry
  EXPECT_EQ(mapcal_table_cache_size(), size_before + 2);
  EXPECT_EQ(a.blocks(6), b.blocks(6));
}

TEST(MapCalCache, CachedTableMatchesFreshSolve) {
  // A cache hit must return the same mapping a cold build produces.
  const MapCalTable warm(8, kParams, 0.012345);
  const MapCalTable hit(8, kParams, 0.012345);
  for (std::size_t k = 1; k <= 8; ++k) {
    EXPECT_EQ(warm.blocks(k), hit.blocks(k));
    EXPECT_EQ(warm.blocks(k), map_cal_blocks(k, kParams, 0.012345));
  }
}

}  // namespace
}  // namespace burstq

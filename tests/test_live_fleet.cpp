// The live fleet behind online admission (placement/live_fleet.h), driven
// through both of its front ends.  One slack tree over conservative keys
// must give exactly the linear first-fit scan of paper Section IV-E;
// resizes stay, move or roll back; OnlineConsolidator and CloudController
// make the same decision for every op of one stream; and a PM crash loses
// no tenant.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "placement/online.h"
#include "placement/queuing_ffd.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq {
namespace {

const OnOffParams kParams{0.02, 0.08};

// Reference: the linear first-fit scan over every PM, fed by walk-based
// aggregates.
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

TEST(LiveFleet, ChurnMatchesLinearScan) {
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

TEST(LiveFleet, ResizeStaysMovesAndRollsBack) {
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

  // Grow past the PM's raw capacity: the VM moves to the first PM that
  // admits it, like an arrival.
  EXPECT_TRUE(online.resize_vm(*h, VmSpec{kParams, 45.0, 1.0}));
  EXPECT_EQ(online.pm_of(*h).value, 1u);
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
TEST(LiveFleet, ControllerMakesTheSameDecisions) {
  const std::vector<PmSpec> pms(12, PmSpec{90.0});
  QueuingFfdOptions opt;
  opt.rho = 0.02;
  opt.max_vms_per_pm = 12;
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

TEST(LiveFleet, CrashConservesTenants) {
  std::vector<PmSpec> pms(8, PmSpec{90.0});
  ControllerConfig cfg;
  cfg.ffd.rho = 0.02;
  cfg.ffd.max_vms_per_pm = 12;
  CloudController ctl(pms, cfg, Rng(3));

  std::vector<TenantId> ids;
  for (int i = 0; i < 24; ++i) {
    const auto id = ctl.admit(VmSpec{kParams, 8.0, 4.0});
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  // Crash tenant 0's PM; conservation must hold: nothing is lost,
  // everything is re-placed or queued.
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

}  // namespace
}  // namespace burstq

// Tests for the online consolidator (Section IV-E: arrivals, departures,
// batches, periodic parameter recalibration).

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "placement/online.h"
#include "placement/placement.h"

namespace burstq {
namespace {

const OnOffParams kP{0.01, 0.09};

std::vector<PmSpec> pms(std::size_t m, double cap = 90.0) {
  return std::vector<PmSpec>(m, PmSpec{cap});
}

VmSpec vm(double rb, double re, OnOffParams p = kP) {
  return VmSpec{p, rb, re};
}

TEST(Online, SingleArrivalFirstFit) {
  OnlineConsolidator oc(pms(3), QueuingFfdOptions{}, kP);
  const auto h = oc.add_vm(vm(10, 5));
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(oc.pm_of(*h), PmId{0});
  EXPECT_EQ(oc.vms_hosted(), 1u);
  EXPECT_EQ(oc.pms_used(), 1u);
  EXPECT_TRUE(oc.reservation_invariant_holds());
}

TEST(Online, ArrivalsFillThenSpill) {
  OnlineConsolidator oc(pms(3, 30.0), QueuingFfdOptions{}, kP);
  // Each VM footprint alone: rb 10 + re 5 * blocks(1)=1 -> 15; two VMs:
  // rb 20 + 5 * blocks(2).  Depending on blocks(2), a third may spill.
  std::size_t placed = 0;
  for (int i = 0; i < 6; ++i)
    if (oc.add_vm(vm(10, 5))) ++placed;
  EXPECT_EQ(placed, oc.vms_hosted());
  EXPECT_TRUE(oc.reservation_invariant_holds());
  EXPECT_GE(oc.pms_used(), 2u);
}

TEST(Online, RejectsWhenNoRoom) {
  OnlineConsolidator oc(pms(1, 20.0), QueuingFfdOptions{}, kP);
  EXPECT_TRUE(oc.add_vm(vm(10, 5)).has_value());
  // A VM that cannot fit anywhere is rejected without state corruption.
  EXPECT_FALSE(oc.add_vm(vm(15, 5)).has_value());
  EXPECT_EQ(oc.vms_hosted(), 1u);
  EXPECT_TRUE(oc.reservation_invariant_holds());
}

TEST(Online, RemoveShrinksReservation) {
  OnlineConsolidator oc(pms(2), QueuingFfdOptions{}, kP);
  const auto a = oc.add_vm(vm(20, 10));
  const auto b = oc.add_vm(vm(20, 10));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(oc.vms_hosted(), 2u);
  oc.remove_vm(*a);
  EXPECT_EQ(oc.vms_hosted(), 1u);
  EXPECT_TRUE(oc.reservation_invariant_holds());
  // Slot reuse must hand back a valid handle.
  const auto c = oc.add_vm(vm(5, 5));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(oc.vms_hosted(), 2u);
}

TEST(Online, RemoveTwiceThrows) {
  OnlineConsolidator oc(pms(2), QueuingFfdOptions{}, kP);
  const auto h = oc.add_vm(vm(5, 5));
  ASSERT_TRUE(h.has_value());
  oc.remove_vm(*h);
  EXPECT_THROW(oc.remove_vm(*h), InvalidArgument);
  EXPECT_THROW((void)oc.pm_of(*h), InvalidArgument);
  EXPECT_THROW((void)oc.spec_of(*h), InvalidArgument);
}

TEST(Online, BatchUsesAlgorithm2Ordering) {
  OnlineConsolidator oc(pms(10), QueuingFfdOptions{}, kP);
  Rng rng(3);
  std::vector<VmSpec> batch;
  for (int i = 0; i < 40; ++i)
    batch.push_back(vm(rng.uniform(2, 20), rng.uniform(2, 20)));
  const auto handles = oc.add_batch(batch);
  ASSERT_EQ(handles.size(), batch.size());
  std::size_t placed = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (handles[i]) {
      ++placed;
      EXPECT_DOUBLE_EQ(oc.spec_of(*handles[i]).rb, batch[i].rb);
    }
  }
  EXPECT_EQ(placed, oc.vms_hosted());
  EXPECT_TRUE(oc.reservation_invariant_holds());
}

TEST(Online, EmptyBatchIsNoop) {
  OnlineConsolidator oc(pms(2), QueuingFfdOptions{}, kP);
  EXPECT_TRUE(oc.add_batch({}).empty());
}

TEST(Online, RecalibrateNoopWhenParamsStable) {
  OnlineConsolidator oc(pms(4), QueuingFfdOptions{}, kP);
  for (int i = 0; i < 10; ++i) oc.add_vm(vm(10, 5));
  EXPECT_EQ(oc.recalibrate(), 0u);
  EXPECT_DOUBLE_EQ(oc.rounded_params().p_on, kP.p_on);
}

TEST(Online, RecalibrateTracksPopulationDrift) {
  OnlineConsolidator oc(pms(6), QueuingFfdOptions{}, kP);
  // Admit VMs that are much burstier than the seed parameters.
  const OnOffParams bursty{0.2, 0.2};
  for (int i = 0; i < 8; ++i) oc.add_vm(vm(10, 5, bursty));
  oc.recalibrate();
  EXPECT_NEAR(oc.rounded_params().p_on, 0.2, 1e-12);
  EXPECT_NEAR(oc.rounded_params().p_off, 0.2, 1e-12);
  EXPECT_TRUE(oc.reservation_invariant_holds());
}

TEST(Online, RecalibrateRepairsOverflowingPms) {
  // Pack tightly under calm parameters, then drift to very bursty ones:
  // mapping(k) grows, some PMs overflow, repair migrations must restore
  // the invariant.
  QueuingFfdOptions opt;
  OnlineConsolidator oc(pms(20, 60.0), opt, kP);
  std::vector<VmHandle> handles;
  const OnOffParams calm{0.01, 0.09};
  for (int i = 0; i < 30; ++i) {
    const auto h = oc.add_vm(vm(8, 6, calm));
    if (h) handles.push_back(*h);
  }
  ASSERT_GT(handles.size(), 0u);
  // Replace the population with spike-heavy VMs (remove half, add bursty).
  for (std::size_t i = 0; i < handles.size() / 2; ++i)
    oc.remove_vm(handles[i]);
  const OnOffParams stormy{0.45, 0.05};
  for (int i = 0; i < 10; ++i) oc.add_vm(vm(8, 6, stormy));
  oc.recalibrate();
  EXPECT_TRUE(oc.reservation_invariant_holds());
}

TEST(Online, RecalibrateEvictsTheNewestVmAfterADeparture) {
  // Under the calm seed table four VMs share PM 0; under the bursty
  // population's table only two fit.  A departure must not reorder the
  // PM's list: the repair evicts the newest VM, not the third.
  OnlineConsolidator oc(pms(2, 30.0), QueuingFfdOptions{}, kP);
  const OnOffParams bursty{0.3, 0.05};
  std::vector<VmHandle> h;
  for (int i = 0; i < 4; ++i) {
    const auto a = oc.add_vm(vm(1, 10, bursty));
    ASSERT_TRUE(a.has_value());
    ASSERT_EQ(oc.pm_of(*a), PmId{0});
    h.push_back(*a);
  }
  oc.remove_vm(h[0]);
  EXPECT_EQ(oc.recalibrate(), 1u);
  EXPECT_EQ(oc.pm_of(h[1]), PmId{0});
  EXPECT_EQ(oc.pm_of(h[2]), PmId{0});
  EXPECT_EQ(oc.pm_of(h[3]), PmId{1});
  EXPECT_TRUE(oc.reservation_invariant_holds());
}

TEST(Online, InvalidConstructionThrows) {
  EXPECT_THROW(OnlineConsolidator({}, QueuingFfdOptions{}, kP),
               InvalidArgument);
  QueuingFfdOptions bad;
  bad.rho = 2.0;
  EXPECT_THROW(OnlineConsolidator(pms(2), bad, kP), InvalidArgument);
}

TEST(Online, CountOnMatchesHandles) {
  OnlineConsolidator oc(pms(4), QueuingFfdOptions{}, kP);
  const auto a = oc.add_vm(vm(10, 5));
  const auto b = oc.add_vm(vm(10, 5));
  ASSERT_TRUE(a && b);
  std::size_t total = 0;
  for (std::size_t j = 0; j < 4; ++j) total += oc.count_on(PmId{j});
  EXPECT_EQ(total, 2u);
}

}  // namespace
}  // namespace burstq

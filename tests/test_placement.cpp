// Tests for the Placement container and the Eq. (17) feasibility checks.

#include <gtest/gtest.h>

#include "common/error.h"
#include "placement/placement.h"

namespace burstq {
namespace {

const OnOffParams kParams{0.01, 0.09};

ProblemInstance small_instance() {
  ProblemInstance inst;
  inst.vms = {VmSpec{kParams, 10.0, 4.0}, VmSpec{kParams, 8.0, 6.0},
              VmSpec{kParams, 5.0, 2.0}};
  inst.pms = {PmSpec{50.0}, PmSpec{40.0}};
  return inst;
}

TEST(Placement, AssignUnassignLifecycle) {
  Placement p(3, 2);
  EXPECT_EQ(p.pms_used(), 0u);
  EXPECT_EQ(p.vms_assigned(), 0u);
  p.assign(VmId{0}, PmId{1});
  EXPECT_EQ(p.pms_used(), 1u);
  EXPECT_EQ(p.pm_of(VmId{0}), PmId{1});
  EXPECT_TRUE(p.assigned(VmId{0}));
  p.assign(VmId{1}, PmId{1});
  EXPECT_EQ(p.pms_used(), 1u);
  EXPECT_EQ(p.count_on(PmId{1}), 2u);
  p.unassign(VmId{0});
  EXPECT_EQ(p.count_on(PmId{1}), 1u);
  EXPECT_FALSE(p.assigned(VmId{0}));
  p.unassign(VmId{1});
  EXPECT_EQ(p.pms_used(), 0u);
}

TEST(Placement, DoubleAssignThrows) {
  Placement p(2, 2);
  p.assign(VmId{0}, PmId{0});
  EXPECT_THROW(p.assign(VmId{0}, PmId{1}), InvalidArgument);
}

TEST(Placement, UnassignUnassignedThrows) {
  Placement p(2, 2);
  EXPECT_THROW(p.unassign(VmId{0}), InvalidArgument);
}

TEST(Placement, OutOfRangeThrows) {
  Placement p(2, 2);
  EXPECT_THROW(p.assign(VmId{5}, PmId{0}), InvalidArgument);
  EXPECT_THROW(p.assign(VmId{0}, PmId{5}), InvalidArgument);
  EXPECT_THROW((void)p.pm_of(VmId{9}), InvalidArgument);
  EXPECT_THROW((void)p.vms_on(PmId{9}), InvalidArgument);
}

TEST(Placement, VmsOnTracksMembers) {
  Placement p(3, 2);
  p.assign(VmId{2}, PmId{0});
  p.assign(VmId{0}, PmId{0});
  const auto& list = p.vms_on(PmId{0});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], 2u);
  EXPECT_EQ(list[1], 0u);
}

TEST(Aggregates, TotalRbAndMaxRe) {
  const auto inst = small_instance();
  Placement p(3, 2);
  p.assign(VmId{0}, PmId{0});
  p.assign(VmId{1}, PmId{0});
  EXPECT_DOUBLE_EQ(total_rb_on(inst, p, PmId{0}), 18.0);
  EXPECT_DOUBLE_EQ(max_re_on(inst, p, PmId{0}), 6.0);
  EXPECT_DOUBLE_EQ(total_rb_on(inst, p, PmId{1}), 0.0);
  EXPECT_DOUBLE_EQ(max_re_on(inst, p, PmId{1}), 0.0);
}

TEST(ReservedFootprint, MatchesEq17Arithmetic) {
  const auto inst = small_instance();
  const MapCalTable table(4, kParams, 0.01);
  Placement p(3, 2);
  p.assign(VmId{0}, PmId{0});
  p.assign(VmId{1}, PmId{0});
  const double expected =
      6.0 * static_cast<double>(table.blocks(2)) + 18.0;
  EXPECT_DOUBLE_EQ(reserved_footprint(inst, p, PmId{0}, table), expected);
}

TEST(FitsWithReservation, AcceptsWhenRoomRejectsWhenFull) {
  const auto inst = small_instance();
  const MapCalTable table(4, kParams, 0.01);
  Placement p(3, 2);
  // PM0 capacity 50: VM0 footprint = 4*blocks(1) + 10.  blocks(1) is 1
  // (a single VM's spike has probability q = 0.1 > rho).
  EXPECT_TRUE(fits_with_reservation(inst, p, VmId{0}, PmId{0}, table));
  p.assign(VmId{0}, PmId{0});
  EXPECT_TRUE(fits_with_reservation(inst, p, VmId{1}, PmId{0}, table));
  p.assign(VmId{1}, PmId{0});
  // Footprint with all three: rb 23 + 6*blocks(3).
  const bool third_fits =
      23.0 + 6.0 * static_cast<double>(table.blocks(3)) <= 50.0;
  EXPECT_EQ(fits_with_reservation(inst, p, VmId{2}, PmId{0}, table),
            third_fits);
}

TEST(FitsWithReservation, RespectsVmCap) {
  // Table with d = 1: second VM must be rejected regardless of capacity.
  const auto inst = small_instance();
  const MapCalTable table(1, kParams, 0.01);
  Placement p(3, 2);
  p.assign(VmId{0}, PmId{0});
  EXPECT_FALSE(fits_with_reservation(inst, p, VmId{2}, PmId{0}, table));
}

TEST(FitsWithReservation, SpecsVariantAgrees) {
  const auto inst = small_instance();
  const MapCalTable table(4, kParams, 0.01);
  Placement p(3, 2);
  p.assign(VmId{0}, PmId{0});
  p.assign(VmId{1}, PmId{0});
  const std::vector<VmSpec> hosted{inst.vms[0], inst.vms[1]};
  EXPECT_EQ(
      fits_with_reservation(inst, p, VmId{2}, PmId{0}, table),
      fits_with_reservation_specs(hosted, inst.vms[2], 50.0, table));
  EXPECT_DOUBLE_EQ(reserved_footprint(inst, p, PmId{0}, table),
                   reserved_footprint_specs(hosted, table));
}

TEST(PlacementValidation, ReservationAndInitialCapacity) {
  const auto inst = small_instance();
  const MapCalTable table(4, kParams, 0.01);
  Placement good(3, 2);
  good.assign(VmId{0}, PmId{0});
  good.assign(VmId{1}, PmId{1});
  good.assign(VmId{2}, PmId{1});
  EXPECT_TRUE(placement_satisfies_reservation(inst, good, table));
  EXPECT_TRUE(placement_satisfies_initial_capacity(inst, good));
}

TEST(PlacementValidation, DetectsOverCapacity) {
  ProblemInstance inst;
  inst.vms = {VmSpec{kParams, 30.0, 1.0}, VmSpec{kParams, 30.0, 1.0}};
  inst.pms = {PmSpec{40.0}};
  Placement p(2, 1);
  p.assign(VmId{0}, PmId{0});
  p.assign(VmId{1}, PmId{0});
  const MapCalTable table(4, kParams, 0.01);
  EXPECT_FALSE(placement_satisfies_initial_capacity(inst, p));
  EXPECT_FALSE(placement_satisfies_reservation(inst, p, table));
}

TEST(PlacementValidation, DetectsVmCapViolation) {
  ProblemInstance inst;
  inst.vms = {VmSpec{kParams, 1.0, 1.0}, VmSpec{kParams, 1.0, 1.0}};
  inst.pms = {PmSpec{100.0}};
  Placement p(2, 1);
  p.assign(VmId{0}, PmId{0});
  p.assign(VmId{1}, PmId{0});
  const MapCalTable table(1, kParams, 0.01);  // d = 1
  EXPECT_FALSE(placement_satisfies_reservation(inst, p, table));
}

// --- Adopting constructor ---------------------------------------------

// small_instance() mapped VM0, VM2 -> PM0 (in that list order) and VM1
// unplaced, with aggregates as assign() would accumulate them.
PlacementState small_state() {
  PlacementState st;
  st.pm_of = {PmId{0}, PmId{}, PmId{0}};
  st.vms_on = {{2, 0}, {}};
  st.bound = true;
  st.rb_sum = {5.0 + 10.0, 0.0};
  st.re_max = {4.0, 0.0};
  return st;
}

TEST(AdoptingPlacement, TakesListsAndAggregatesAsGiven) {
  const auto inst = small_instance();
  Placement p(inst, small_state());
  EXPECT_TRUE(p.tracks_aggregates(inst));
  EXPECT_EQ(p.pm_of(VmId{0}), PmId{0});
  EXPECT_FALSE(p.assigned(VmId{1}));
  EXPECT_EQ(p.vms_on(PmId{0}), (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(p.pms_used(), 1u);
  EXPECT_EQ(p.vms_assigned(), 2u);
  EXPECT_EQ(p.rb_sum_on(PmId{0}), 15.0);
  EXPECT_EQ(p.re_max_on(PmId{0}), 4.0);
  // The position index was rebuilt: swap-remove and re-assign still work.
  p.unassign(VmId{2});
  EXPECT_EQ(p.vms_on(PmId{0}), (std::vector<std::size_t>{0}));
  p.assign(VmId{1}, PmId{1});
  EXPECT_TRUE(aggregates_consistent(inst, p));
}

TEST(AdoptingPlacement, RejectsListsThatDisagreeWithPmOf) {
  const auto inst = small_instance();
  auto wrong_pm = small_state();
  wrong_pm.vms_on = {{2}, {0}};  // VM0 listed on PM1, mapped to PM0
  auto listed_twice = small_state();
  listed_twice.vms_on = {{2, 0, 2}, {}};
  auto unlisted = small_state();
  unlisted.vms_on = {{2}, {}};  // VM0 mapped to PM0 but on no list
  auto listed_unmapped = small_state();
  listed_unmapped.vms_on = {{2, 0}, {1}};  // VM1 is unmapped
  auto twice_for_missing = small_state();
  twice_for_missing.vms_on = {{2, 2}, {}};  // right count, VM0 missing
  auto out_of_range = small_state();
  out_of_range.vms_on = {{2, 0, 7}, {}};
  for (auto* st : {&wrong_pm, &listed_twice, &unlisted, &listed_unmapped,
                   &twice_for_missing, &out_of_range})
    EXPECT_THROW(Placement(inst, std::move(*st)), InvalidArgument);
}

TEST(AdoptingPlacement, RejectsWrongShapesAndUnboundState) {
  const auto inst = small_instance();
  auto short_pm_of = small_state();
  short_pm_of.pm_of.pop_back();
  auto extra_pm = small_state();
  extra_pm.vms_on.emplace_back();
  auto unbound = small_state();
  unbound.bound = false;
  auto short_sums = small_state();
  short_sums.rb_sum.pop_back();
  for (auto* st : {&short_pm_of, &extra_pm, &unbound, &short_sums})
    EXPECT_THROW(Placement(inst, std::move(*st)), InvalidArgument);
}

TEST(AdoptingPlacement, RestoreStateRejectsTheSameStates) {
  const auto inst = small_instance();
  Placement p(inst);
  auto listed_twice = small_state();
  listed_twice.vms_on = {{2, 0, 2}, {}};
  EXPECT_THROW(p.restore_state(listed_twice), InvalidArgument);
  Placement q(inst);
  q.restore_state(small_state());
  EXPECT_EQ(q.vms_on(PmId{0}), (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(q.rb_sum_on(PmId{0}), 15.0);
}

TEST(Ids, StrongTypingAndHash) {
  VmId v{3};
  PmId m{3};
  EXPECT_TRUE(v.valid());
  EXPECT_FALSE(VmId{}.valid());
  EXPECT_EQ(std::hash<VmId>{}(v), std::hash<VmId>{}(VmId{3}));
  EXPECT_EQ(v, VmId{3});
  EXPECT_NE(v, VmId{4});
  EXPECT_LT(VmId{1}, VmId{2});
  (void)m;
}

}  // namespace
}  // namespace burstq

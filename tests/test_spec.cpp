// Tests for VM/PM specs and random instance generation.

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "core/controller.h"
#include "placement/online.h"
#include "placement/queuing_ffd.h"
#include "placement/spec.h"

namespace burstq {
namespace {

TEST(VmSpec, DerivedQuantities) {
  VmSpec v{OnOffParams{0.01, 0.09}, 10.0, 5.0};
  EXPECT_DOUBLE_EQ(v.rp(), 15.0);
  EXPECT_DOUBLE_EQ(v.demand(VmState::kOff), 10.0);
  EXPECT_DOUBLE_EQ(v.demand(VmState::kOn), 15.0);
  EXPECT_NEAR(v.mean_demand(), 10.0 + 0.1 * 5.0, 1e-12);
}

TEST(VmSpec, Validation) {
  VmSpec ok{OnOffParams{0.1, 0.1}, 1.0, 1.0};
  EXPECT_NO_THROW(ok.validate());
  VmSpec neg_rb{OnOffParams{0.1, 0.1}, -1.0, 1.0};
  EXPECT_THROW(neg_rb.validate(), InvalidArgument);
  VmSpec neg_re{OnOffParams{0.1, 0.1}, 1.0, -1.0};
  EXPECT_THROW(neg_re.validate(), InvalidArgument);
  VmSpec bad_p{OnOffParams{0.0, 0.1}, 1.0, 1.0};
  EXPECT_THROW(bad_p.validate(), InvalidArgument);
}

// Re = +inf would turn the Re-bucket width into inf and a bucket index
// into a NaN cast to size_t, so every entry point rejects it up front.
// Rb = +inf stays legal: such a VM never fits and ends up unplaced.
TEST(VmSpec, InfiniteReIsRejectedAtEveryEntryPoint) {
  const double inf = std::numeric_limits<double>::infinity();
  const OnOffParams p{0.1, 0.1};
  const VmSpec bad{p, 4.0, inf};
  EXPECT_THROW(bad.validate(), InvalidArgument);
  EXPECT_NO_THROW((VmSpec{p, inf, 4.0}.validate()));

  ProblemInstance inst;
  inst.vms = {VmSpec{p, 4.0, 4.0}, bad};
  inst.pms = {PmSpec{100.0}};
  EXPECT_THROW((void)queuing_ffd(inst), InvalidArgument);

  OnlineConsolidator online({PmSpec{100.0}}, QueuingFfdOptions{});
  EXPECT_THROW((void)online.add_vm(bad), InvalidArgument);
  EXPECT_EQ(online.vms_hosted(), 0u);

  CloudController ctl({PmSpec{100.0}}, ControllerConfig{}, Rng(1));
  EXPECT_THROW((void)ctl.admit(bad), InvalidArgument);
  EXPECT_EQ(ctl.stats().admissions + ctl.stats().rejections, 0u);
}

TEST(PmSpec, Validation) {
  EXPECT_NO_THROW(PmSpec{100.0}.validate());
  EXPECT_THROW(PmSpec{0.0}.validate(), InvalidArgument);
  EXPECT_THROW(PmSpec{-5.0}.validate(), InvalidArgument);
}

TEST(ProblemInstance, Validation) {
  ProblemInstance inst;
  EXPECT_THROW(inst.validate(), InvalidArgument);
  inst.vms.push_back(VmSpec{OnOffParams{0.1, 0.1}, 1.0, 1.0});
  EXPECT_THROW(inst.validate(), InvalidArgument);  // no PMs
  inst.pms.push_back(PmSpec{10.0});
  EXPECT_NO_THROW(inst.validate());
}

TEST(ProblemInstance, MaxRe) {
  ProblemInstance inst;
  inst.vms = {VmSpec{OnOffParams{0.1, 0.1}, 1.0, 3.0},
              VmSpec{OnOffParams{0.1, 0.1}, 1.0, 7.0},
              VmSpec{OnOffParams{0.1, 0.1}, 1.0, 2.0}};
  inst.pms = {PmSpec{10.0}};
  EXPECT_DOUBLE_EQ(inst.max_re(), 7.0);
}

TEST(RandomInstance, RespectsRanges) {
  Rng rng(1);
  InstanceRanges r;
  r.rb_lo = 12.0;
  r.rb_hi = 20.0;
  r.re_lo = 2.0;
  r.re_hi = 10.0;
  const auto inst =
      random_instance(200, 50, OnOffParams{0.01, 0.09}, r, rng);
  EXPECT_EQ(inst.n_vms(), 200u);
  EXPECT_EQ(inst.n_pms(), 50u);
  for (const auto& v : inst.vms) {
    EXPECT_GE(v.rb, 12.0);
    EXPECT_LT(v.rb, 20.0);
    EXPECT_GE(v.re, 2.0);
    EXPECT_LT(v.re, 10.0);
  }
  for (const auto& p : inst.pms) {
    EXPECT_GE(p.capacity, 80.0);
    EXPECT_LT(p.capacity, 100.0);
  }
}

TEST(RandomInstance, DeterministicPerSeed) {
  InstanceRanges r;
  Rng a(9);
  Rng b(9);
  const auto ia = random_instance(50, 10, OnOffParams{0.01, 0.09}, r, a);
  const auto ib = random_instance(50, 10, OnOffParams{0.01, 0.09}, r, b);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(ia.vms[i].rb, ib.vms[i].rb);
    EXPECT_DOUBLE_EQ(ia.vms[i].re, ib.vms[i].re);
  }
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_DOUBLE_EQ(ia.pms[j].capacity, ib.pms[j].capacity);
}

TEST(RandomInstance, InvalidRangesThrow) {
  Rng rng(1);
  InstanceRanges bad;
  bad.rb_lo = 10.0;
  bad.rb_hi = 5.0;
  EXPECT_THROW(random_instance(5, 5, OnOffParams{0.1, 0.1}, bad, rng),
               InvalidArgument);
  EXPECT_THROW(random_instance(0, 5, OnOffParams{0.1, 0.1}, InstanceRanges{},
                               rng),
               InvalidArgument);
}

}  // namespace
}  // namespace burstq

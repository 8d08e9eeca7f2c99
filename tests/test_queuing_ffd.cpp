// Tests for Algorithm 2 (QueuingFFD) — completeness, constraint
// satisfaction, determinism, and the parameter-rounding policies.

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "placement/placement.h"
#include "placement/queuing_ffd.h"

namespace burstq {
namespace {

const OnOffParams kP{0.01, 0.09};

ProblemInstance typical_instance(std::size_t n_vms, std::size_t n_pms,
                                 std::uint64_t seed) {
  Rng rng(seed);
  return random_instance(n_vms, n_pms, kP, InstanceRanges{}, rng);
}

TEST(RoundUniform, MeanPolicy) {
  std::vector<VmSpec> vms = {VmSpec{OnOffParams{0.01, 0.05}, 1, 1},
                             VmSpec{OnOffParams{0.03, 0.15}, 1, 1}};
  const auto p = round_uniform_params(vms, RoundingPolicy::kMean);
  EXPECT_NEAR(p.p_on, 0.02, 1e-15);
  EXPECT_NEAR(p.p_off, 0.10, 1e-15);
}

TEST(RoundUniform, ConservativePolicy) {
  std::vector<VmSpec> vms = {VmSpec{OnOffParams{0.01, 0.05}, 1, 1},
                             VmSpec{OnOffParams{0.03, 0.15}, 1, 1}};
  const auto p = round_uniform_params(vms, RoundingPolicy::kConservative);
  EXPECT_DOUBLE_EQ(p.p_on, 0.03);   // most frequent spikes
  EXPECT_DOUBLE_EQ(p.p_off, 0.05);  // longest spikes
}

TEST(RoundUniform, UniformInputUnchanged) {
  std::vector<VmSpec> vms(5, VmSpec{kP, 1, 1});
  for (auto policy : {RoundingPolicy::kMean, RoundingPolicy::kConservative}) {
    const auto p = round_uniform_params(vms, policy);
    EXPECT_DOUBLE_EQ(p.p_on, kP.p_on);
    EXPECT_DOUBLE_EQ(p.p_off, kP.p_off);
  }
}

TEST(RoundUniform, EmptyThrows) {
  EXPECT_THROW(round_uniform_params({}), InvalidArgument);
}

TEST(QueuingFfdOptions, Validation) {
  QueuingFfdOptions bad;
  bad.rho = 1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = QueuingFfdOptions{};
  bad.max_vms_per_pm = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = QueuingFfdOptions{};
  bad.cluster_buckets = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  // Placement runs on one PM shard; the field admits no other value.
  for (const std::size_t shards : {std::size_t{0}, std::size_t{4}}) {
    bad = QueuingFfdOptions{};
    bad.sharded.shards = shards;
    EXPECT_THROW(bad.validate(), InvalidArgument);
  }
  EXPECT_NO_THROW(QueuingFfdOptions{}.validate());
}

TEST(QueuingFfd, PlacesEveryVmGivenAmplePms) {
  const auto inst = typical_instance(200, 100, 1);
  const auto out = queuing_ffd(inst);
  EXPECT_TRUE(out.result.complete());
  EXPECT_EQ(out.result.placement.vms_assigned(), 200u);
}

TEST(QueuingFfd, SatisfiesEq17PostHoc) {
  const auto inst = typical_instance(300, 150, 2);
  const auto out = queuing_ffd(inst);
  ASSERT_TRUE(out.result.complete());
  EXPECT_TRUE(placement_satisfies_reservation(inst, out.result.placement,
                                              out.table));
}

TEST(QueuingFfd, SatisfiesInitialCapacity) {
  const auto inst = typical_instance(300, 150, 3);
  const auto out = queuing_ffd(inst);
  ASSERT_TRUE(out.result.complete());
  EXPECT_TRUE(
      placement_satisfies_initial_capacity(inst, out.result.placement));
}

TEST(QueuingFfd, DeterministicAcrossRuns) {
  const auto inst = typical_instance(150, 80, 4);
  const auto a = queuing_ffd(inst);
  const auto b = queuing_ffd(inst);
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    EXPECT_EQ(a.result.placement.pm_of(VmId{i}),
              b.result.placement.pm_of(VmId{i}));
}

TEST(QueuingFfd, RespectsVmCapD) {
  QueuingFfdOptions opt;
  opt.max_vms_per_pm = 3;
  const auto inst = typical_instance(60, 60, 5);
  const auto out = queuing_ffd(inst, opt);
  for (std::size_t j = 0; j < inst.n_pms(); ++j)
    EXPECT_LE(out.result.placement.count_on(PmId{j}), 3u);
}

TEST(QueuingFfd, ReportsRoundedParams) {
  const auto inst = typical_instance(10, 10, 6);
  const auto out = queuing_ffd(inst);
  EXPECT_DOUBLE_EQ(out.rounded_params.p_on, kP.p_on);
  EXPECT_DOUBLE_EQ(out.rounded_params.p_off, kP.p_off);
}

TEST(QueuingFfd, WithTableMatchesFullRun) {
  const auto inst = typical_instance(120, 60, 7);
  QueuingFfdOptions opt;
  const auto full = queuing_ffd(inst, opt);
  const auto reused = queuing_ffd_with_table(inst, full.table, opt);
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    EXPECT_EQ(full.result.placement.pm_of(VmId{i}),
              reused.placement.pm_of(VmId{i}));
}

TEST(QueuingFfd, BestFitVariantAlsoFeasible) {
  const auto inst = typical_instance(150, 80, 8);
  QueuingFfdOptions opt;
  opt.use_best_fit = true;
  const auto out = queuing_ffd(inst, opt);
  ASSERT_TRUE(out.result.complete());
  EXPECT_TRUE(placement_satisfies_reservation(inst, out.result.placement,
                                              out.table));
}

TEST(QueuingFfd, HeterogeneousParamsAreRounded) {
  Rng rng(9);
  ProblemInstance inst;
  for (int i = 0; i < 50; ++i) {
    OnOffParams p{rng.uniform(0.005, 0.02), rng.uniform(0.05, 0.15)};
    inst.vms.push_back(
        VmSpec{p, rng.uniform(2, 20), rng.uniform(2, 20)});
  }
  for (int j = 0; j < 30; ++j) inst.pms.push_back(PmSpec{90.0});
  const auto out = queuing_ffd(inst);
  EXPECT_TRUE(out.result.complete());
  // Rounded parameters live inside the per-VM range.
  EXPECT_GT(out.rounded_params.p_on, 0.005);
  EXPECT_LT(out.rounded_params.p_on, 0.02);
}

TEST(QueuingFfd, TighterRhoNeverUsesFewerPms) {
  const auto inst = typical_instance(200, 120, 10);
  QueuingFfdOptions loose;
  loose.rho = 0.1;
  QueuingFfdOptions tight;
  tight.rho = 0.001;
  const auto l = queuing_ffd(inst, loose);
  const auto t = queuing_ffd(inst, tight);
  ASSERT_TRUE(l.result.complete());
  ASSERT_TRUE(t.result.complete());
  EXPECT_GE(t.result.pms_used(), l.result.pms_used());
}

// Property sweep over seeds: Algorithm 2 always yields feasible, complete
// placements on amply-provisioned instances.
class QueuingFfdSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueuingFfdSeeds, FeasibleAndComplete) {
  const auto inst = typical_instance(100, 60, GetParam());
  const auto out = queuing_ffd(inst);
  EXPECT_TRUE(out.result.complete());
  EXPECT_TRUE(placement_satisfies_reservation(inst, out.result.placement,
                                              out.table));
  EXPECT_TRUE(
      placement_satisfies_initial_capacity(inst, out.result.placement));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueuingFfdSeeds,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace burstq

// Tests for the check/ differential-fuzz subsystem: generator
// determinism and boundary bias, oracle verdicts on known-good and
// known-degenerate cases, and end-to-end harness reproducibility.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "check/fuzz.h"
#include "check/generator.h"
#include "check/oracles.h"

namespace burstq::check {
namespace {

TEST(FuzzGenerator, CaseIsPureFunctionOfSeed) {
  const std::uint64_t seed = derive_case_seed(123, 45);
  const FuzzCase a = generate_case(seed, 45);
  const FuzzCase b = generate_case(seed, 45);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.params.p_on, b.params.p_on);
  EXPECT_EQ(a.params.p_off, b.params.p_off);
  EXPECT_EQ(a.rho, b.rho);
  EXPECT_EQ(a.n_vms, b.n_vms);
  EXPECT_EQ(a.n_pms, b.n_pms);
  EXPECT_EQ(a.max_vms_per_pm, b.max_vms_per_pm);
  EXPECT_EQ(a.seed, seed);
}

TEST(FuzzGenerator, DistinctIndicesGiveDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i)
    seeds.insert(derive_case_seed(7, i));
  EXPECT_EQ(seeds.size(), 1000u);
  // And different master seeds diverge too.
  EXPECT_NE(derive_case_seed(7, 0), derive_case_seed(8, 0));
}

TEST(FuzzGenerator, ScriptedFaultsStayInsideTheHorizon) {
  // fault_slots can be 30 while crash + 5 + 19 reaches 34; an
  // out-of-horizon recover used to abort whole sweeps (e.g. seed 3,
  // 300 recovery cases).  Every case's plan must build and validate, as
  // the recovery and durability oracles build it.
  std::size_t cases = 0;
  for (const std::uint64_t master : {1u, 3u, 5u}) {
    for (std::uint64_t i = 0; i < 4000; ++i, ++cases) {
      const FuzzCase c = generate_case(derive_case_seed(master, i), i);
      ASSERT_LT(c.fault_crash_slot, c.fault_recover_slot) << c.seed;
      ASSERT_LT(c.fault_recover_slot, c.fault_slots) << c.seed;
      const std::size_t n_pms = std::max<std::size_t>(c.n_pms, 2);
      const fault::FaultPlan plan = case_fault_plan(
          c, n_pms,
          {{c.fault_solver_slot, fault::FaultKind::kSolverOutage,
            fault::kNoPm, c.fault_solver_len}});
      EXPECT_NO_THROW(plan.validate(n_pms, c.fault_slots)) << c.seed;
    }
  }
  EXPECT_GE(cases, 10000u);
}

TEST(FuzzGenerator, SamplesTheDomainBoundaries) {
  // The whole point of the generator: within a modest budget it must hit
  // the exact corner p = 1.0, the slow-mixing floor, and the equal-params
  // family — the regimes that crashed the kPower backend.
  bool corner = false, slow = false, equal = false;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const FuzzCase c = generate_case(derive_case_seed(3, i), i);
    ASSERT_GT(c.params.p_on, 0.0);
    ASSERT_LE(c.params.p_on, 1.0);
    ASSERT_GT(c.params.p_off, 0.0);
    ASSERT_LE(c.params.p_off, 1.0);
    ASSERT_GE(c.rho, 0.0);
    ASSERT_LT(c.rho, 1.0);
    ASSERT_GE(c.k, 1u);
    corner |= c.params.p_on == 1.0 && c.params.p_off == 1.0;
    slow |= c.params.p_on <= 1e-5 && c.params.p_off <= 1e-5;
    equal |= c.params.p_on == c.params.p_off;
  }
  EXPECT_TRUE(corner);
  EXPECT_TRUE(slow);
  EXPECT_TRUE(equal);
}

TEST(FuzzOracles, PassOnTheHistoricalCrashFamilies) {
  // The two reproducers from ISSUE 3 as literal fuzz cases: every oracle
  // that runs must pass now that the backends are fixed.
  for (const auto& [p_on, p_off] : {std::pair{1.0, 1.0},
                                    std::pair{1e-6, 1e-6}}) {
    FuzzCase c;
    c.seed = 99;
    c.k = 16;
    c.params = OnOffParams{p_on, p_off};
    c.rho = 0.01;
    c.n_vms = 40;
    c.n_pms = 10;
    c.max_vms_per_pm = 8;
    for (const OracleId id :
         {OracleId::kStationary, OracleId::kCvr, OracleId::kPlacement,
          OracleId::kCache, OracleId::kRecovery, OracleId::kDurability}) {
      const OracleReport r = run_oracle(id, c);
      EXPECT_TRUE(!r.ran || r.ok)
          << oracle_name(id) << " failed on p=(" << p_on << "," << p_off
          << "): " << r.detail;
    }
  }
}

TEST(FuzzOracles, CvrOracleGatesOutNonErgodicCorner) {
  // At p_on = p_off = 1 a single trajectory's time average depends on the
  // initial draw (the chain is reducible), so the simulation oracle must
  // skip rather than compare.
  FuzzCase c;
  c.k = 4;
  c.params = OnOffParams{1.0, 1.0};
  c.rho = 0.5;
  const OracleReport r = check_cvr_bound_vs_simulation(c);
  EXPECT_FALSE(r.ran);
}

TEST(FuzzOracles, CvrOracleRunsOnFastMixers) {
  FuzzCase c;
  c.seed = 4242;
  c.k = 8;
  c.params = OnOffParams{0.2, 0.3};
  c.rho = 0.05;
  const OracleReport r = check_cvr_bound_vs_simulation(c);
  EXPECT_TRUE(r.ran);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FuzzHarness, SmallSweepIsCleanAndCountsAddUp) {
  FuzzOptions options;
  options.seed = 11;
  options.instances = 25;
  const FuzzSummary summary = run_fuzz(options);
  EXPECT_TRUE(summary.ok()) << summary.discrepancies.size()
                            << " discrepancies, first: "
                            << (summary.discrepancies.empty()
                                    ? ""
                                    : summary.discrepancies[0].detail);
  EXPECT_EQ(summary.instances, 25u);
  EXPECT_FALSE(summary.stopped_early);
  // Six oracles per case; each either ran or was gated out.
  EXPECT_EQ(summary.oracle_runs + summary.oracle_skips, 6u * 25u);
}

TEST(FuzzHarness, RerunsAreIdentical) {
  FuzzOptions options;
  options.seed = 77;
  options.instances = 15;
  const FuzzSummary a = run_fuzz(options);
  const FuzzSummary b = run_fuzz(options);
  EXPECT_EQ(a.oracle_runs, b.oracle_runs);
  EXPECT_EQ(a.oracle_skips, b.oracle_skips);
  EXPECT_EQ(a.discrepancies.size(), b.discrepancies.size());
}

TEST(FuzzHarness, ReplaySingleCase) {
  const std::uint64_t seed = derive_case_seed(5, 3);
  FuzzOptions options;
  options.cvr = false;  // keep the replay cheap
  const FuzzSummary summary = replay_case(seed, options);
  EXPECT_EQ(summary.instances, 1u);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.oracle_runs + summary.oracle_skips, 5u);
}

TEST(FuzzHarness, OracleSelectionIsHonoured) {
  FuzzOptions options;
  options.seed = 2;
  options.instances = 10;
  options.cvr = options.placement = options.cache = options.recovery =
      options.durability = false;
  const FuzzSummary summary = run_fuzz(options);
  // The stationary oracle never gates out.
  EXPECT_EQ(summary.oracle_runs, 10u);
  EXPECT_EQ(summary.oracle_skips, 0u);
}

TEST(FuzzHarness, MaxSecondsStopsAtACaseBoundary) {
  FuzzOptions options;
  options.seed = 9;
  options.instances = 100000;
  options.max_seconds = 1e-9;  // expires before the first boundary check
  const FuzzSummary summary = run_fuzz(options);
  EXPECT_TRUE(summary.stopped_early);
  EXPECT_LT(summary.instances, options.instances);
  EXPECT_TRUE(summary.ok());
}

TEST(FuzzOracles, DurabilityOracleAcceptsAHealthyCase) {
  FuzzCase c;
  c.seed = 4242;
  c.k = 8;
  c.params = OnOffParams{0.1, 0.3};
  c.rho = 0.05;
  c.n_vms = 24;
  c.n_pms = 8;
  c.max_vms_per_pm = 8;
  c.fault_slots = 30;
  c.fault_crash_slot = 6;
  c.fault_recover_slot = 18;
  c.fault_p_mig_fail = 0.05;
  c.fault_seed = 17;
  const OracleReport r = check_durability_contract(c);
  EXPECT_TRUE(r.ran) << r.detail;
  EXPECT_TRUE(r.ok) << r.detail;
}

}  // namespace
}  // namespace burstq::check

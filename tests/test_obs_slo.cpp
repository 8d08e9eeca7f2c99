// SloTracker (obs/slo.h): window arithmetic, burn rates, breach-episode
// hysteresis, verdicts — and the contract that a replayed flight log
// reproduces the live tracker's report bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/slo.h"
#include "sim/cluster_sim.h"
#include "sim/flight.h"
#include "placement/placement.h"

namespace burstq {
namespace {

using obs::SloOptions;
using obs::SloReport;
using obs::SloTracker;

SloOptions small_windows() {
  SloOptions o;
  o.rho = 0.1;
  o.fast_window = 2;
  o.slow_window = 4;
  return o;
}

TEST(SloOptions, Validation) {
  EXPECT_NO_THROW(SloOptions{}.validate());
  SloOptions bad = small_windows();
  bad.rho = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = small_windows();
  bad.rho = 1.5;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = small_windows();
  bad.fast_window = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = small_windows();
  bad.fast_window = 8;  // > slow_window
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = small_windows();
  bad.breach_burn = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  EXPECT_THROW(SloTracker(0, SloOptions{}), InvalidArgument);
}

TEST(SloTracker, RecordRejectsOutOfRangePm) {
  SloTracker slo(2, small_windows());
  EXPECT_THROW(slo.record(PmId{2}, false), InvalidArgument);
}

TEST(SloTracker, RecordSlotMatchesPerPmRecordAndBurnRatesMatchReport) {
  SloTracker per_pm(5, small_windows());
  SloTracker batched(5, small_windows());
  const std::vector<std::vector<std::size_t>> active = {
      {0, 1, 2}, {1, 2, 3, 4}, {}, {0, 4}, {0, 1, 2, 3, 4}, {2}};
  const std::vector<std::vector<std::size_t>> violated = {
      {1}, {2, 4}, {}, {0, 4}, {3}, {}};
  for (std::size_t t = 0; t < active.size(); ++t) {
    for (const std::size_t j : active[t]) {
      const bool v = std::find(violated[t].begin(), violated[t].end(), j) !=
                     violated[t].end();
      per_pm.record(PmId{j}, v);
    }
    batched.record_slot(active[t], violated[t]);
    per_pm.end_slot();
    batched.end_slot();
    const SloReport want = per_pm.report();
    EXPECT_EQ(batched.report().render(), want.render()) << "slot " << t;
    const obs::SloBurnRates burn = batched.burn_rates();
    EXPECT_EQ(burn.fast, want.fast.burn) << "slot " << t;
    EXPECT_EQ(burn.slow, want.slow.burn) << "slot " << t;
  }
  const std::vector<std::size_t> bad = {5};
  EXPECT_THROW(batched.record_slot(bad, {}), InvalidArgument);
}

TEST(SloTracker, CumulativeAndWindowedCvr) {
  SloTracker slo(2, small_windows());
  // Slot 0: both ok.  Slot 1: PM0 violated.  Slot 2: PM0 violated, PM1
  // unobserved.  Slot 3: both ok.
  slo.record(PmId{0}, false);
  slo.record(PmId{1}, false);
  slo.end_slot();
  slo.record(PmId{0}, true);
  slo.record(PmId{1}, false);
  slo.end_slot();
  slo.record(PmId{0}, true);
  slo.end_slot();
  slo.record(PmId{0}, false);
  slo.record(PmId{1}, false);
  slo.end_slot();

  const SloReport r = slo.report();
  EXPECT_EQ(r.slots, 4u);
  EXPECT_EQ(r.cumulative.observed, 7u);
  EXPECT_EQ(r.cumulative.violations, 2u);
  EXPECT_DOUBLE_EQ(r.cumulative.cvr, 2.0 / 7.0);
  // Fast window (last 2 slots): 3 observations, 1 violation.
  EXPECT_EQ(r.fast.observed, 3u);
  EXPECT_EQ(r.fast.violations, 1u);
  // Slow window (last 4 slots) covers everything here.
  EXPECT_EQ(r.slow.observed, 7u);
  EXPECT_EQ(r.slow.violations, 2u);
  EXPECT_DOUBLE_EQ(r.fast.burn, (1.0 / 3.0) / 0.1);

  ASSERT_EQ(r.pms.size(), 2u);
  EXPECT_EQ(r.pms[0].pm, 0u);
  EXPECT_EQ(r.pms[0].observed, 4u);
  EXPECT_EQ(r.pms[0].violations, 2u);
  EXPECT_TRUE(r.pms[0].above_rho);  // 0.5 > 0.1
  EXPECT_FALSE(r.pms[1].above_rho);
  EXPECT_DOUBLE_EQ(r.worst_pm_cvr, 0.5);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.verdict(), "FAIL");
}

TEST(SloTracker, WindowsSlideAndEvictOldSlots) {
  SloOptions o = small_windows();  // fast 2, slow 4
  SloTracker slo(1, o);
  // 4 violated slots, then 6 clean slots: both windows must drain.
  for (int t = 0; t < 4; ++t) {
    slo.record(PmId{0}, true);
    slo.end_slot();
  }
  EXPECT_DOUBLE_EQ(slo.report().fast.cvr, 1.0);
  EXPECT_DOUBLE_EQ(slo.report().slow.cvr, 1.0);
  for (int t = 0; t < 6; ++t) {
    slo.record(PmId{0}, false);
    slo.end_slot();
  }
  const SloReport r = slo.report();
  EXPECT_DOUBLE_EQ(r.fast.cvr, 0.0);
  EXPECT_DOUBLE_EQ(r.slow.cvr, 0.0);
  EXPECT_DOUBLE_EQ(r.cumulative.cvr, 0.4);
  // A cumulative breach of the budget still fails the SLO.
  EXPECT_FALSE(r.ok());
}

TEST(SloTracker, UnobservedSlotsDoNotCount) {
  SloTracker slo(3, small_windows());
  slo.end_slot();  // nothing recorded at all
  const SloReport r = slo.report();
  EXPECT_EQ(r.slots, 1u);
  EXPECT_EQ(r.cumulative.observed, 0u);
  EXPECT_DOUBLE_EQ(r.cumulative.cvr, 0.0);
  EXPECT_TRUE(r.pms.empty());
  EXPECT_TRUE(r.ok());
}

TEST(SloTracker, BreachEpisodeHysteresis) {
  SloOptions o;
  o.rho = 0.1;
  o.fast_window = 2;
  o.slow_window = 2;  // fast == slow: one knob drives both burns
  SloTracker slo(1, o);

  const auto violated_slot = [&](bool v) {
    slo.record(PmId{0}, v);
    slo.end_slot();
  };

  violated_slot(true);  // fast cvr 1.0 -> burn 10 > 1 on both windows
  EXPECT_TRUE(slo.report().breaching);
  EXPECT_EQ(slo.report().breaches, 1u);
  violated_slot(true);  // still breaching: episode count must not grow
  EXPECT_EQ(slo.report().breaches, 1u);
  violated_slot(false);  // fast burn 5 -> still above threshold
  EXPECT_TRUE(slo.report().breaching);
  violated_slot(false);  // window now clean -> episode closes
  EXPECT_FALSE(slo.report().breaching);
  EXPECT_EQ(slo.report().breaches, 1u);
  violated_slot(true);  // a new episode
  EXPECT_EQ(slo.report().breaches, 2u);
}

TEST(SloReport, RenderIsDeterministicKeyValue) {
  SloTracker slo(1, small_windows());
  slo.record(PmId{0}, true);
  slo.end_slot();
  const std::string text = slo.report().render();
  EXPECT_NE(text.find("slo.rho=0.1\n"), std::string::npos);
  EXPECT_NE(text.find("slo.slots=1\n"), std::string::npos);
  EXPECT_NE(text.find("slo.fast.cvr=1\n"), std::string::npos);
  EXPECT_NE(text.find("slo.verdict=FAIL\n"), std::string::npos);
  EXPECT_NE(text.find("slo.pm.0.cvr=1"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  // Two reports off the same state render identically.
  EXPECT_EQ(text, slo.report().render());
}

#ifndef BURSTQ_NO_OBS
// The observability contract: replaying a recorded flight log re-derives
// the exact SLO report the live run produced.
TEST(SloReplay, LiveAndReplayedReportsAreIdentical) {
  const std::string log = testing::TempDir() + "slo_replay.jsonl";
  ProblemInstance inst;
  // Small, hot instance so violations actually happen.
  for (int i = 0; i < 12; ++i)
    inst.vms.push_back(VmSpec{OnOffParams{0.05, 0.05}, 4.0, 10.0});
  inst.pms.assign(4, PmSpec{24.0});
  // Deliberately overcommitted round-robin placement (3 hot VMs per PM)
  // so the run produces real violations for the SLO windows.
  Placement placed(inst);
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    placed.assign(VmId{i}, PmId{i % inst.n_pms()});

  obs::SloOptions slo_opts;
  slo_opts.rho = 0.01;
  slo_opts.fast_window = 5;
  slo_opts.slow_window = 20;
  obs::SloTracker live(inst.n_pms(), slo_opts);

  obs::events().open(log, obs::EventFormat::kJsonl,
                     obs::EventLevel::kDetail);
  SimConfig cfg;
  cfg.slots = 60;
  cfg.slo = &live;
  ClusterSimulator sim(inst, placed, cfg, Rng(7));
  const SimReport rep = sim.run();
  obs::events().close();
  (void)rep;

  const auto segments = replay_flight_log(log, &slo_opts);
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_NE(segments[0].slo, nullptr);
  // render() covers every field of the report, so string equality is
  // report equality.
  EXPECT_EQ(segments[0].slo->report().render(), live.report().render());
  // And the run was interesting enough to mean something.
  EXPECT_GT(live.report().cumulative.observed, 0u);
  std::remove(log.c_str());
}
#endif  // BURSTQ_NO_OBS

}  // namespace
}  // namespace burstq

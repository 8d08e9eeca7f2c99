// Tests for CVR tracking and migration-event records.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/metrics.h"

namespace burstq {
namespace {

TEST(CvrTracker, CumulativeCvr) {
  CvrTracker t(2, 4);
  t.record(PmId{0}, true);
  t.record(PmId{0}, false);
  t.record(PmId{0}, false);
  t.record(PmId{0}, true);
  EXPECT_DOUBLE_EQ(t.cvr(PmId{0}), 0.5);
  EXPECT_DOUBLE_EQ(t.cvr(PmId{1}), 0.0);
  EXPECT_EQ(t.observed_slots(PmId{0}), 4u);
  EXPECT_EQ(t.violations(PmId{0}), 2u);
}

TEST(CvrTracker, WindowedCvrSlides) {
  CvrTracker t(1, 3);
  t.record(PmId{0}, true);
  EXPECT_DOUBLE_EQ(t.windowed_cvr(PmId{0}), 1.0);
  t.record(PmId{0}, false);
  t.record(PmId{0}, false);
  EXPECT_NEAR(t.windowed_cvr(PmId{0}), 1.0 / 3.0, 1e-12);
  t.record(PmId{0}, false);  // the old violation falls out
  EXPECT_DOUBLE_EQ(t.windowed_cvr(PmId{0}), 0.0);
  // Cumulative still remembers it.
  EXPECT_DOUBLE_EQ(t.cvr(PmId{0}), 0.25);
}

TEST(CvrTracker, ResetWindowKeepsCumulative) {
  CvrTracker t(1, 5);
  t.record(PmId{0}, true);
  t.record(PmId{0}, true);
  t.reset_window(PmId{0});
  EXPECT_DOUBLE_EQ(t.windowed_cvr(PmId{0}), 0.0);
  EXPECT_DOUBLE_EQ(t.cvr(PmId{0}), 1.0);
}

TEST(CvrTracker, MeanSkipsUnobserved) {
  CvrTracker t(3, 4);
  t.record(PmId{0}, true);   // CVR 1.0
  t.record(PmId{2}, false);  // CVR 0.0
  // PM1 never observed -> mean over PM0 and PM2 only.
  EXPECT_DOUBLE_EQ(t.mean_cvr(), 0.5);
  EXPECT_DOUBLE_EQ(t.max_cvr(), 1.0);
}

TEST(CvrTracker, EmptyTrackerZeroes) {
  CvrTracker t(2, 4);
  EXPECT_DOUBLE_EQ(t.mean_cvr(), 0.0);
  EXPECT_DOUBLE_EQ(t.max_cvr(), 0.0);
  EXPECT_DOUBLE_EQ(t.windowed_cvr(PmId{0}), 0.0);
}

TEST(CvrTracker, InvalidConstructionThrows) {
  EXPECT_THROW(CvrTracker(0, 4), InvalidArgument);
  EXPECT_THROW(CvrTracker(2, 0), InvalidArgument);
}

TEST(CvrTracker, OutOfRangePmThrows) {
  CvrTracker t(2, 4);
  EXPECT_THROW(t.record(PmId{5}, true), InvalidArgument);
  EXPECT_THROW((void)t.cvr(PmId{5}), InvalidArgument);
}

TEST(CvrTracker, RingMatchesDequeReferenceAcrossWrapsResetsAndRestores) {
  // A deque of the last `window` outcomes per PM is the definition; the
  // tracker's fixed ring must agree after every record and reset, and an
  // export/import taken with the ring wrapped must continue identically.
  for (std::size_t window = 1; window <= 5; ++window) {
    constexpr std::size_t kPms = 3;
    CvrTracker t(kPms, window);
    std::vector<std::deque<std::uint8_t>> ref(kPms);
    Rng rng(window);
    for (int step = 0; step < 400; ++step) {
      const std::size_t pm = rng.next_u64() % kPms;
      if (rng.next_u64() % 11 == 0) {
        t.reset_window(PmId{pm});
        ref[pm].clear();
      } else {
        const bool violated = rng.next_u64() % 3 == 0;
        t.record(PmId{pm}, violated);
        ref[pm].push_back(violated ? 1 : 0);
        if (ref[pm].size() > window) ref[pm].pop_front();
      }
      if (step == 200) {
        CvrTracker restored(kPms, window);
        restored.import_state(t.export_state());
        t = restored;
      }
      const CvrTrackerState st = t.export_state();
      for (std::size_t j = 0; j < kPms; ++j) {
        const std::vector<std::uint8_t> want(ref[j].begin(), ref[j].end());
        ASSERT_EQ(st.pms[j].window, want) << "window " << window;
        double viol = 0.0;
        for (const std::uint8_t b : want) viol += b;
        const double expect =
            want.empty() ? 0.0 : viol / static_cast<double>(want.size());
        ASSERT_EQ(t.windowed_cvr(PmId{j}), expect) << "window " << window;
      }
    }
  }
}

TEST(CvrTracker, ImportRejectsWindowLongerThanTracker) {
  CvrTracker t(1, 3);
  CvrTrackerState st;
  st.pms.resize(1);
  st.pms[0].window = {0, 1, 0, 1};
  EXPECT_THROW(t.import_state(st), InvalidArgument);
}

TEST(MigrationEvent, FailureFlag) {
  MigrationEvent ok{3, VmId{1}, PmId{0}, PmId{2}};
  EXPECT_FALSE(ok.failed());
  MigrationEvent fail{3, VmId{1}, PmId{0}, PmId{}};
  EXPECT_TRUE(fail.failed());
}

}  // namespace
}  // namespace burstq

// End-to-end harness runs: reports round-trip, same-seed runs are
// byte-identical, failing invariants carry resolvable trace pointers,
// and aborted runs still finalize their trace and write a report.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/parallel.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "obs/jsonl.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace burstq::harness {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::filesystem::create_directories(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Scenario quiet_scenario() {
  return parse_scenario_text(
      "scenario quiet\n"
      "seed 11\n"
      "slots 30\n"
      "rho 0.05\n"
      "topology vms=12 pms=6 pattern=equal\n"
      "workload p_on=0.02 p_off=0.10\n"
      "invariant cluster_cvr <= 0.05\n"
      "invariant lost_vms == 0\n",
      "<quiet>");
}

/// Hot enough that cluster_cvr > 0.0001 is certain to breach.
Scenario breached_scenario() {
  return parse_scenario_text(
      "scenario breached\n"
      "seed 3\n"
      "slots 60\n"
      "rho 0.05\n"
      "topology vms=40 pms=20 pattern=large\n"
      "workload p_on=0.05 p_off=0.05\n"
      "phase at=20 p_on=0.6 p_off=0.01\n"
      "invariant cluster_cvr <= 0.0001\n"
      "invariant lost_vms == 0\n",
      "<breached>");
}

// --- passing run ------------------------------------------------------

TEST(HarnessRunner, PassingRunWritesLoadableReport) {
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_pass");
  const RunSummary run = run_scenario(quiet_scenario(), opt);

  EXPECT_EQ(run.report.status, "pass");
  EXPECT_TRUE(run.report.all_pass());
  EXPECT_EQ(run.report.slots_completed, 30u);
  EXPECT_EQ(run.report.trace_file, "quiet.trace.jsonl");
  if (obs::kEnabled) {
    EXPECT_GT(run.report.trace_events, 0u);
  }

  const ScenarioReport loaded = load_report(run.report_path);
  EXPECT_EQ(loaded.scenario, "quiet");
  EXPECT_EQ(loaded.seed, 11u);
  EXPECT_EQ(loaded.status, "pass");
  ASSERT_EQ(loaded.invariants.size(), 2u);
  EXPECT_EQ(loaded.invariants[0].kind, InvariantKind::kClusterCvr);
  EXPECT_TRUE(loaded.invariants[0].pass);

  // The trace next to the report reads back whole.  (Under
  // BURSTQ_NO_OBS the trace is legitimately empty.)
  if (obs::kEnabled) {
    const auto events = obs::read_events_auto(run.trace_path);
    EXPECT_EQ(events.size(), run.report.trace_events);
  }
}

TEST(HarnessRunner, EmptyTimelineRuns) {
  // No phases, no faults, a one-slot horizon: the degenerate scenario
  // still produces a full report rather than tripping on empty series.
  const Scenario sc = parse_scenario_text(
      "scenario tiny\nslots 1\nrho 0.5\n"
      "topology vms=4 pms=4 pattern=equal\n"
      "invariant cluster_cvr <= 0.5\ninvariant lost_vms == 0\n",
      "<tiny>");
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_tiny");
  const RunSummary run = run_scenario(sc, opt);
  EXPECT_EQ(run.report.status, "pass");
  EXPECT_EQ(run.report.slots_completed, 1u);
}

TEST(HarnessRunner, FaultOnLastSlotCompletes) {
  const Scenario sc = parse_scenario_text(
      "scenario last_slot\nseed 5\nslots 20\nrho 0.10\n"
      "topology vms=12 pms=6 pattern=equal\n"
      "workload p_on=0.02 p_off=0.10\n"
      "fault crash@19:pm=0\n"
      "invariant lost_vms == 0\n",
      "<last_slot>");
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_last");
  const RunSummary run = run_scenario(sc, opt);
  EXPECT_EQ(run.report.slots_completed, 20u);
  EXPECT_NE(run.report.status, "abort");
}

// --- determinism ------------------------------------------------------

TEST(HarnessRunner, SameSeedRunsAreByteIdentical) {
  HarnessOptions a;
  a.out_dir = temp_dir("hr_det_a");
  HarnessOptions b;
  b.out_dir = temp_dir("hr_det_b");
  const RunSummary ra = run_scenario(breached_scenario(), a);
  const RunSummary rb = run_scenario(breached_scenario(), b);

  const std::string report_a = slurp(ra.report_path);
  ASSERT_FALSE(report_a.empty());
  EXPECT_EQ(report_a, slurp(rb.report_path));
  EXPECT_EQ(slurp(ra.trace_path), slurp(rb.trace_path));
}

// --- kill-restart durability ------------------------------------------

/// Kills early/mid/late with a PM crash in between; durability cadence
/// 20 so every restore replays at most 20 slots.  `kills` toggles the
/// kill-points; everything else (including the durability statement and
/// invariant set) is held identical so reports can be byte-compared.
Scenario power_loss_scenario(bool kills) {
  std::string text =
      "scenario power_loss\n"
      "seed 21\n"
      "slots 60\n"
      "rho 0.08\n"
      "topology vms=24 pms=12 pattern=small\n"
      "workload p_on=0.05 p_off=0.12\n"
      "fault crash@15:pm=2\n"
      "fault recover@40:pm=2\n"
      "durability every=20\n"
      "invariant cluster_cvr <= 0.2\n"
      "invariant lost_vms == 0\n";
  if (kills) text += "fault kill@5\nfault kill@33\nfault kill@58\n";
  return parse_scenario_text(text, "<power_loss>");
}

TEST(HarnessRunner, KillRestartReportMatchesUninterruptedRun) {
  HarnessOptions killed;
  killed.out_dir = temp_dir("hr_kill_a");
  HarnessOptions plain;
  plain.out_dir = temp_dir("hr_kill_b");
  const RunSummary rk = run_scenario(power_loss_scenario(true), killed);
  const RunSummary rp = run_scenario(power_loss_scenario(false), plain);

  EXPECT_NE(rk.report.status, "abort") << rk.report.abort_reason;
  EXPECT_EQ(rk.report.slots_completed, 60u);

  // The hard durability contract, end to end: three kills and restores
  // later, report AND trace are byte-identical to the run that was
  // never interrupted.
  const std::string report_killed = slurp(rk.report_path);
  ASSERT_FALSE(report_killed.empty());
  EXPECT_EQ(report_killed, slurp(rp.report_path));
  EXPECT_EQ(slurp(rk.trace_path), slurp(rp.trace_path));
}

TEST(HarnessRunner, KillRestartRunsAreByteIdentical) {
  // Two killed runs in different directories also agree — the restore
  // path itself is deterministic.
  HarnessOptions a;
  a.out_dir = temp_dir("hr_kill_det_a");
  HarnessOptions b;
  b.out_dir = temp_dir("hr_kill_det_b");
  const RunSummary ra = run_scenario(power_loss_scenario(true), a);
  const RunSummary rb = run_scenario(power_loss_scenario(true), b);
  EXPECT_EQ(slurp(ra.report_path), slurp(rb.report_path));
  EXPECT_EQ(slurp(ra.trace_path), slurp(rb.trace_path));
}

TEST(HarnessRunner, ReportAndTraceAreThreadCountInvariant) {
  // The determinism contract holds on any core count, not only on one
  // core: the same scenario at 1, 2 and 4 worker threads writes the
  // same report and JSONL trace, kill-restart recovery included.
  struct ResetThreads {
    ~ResetThreads() { set_thread_count_override(0); }
  } reset;
  const auto run_at = [](const Scenario& sc, const std::string& tag,
                         std::size_t threads) {
    set_thread_count_override(threads);
    HarnessOptions opt;
    opt.out_dir = temp_dir("hr_threads_" + tag + std::to_string(threads));
    const RunSummary run = run_scenario(sc, opt);
    return std::make_pair(slurp(run.report_path), slurp(run.trace_path));
  };
  for (const auto& [tag, sc] :
       {std::make_pair(std::string("breached"), breached_scenario()),
        std::make_pair(std::string("kill"), power_loss_scenario(true))}) {
    const auto one = run_at(sc, tag, 1);
    ASSERT_FALSE(one.first.empty()) << tag;
    for (const std::size_t threads : {2UL, 4UL}) {
      const auto many = run_at(sc, tag, threads);
      EXPECT_EQ(many.first, one.first) << tag << " report, " << threads;
      EXPECT_EQ(many.second, one.second) << tag << " trace, " << threads;
    }
  }
}

TEST(HarnessRunner, RecoveryReplaySlotsInvariantObservesRestores) {
  // kill@33 with cadence 20 restores from snap-20: 13 slots of replay.
  // The invariant sees the worst restore and stays under the cadence.
  Scenario sc = parse_scenario_text(
      "scenario replay_bound\n"
      "seed 21\n"
      "slots 40\n"
      "rho 0.2\n"
      "topology vms=12 pms=6 pattern=equal\n"
      "workload p_on=0.05 p_off=0.12\n"
      "fault kill@33\n"
      "durability every=20\n"
      "invariant lost_vms == 0\n"
      "invariant recovery_replay_slots <= 20\n",
      "<replay_bound>");
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_replay");
  const RunSummary run = run_scenario(sc, opt);
  ASSERT_NE(run.report.status, "abort") << run.report.abort_reason;

  const InvariantResult* replay = nullptr;
  for (const InvariantResult& r : run.report.invariants)
    if (r.kind == InvariantKind::kRecoveryReplaySlots) replay = &r;
  ASSERT_NE(replay, nullptr);
  EXPECT_TRUE(replay->pass);
  EXPECT_EQ(replay->worst, 13.0);
}

TEST(HarnessRunner, KillsWithoutDurabilityStatementAutoEnable) {
  // No `durability` statement: has_kills() turns it on with defaults;
  // the run must complete rather than abort on SimConfig validation.
  Scenario sc = parse_scenario_text(
      "scenario auto_durable\n"
      "seed 7\n"
      "slots 30\n"
      "rho 0.2\n"
      "topology vms=12 pms=6 pattern=equal\n"
      "workload p_on=0.05 p_off=0.12\n"
      "fault kill@11\n"
      "invariant lost_vms == 0\n",
      "<auto_durable>");
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_auto");
  const RunSummary run = run_scenario(sc, opt);
  EXPECT_NE(run.report.status, "abort") << run.report.abort_reason;
  EXPECT_EQ(run.report.slots_completed, 30u);
  EXPECT_TRUE(std::filesystem::exists(opt.out_dir +
                                      "/auto_durable.durable"));
}

// --- failing run: named invariant + resolvable trace pointer ----------

TEST(HarnessRunner, BrokenScenarioNamesInvariantWithValidWindow) {
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_fail");
  const RunSummary run = run_scenario(breached_scenario(), opt);

  EXPECT_EQ(run.report.status, "fail");
  EXPECT_FALSE(run.report.all_pass());

  const InvariantResult* failed = nullptr;
  for (const InvariantResult& r : run.report.invariants)
    if (!r.pass) failed = &r;
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->kind, InvariantKind::kClusterCvr);
  EXPECT_GT(failed->worst, failed->threshold);

  ASSERT_TRUE(failed->window.has_value());
  EXPECT_LE(failed->window->first, failed->window->second);
  EXPECT_LT(failed->window->second, run.report.slots_completed);

  // The report text names the invariant for CI log grepping.
  EXPECT_NE(slurp(run.report_path).find("\"cluster_cvr\""),
            std::string::npos);
}

TEST(HarnessRunner, TracePointerResolvesToWindowStart) {
  if (!obs::kEnabled) GTEST_SKIP() << "BURSTQ_NO_OBS build";
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_ptr");
  const RunSummary run = run_scenario(breached_scenario(), opt);

  const InvariantResult* failed = nullptr;
  for (const InvariantResult& r : run.report.invariants)
    if (!r.pass) failed = &r;
  ASSERT_NE(failed, nullptr);
  ASSERT_TRUE(failed->trace.has_value());

  // JSONL pointers are exact: reading at the offset yields the slot.obs
  // event of the window's first slot.
  const auto events =
      obs::read_events_at_offset(run.trace_path, failed->trace->offset, 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "slot.obs");
  EXPECT_EQ(events[0].integer("t"),
            static_cast<std::int64_t>(failed->window->first));
  EXPECT_EQ(failed->trace->slot, failed->window->first);
}

TEST(HarnessRunner, BtrcTracePointerLandsOnBlockBoundary) {
  if (!obs::kEnabled) GTEST_SKIP() << "BURSTQ_NO_OBS build";
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_btrc");
  opt.trace_format = obs::EventFormat::kBinary;
  const RunSummary run = run_scenario(breached_scenario(), opt);

  EXPECT_EQ(run.report.trace_format, "btrc");
  const InvariantResult* failed = nullptr;
  for (const InvariantResult& r : run.report.invariants)
    if (!r.pass) failed = &r;
  ASSERT_NE(failed, nullptr);
  ASSERT_TRUE(failed->trace.has_value());

  // A BTRC pointer is a block boundary: reading there must succeed and
  // the stream from that point must contain the window-start slot.obs.
  const auto events = obs::read_events_at_offset(
      run.trace_path, failed->trace->offset, 4096);
  ASSERT_FALSE(events.empty());
  bool found = false;
  for (const auto& e : events)
    if (e.kind == "slot.obs" &&
        e.integer("t") ==
            static_cast<std::int64_t>(failed->window->first))
      found = true;
  EXPECT_TRUE(found);
}

// --- abort safety -----------------------------------------------------

TEST(HarnessRunner, AbortWritesReportAndFinalizesTrace) {
  // 40 VMs cannot fit on 2 PMs under any budget: placement aborts
  // before the first slot.
  const Scenario sc = parse_scenario_text(
      "scenario doomed\nslots 50\nrho 0.05\n"
      "topology vms=40 pms=2 pattern=large\n"
      "invariant lost_vms == 0\n",
      "<doomed>");
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_abort");
  const RunSummary run = run_scenario(sc, opt);

  EXPECT_EQ(run.report.status, "abort");
  EXPECT_FALSE(run.report.abort_reason.empty());
  EXPECT_EQ(run.report.slots_completed, 0u);

  // The report exists on disk and round-trips.
  const ScenarioReport loaded = load_report(run.report_path);
  EXPECT_EQ(loaded.status, "abort");
  EXPECT_EQ(loaded.abort_reason, run.report.abort_reason);

  // The partial trace was flushed and finalized — every event written
  // before the abort reads back.
  if (obs::kEnabled) {
    const auto events = obs::read_events_auto(run.trace_path);
    EXPECT_EQ(events.size(), run.report.trace_events);
    EXPECT_GT(events.size(), 0u);
  }
}

TEST(HarnessRunner, AbortFinalizesBtrcPartialBlock) {
  // Same abort, binary trace: the buffered partial block must be
  // flushed on close or the trace would be unreadable.
  const Scenario sc = parse_scenario_text(
      "scenario doomed_btrc\nslots 50\nrho 0.05\n"
      "topology vms=40 pms=2 pattern=large\n"
      "invariant lost_vms == 0\n",
      "<doomed_btrc>");
  HarnessOptions opt;
  opt.out_dir = temp_dir("hr_abort_btrc");
  opt.trace_format = obs::EventFormat::kBinary;
  const RunSummary run = run_scenario(sc, opt);

  EXPECT_EQ(run.report.status, "abort");
  if (!obs::kEnabled) return;
  const auto events = obs::read_events_btrc(run.trace_path);
  EXPECT_EQ(events.size(), run.report.trace_events);
  EXPECT_GT(events.size(), 0u);
}

// --- failure modes ----------------------------------------------------

TEST(HarnessRunner, UnwritableOutputDirectoryThrows) {
  HarnessOptions opt;
  opt.out_dir = "/nonexistent/harness/out";
  EXPECT_THROW((void)run_scenario(quiet_scenario(), opt), InvalidArgument);
}

}  // namespace
}  // namespace burstq::harness

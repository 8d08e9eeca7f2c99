// Kill-restart determinism of the durable ClusterSimulator: a run killed
// at any point and restored from snapshot + WAL must produce the
// byte-identical final report and trace of the uninterrupted run.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "durable/durable.h"
#include "durable/snapshot.h"
#include "durable/state_codec.h"
#include "durable/wal.h"
#include "obs/event_log.h"
#include "obs/slo.h"
#include "obs/trace_codec.h"
#include "placement/baselines.h"
#include "placement/spec.h"
#include "sim/cluster_sim.h"
#include "sim/state_codecs.h"

namespace burstq {
namespace {

namespace fs = std::filesystem;

const OnOffParams kP{0.05, 0.2};

ProblemInstance small_instance(std::uint64_t seed) {
  Rng rng(seed);
  return random_instance(24, 12, kP, InstanceRanges{}, rng);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Deterministic textual digest of everything a SimReport carries.
std::string digest(const SimReport& r) {
  std::ostringstream ss;
  ss.precision(17);
  ss << r.total_migrations << ' ' << r.failed_migrations << ' '
     << r.pms_used_end << ' ' << r.pms_used_max << '\n';
  for (const std::size_t u : r.pms_used_timeline) ss << u << ',';
  ss << '\n';
  for (const std::size_t u : r.migrations_per_slot) ss << u << ',';
  ss << '\n';
  for (const auto& e : r.events)
    ss << e.slot << ':' << e.vm.value << ':' << e.from.value << ':'
       << (e.to.valid() ? static_cast<long long>(e.to.value) : -1) << ';';
  ss << '\n';
  for (const double c : r.pm_cvr) ss << c << ',';
  ss << '\n';
  for (const double c : r.pm_windowed_cvr_end) ss << c << ',';
  ss << '\n'
     << r.mean_cvr << ' ' << r.max_cvr << ' ' << r.energy_wh << '\n'
     << r.faults.pm_crashes << ' ' << r.faults.pm_recoveries << ' '
     << r.faults.evacuated << ' ' << r.faults.enqueued << ' '
     << r.faults.queue_end << ' ' << r.faults.retries << ' '
     << r.faults.migration_aborts << ' ' << r.faults.migration_stalls << ' '
     << r.faults.solver_degraded << ' ' << r.faults.lost_vms << '\n';
  return ss.str();
}

class DurableSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("burstq_dsim_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    obs::events().close();
    fs::remove_all(dir_);
  }

  [[nodiscard]] SimConfig base_config(const std::string& fault_spec,
                                      const std::string& state_dir) const {
    SimConfig cfg;
    cfg.slots = 60;
    cfg.policy.rho = 0.05;
    if (!fault_spec.empty()) {
      cfg.faults = fault::parse_fault_plan(fault_spec);
      cfg.recovery = fault::RecoveryPolicy{};
    }
    durable::DurabilityConfig d;
    d.dir = state_dir;
    d.snapshot_every = 20;
    cfg.durability = d;
    return cfg;
  }

  /// Runs to completion, restoring after every kill.  Returns the final
  /// report and counts restores/replayed slots.
  SimReport run_with_restores(const ProblemInstance& inst,
                              const Placement& placed, const SimConfig& cfg,
                              std::uint64_t seed, std::size_t* restores,
                              std::size_t* replayed) {
    for (;;) {
      ClusterSimulator sim(inst, placed, cfg, Rng(seed));
      if (restores != nullptr && *restores > 0) {
        const auto info = sim.restore_from_durable();
        if (replayed != nullptr) *replayed += info.replay_slots;
      }
      try {
        return sim.run();
      } catch (const durable::SimKilled&) {
        if (restores != nullptr) ++(*restores);
      }
    }
  }

  fs::path dir_;
};

TEST_F(DurableSimTest, UninterruptedRunWritesSnapshots) {
  const auto inst = small_instance(11);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const SimConfig cfg = base_config("", (dir_ / "state").string());
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(11));
  (void)sim.run();
  durable::SnapshotStore store((dir_ / "state").string(), false);
  const auto slots = store.snapshot_slots();
  ASSERT_FALSE(slots.empty());
  // Cadence 20 over 60 slots: snapshots at 0, 20, 40; prune keeps 2.
  EXPECT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots.back(), 40u);
}

TEST_F(DurableSimTest, KillRestartReportIsByteIdentical) {
  const auto inst = small_instance(12);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());

  // Faults but no kill: the baseline truth.
  const SimConfig base = base_config("crash@15:pm=2;recover@30:pm=2",
                                     (dir_ / "base").string());
  ClusterSimulator ref(inst, placed.placement, base, Rng(12));
  const std::string want = digest(ref.run());

  // Same run killed early/mid/late, restored each time.
  for (const std::size_t kill_at : {1UL, 17UL, 35UL, 59UL}) {
    const std::string sub = "k" + std::to_string(kill_at);
    const SimConfig killed = base_config(
        "crash@15:pm=2;recover@30:pm=2;kill@" + std::to_string(kill_at),
        (dir_ / sub).string());
    std::size_t restores = 0;
    std::size_t replayed = 0;
    const SimReport rep = run_with_restores(inst, placed.placement, killed,
                                            12, &restores, &replayed);
    EXPECT_EQ(restores, 1u) << "kill@" << kill_at;
    EXPECT_LE(replayed, 20u) << "kill@" << kill_at;
    EXPECT_EQ(digest(rep), want) << "kill@" << kill_at;
  }
}

TEST_F(DurableSimTest, MultipleKillsStillConverge) {
  const auto inst = small_instance(13);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const SimConfig base = base_config("", (dir_ / "base").string());
  ClusterSimulator ref(inst, placed.placement, base, Rng(13));
  const std::string want = digest(ref.run());

  const SimConfig killed =
      base_config("kill@10;kill@25;kill@26", (dir_ / "killed").string());
  std::size_t restores = 0;
  const SimReport rep = run_with_restores(inst, placed.placement, killed,
                                          13, &restores, nullptr);
  EXPECT_EQ(restores, 3u);
  EXPECT_EQ(digest(rep), want);
}

TEST_F(DurableSimTest, TraceStaysByteIdenticalAcrossKills) {
  const auto inst = small_instance(14);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());

  for (const char* ext : {"jsonl", "btrc"}) {
    const std::string ref_trace =
        (dir_ / ("ref." + std::string(ext))).string();
    obs::events().open(ref_trace, obs::event_format_from_path(ref_trace));
    const SimConfig base =
        base_config("", (dir_ / ("b" + std::string(ext))).string());
    ClusterSimulator ref(inst, placed.placement, base, Rng(14));
    const std::string want = digest(ref.run());
    obs::events().close();

    const std::string kill_trace =
        (dir_ / ("kill." + std::string(ext))).string();
    obs::events().open(kill_trace, obs::event_format_from_path(kill_trace));
    const SimConfig killed =
        base_config("kill@33", (dir_ / ("k" + std::string(ext))).string());
    std::size_t restores = 0;
    const SimReport rep = run_with_restores(inst, placed.placement, killed,
                                            14, &restores, nullptr);
    obs::events().close();

    EXPECT_EQ(restores, 1u) << ext;
    EXPECT_EQ(digest(rep), want) << ext;
    EXPECT_EQ(slurp(kill_trace), slurp(ref_trace))
        << "trace bytes diverged for " << ext;
  }
}

TEST_F(DurableSimTest, TornWalTailStillRecovers) {
  const auto inst = small_instance(15);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const SimConfig base = base_config("", (dir_ / "base").string());
  ClusterSimulator ref(inst, placed.placement, base, Rng(15));
  const std::string want = digest(ref.run());

  const std::string state = (dir_ / "killed").string();
  const SimConfig killed = base_config("kill@31", state);
  ClusterSimulator first(inst, placed.placement, killed, Rng(15));
  try {
    (void)first.run();
    FAIL() << "expected SimKilled";
  } catch (const durable::SimKilled& k) {
    EXPECT_EQ(k.slot, 31u);
  }

  // Tear the WAL tail: chop 3 bytes off the newest journal (snapshot 20,
  // groups 20..30 -> the slot-30 group frame is now torn).
  durable::SnapshotStore store(state, false);
  const std::string wal = store.wal_path(20);
  ASSERT_TRUE(fs::exists(wal));
  const auto size = fs::file_size(wal);
  fs::resize_file(wal, size - 3);
  const durable::WalScan scan = durable::scan_wal(wal);
  EXPECT_TRUE(scan.torn);

  ClusterSimulator second(inst, placed.placement, killed, Rng(15));
  const auto info = second.restore_from_durable();
  EXPECT_EQ(info.snapshot_slot, 20u);
  EXPECT_EQ(info.replay_slots, 10u);  // slot 30's group was torn away
  // The torn group left replay short of the kill slot, so the scripted
  // kill re-fires once; the next restore sees the re-committed journal.
  try {
    EXPECT_EQ(digest(second.run()), want);
  } catch (const durable::SimKilled& k) {
    EXPECT_EQ(k.slot, 31u);
    ClusterSimulator third(inst, placed.placement, killed, Rng(15));
    const auto info2 = third.restore_from_durable();
    EXPECT_EQ(info2.replay_slots, 11u);
    EXPECT_EQ(digest(third.run()), want);
  }
}

TEST_F(DurableSimTest, CorruptSnapshotFailsLoudly) {
  const auto inst = small_instance(16);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const std::string state = (dir_ / "killed").string();
  const SimConfig killed = base_config("kill@45", state);
  ClusterSimulator first(inst, placed.placement, killed, Rng(16));
  EXPECT_THROW((void)first.run(), durable::SimKilled);

  durable::SnapshotStore store(state, false);
  const std::string snap = store.snapshot_path(40);
  ASSERT_TRUE(fs::exists(snap));
  const std::string blob = durable::SnapshotStore::load_file(snap).blob;
  const auto expect_loud_failure = [&] {
    ClusterSimulator second(inst, placed.placement, killed, Rng(16));
    try {
      (void)second.restore_from_durable();
      FAIL() << "expected CorruptState";
    } catch (const durable::CorruptState& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt at byte"),
                std::string::npos)
          << e.what();
    }
  };

  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    const auto mid = static_cast<std::streamoff>(fs::file_size(snap) / 2);
    f.seekg(mid);
    char b = 0;
    f.read(&b, 1);
    f.seekp(mid);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  expect_loud_failure();

  // A snapshot whose file CRC checks out but whose VM count is larger
  // than the blob could hold must fail as corruption, not as a huge
  // allocation (std::bad_alloc at 2^50, std::length_error at 2^62).
  durable::StateReader skip(blob, "blob");
  (void)skip.u64();                              // version
  (void)skip.varint();                           // slot
  (void)skip.u32();                              // config digest
  for (int i = 0; i < 8; ++i) (void)skip.u64();  // both RNG states
  const std::size_t chains = skip.varint();
  for (std::size_t i = 0; i < chains; ++i) {
    (void)skip.f64();
    (void)skip.f64();
    (void)skip.u8();
  }
  const std::size_t count_at = skip.pos();
  (void)skip.varint();  // VM count
  for (const std::uint64_t n :
       {std::uint64_t{1} << 50, std::uint64_t{1} << 62}) {
    durable::StateWriter w;
    w.raw(std::string_view(blob).substr(0, count_at));
    w.varint(n);
    w.raw(std::string_view(blob).substr(skip.pos()));
    store.write_snapshot(40, w.data());
    expect_loud_failure();
  }
}

TEST_F(DurableSimTest, RestoreIntoDifferentConfigIsRejected) {
  const auto inst = small_instance(17);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const std::string state = (dir_ / "state").string();
  const SimConfig killed = base_config("kill@30", state);
  ClusterSimulator first(inst, placed.placement, killed, Rng(17));
  EXPECT_THROW((void)first.run(), durable::SimKilled);

  SimConfig other = killed;
  other.slots = 90;  // different horizon -> different digest
  ClusterSimulator second(inst, placed.placement, other, Rng(17));
  EXPECT_THROW((void)second.restore_from_durable(), durable::CorruptState);
}

// --- on-disk bytes ------------------------------------------------------

/// Bursty enough (p_on = p_off) that the scheduler moves VMs every few
/// slots and sometimes finds no target.
ProblemInstance hot_instance() {
  Rng rng(31);
  return random_instance(40, 10, OnOffParams{0.1, 0.1}, InstanceRanges{},
                         rng);
}

/// A fixed-seed run with an SLO tracker, faults and durability on, packed
/// tight (FFD by Rb) so the WAL carries migrate, migrate-fail, crash,
/// stall and abort records.
class DurableSimBytesTest : public DurableSimTest {
 protected:
  static constexpr std::uint64_t kSeed = 31;
  static constexpr std::size_t kEvery = 20;

  DurableSimBytesTest()
      : inst_(hot_instance()),
        placed_(ffd_by_normal(inst_).placement) {}

  [[nodiscard]] SimConfig config(const std::string& state_dir,
                                 obs::SloTracker& slo) const {
    SimConfig cfg = base_config(
        "crash@12:pm=3;mig-stall@18:slots=2;mig-abort@27;recover@35:pm=3",
        state_dir);
    cfg.policy.rho = 0.02;
    cfg.policy.cost_slots = 3;  // copies stay in flight for the stall
    cfg.slo = &slo;
    return cfg;
  }

  [[nodiscard]] obs::SloTracker make_slo() const {
    obs::SloOptions opt;
    opt.rho = 0.02;
    return obs::SloTracker(inst_.n_pms(), opt);
  }

  /// One line per slot: everything on_slot saw.
  static std::string describe(const SlotObservation& ob) {
    std::ostringstream ss;
    ss.precision(17);
    ss << ob.t << " a:";
    for (const std::size_t j : *ob.active) ss << j << ',';
    ss << " v:";
    for (const std::size_t j : *ob.violated) ss << j << ',';
    ss << ' ' << ob.migrations << ' ' << ob.failed_migrations << ' '
       << ob.pms_used << ' ' << ob.fast_burn << ' ' << ob.slow_burn;
    return ss.str();
  }

  ProblemInstance inst_;
  Placement placed_;
};

std::uint32_t file_crc(const fs::path& path) {
  return obs::trace_detail::crc32(slurp(path.string()));
}

TEST_F(DurableSimBytesTest, SnapshotAndWalBytesMatchGolden) {
  // The CRC-32 of every snapshot and journal this run writes, as the
  // original encoders (bytewise CRC, whole history re-encoded on every
  // snapshot) wrote them.  The values pin the on-disk formats: a faster
  // encoder must leave every byte where it was.  Snapshots are read as
  // soon as they land (slot t's on_slot runs after the checkpoint at the
  // top of slot t) because prune() keeps only the newest two.
  const fs::path state = dir_ / "state";
  obs::SloTracker slo = make_slo();
  SimConfig cfg = config(state.string(), slo);
  std::map<std::string, std::uint32_t> got;
  cfg.on_slot = [&](const SlotObservation& ob) {
    if (ob.t % kEvery != 0) return;
    const fs::path snap =
        durable::SnapshotStore(state.string(), false).snapshot_path(ob.t);
    got[snap.filename().string()] = file_crc(snap);
  };
  ClusterSimulator sim(inst_, placed_, cfg, Rng(kSeed));
  const SimReport rep = sim.run();
  for (const auto& entry : fs::directory_iterator(state))
    if (entry.path().extension() == ".bqwl")
      got[entry.path().filename().string()] = file_crc(entry.path());

  // The run exercises the record types the golden values stand for.
  EXPECT_GT(rep.total_migrations, 0u);
  EXPECT_GT(rep.faults.pm_crashes, 0u);
  EXPECT_GT(rep.faults.migration_stalls, 0u);
  EXPECT_GT(rep.faults.migration_aborts, 0u);
  EXPECT_GT(rep.failed_migrations, 0u);

  const std::map<std::string, std::uint32_t> want = {
      {"snap-000000000000.bqss", 0x05291134u},
      {"snap-000000000020.bqss", 0x4d70743cu},
      {"snap-000000000040.bqss", 0x18ceb416u},
      {"wal-000000000020.bqwl", 0xc2f554acu},
      {"wal-000000000040.bqwl", 0x151fb447u},
  };
  std::ostringstream actual;
  for (const auto& [name, crc] : got)
    actual << name << " 0x" << std::hex << crc << '\n';
  EXPECT_EQ(got, want) << actual.str();
}

TEST_F(DurableSimBytesTest, SnapshotAfterRestoreMatchesUninterruptedRun) {
  // Uninterrupted reference: snapshots at 0/20/40, prune keeps 20 and 40.
  const fs::path ref_dir = dir_ / "ref";
  obs::SloTracker ref_slo = make_slo();
  SimConfig ref_cfg = config(ref_dir.string(), ref_slo);
  std::vector<std::string> ref_obs;
  ref_cfg.on_slot = [&](const SlotObservation& ob) {
    ref_obs.push_back(describe(ob));
  };
  ClusterSimulator ref(inst_, placed_, ref_cfg, Rng(kSeed));
  const std::string want = digest(ref.run());

  // A state directory as a crash right after slot 39 committed leaves it:
  // snapshot 20 and its full journal, nothing newer.
  const fs::path dir = dir_ / "restored";
  fs::create_directories(dir);
  durable::SnapshotStore ref_store(ref_dir.string(), false);
  durable::SnapshotStore store(dir.string(), false);
  fs::copy_file(ref_store.snapshot_path(20), store.snapshot_path(20));
  fs::copy_file(ref_store.wal_path(20), store.wal_path(20));

  obs::SloTracker slo = make_slo();
  SimConfig cfg = config(dir.string(), slo);
  std::vector<std::string> seen;
  cfg.on_slot = [&](const SlotObservation& ob) {
    seen.push_back(describe(ob));
  };
  ClusterSimulator sim(inst_, placed_, cfg, Rng(kSeed));
  const auto info = sim.restore_from_durable();
  EXPECT_EQ(info.snapshot_slot, 20u);
  EXPECT_EQ(info.replay_slots, 20u);
  EXPECT_EQ(digest(sim.run()), want);

  // The history sliced out of snapshot 20 re-fired slots 0..19 exactly,
  // and the next snapshot carries it forward byte for byte.
  EXPECT_EQ(seen, ref_obs);
  EXPECT_EQ(slurp(store.snapshot_path(40)),
            slurp(ref_store.snapshot_path(40)));
  EXPECT_EQ(slurp(store.wal_path(40)), slurp(ref_store.wal_path(40)));
}

TEST(DurableSimConfig, KillsRequireDurability) {
  SimConfig cfg;
  cfg.faults = fault::parse_fault_plan("kill@5");
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  durable::DurabilityConfig d;
  d.dir = "/tmp/burstq-wherever";
  cfg.durability = d;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(TraceCheckpointCodec, FormatCodesArePinnedOnDisk) {
  // The format byte is part of every simulator snapshot: JSONL is 0 and
  // BTRC is 2; 1 belonged to the retired long-CSV sink.
  const auto encode = [](obs::EventFormat format) {
    obs::EventLog::Checkpoint cp;
    cp.valid = true;
    cp.format = format;
    cp.path = "run.trace";
    cp.bytes = 300;
    cp.events = 7;
    cp.blocks = 2;
    durable::StateWriter w;
    encode_trace_checkpoint(w, cp);
    return w.take();
  };
  const std::string jsonl = encode(obs::EventFormat::kJsonl);
  const std::string btrc = encode(obs::EventFormat::kBinary);
  ASSERT_GE(jsonl.size(), 2u);
  EXPECT_EQ(jsonl[1], '\0');  // after the valid flag
  EXPECT_EQ(btrc[1], '\2');
  EXPECT_EQ(jsonl.back(), '\0');  // where the CSV row id was: always 0

  for (const std::string& bytes : {jsonl, btrc}) {
    durable::StateReader r(bytes, "checkpoint");
    const obs::EventLog::Checkpoint cp = decode_trace_checkpoint(r);
    r.expect_done();
    EXPECT_TRUE(cp.valid);
    EXPECT_EQ(cp.path, "run.trace");
    EXPECT_EQ(cp.bytes, 300u);
    EXPECT_EQ(cp.events, 7u);
    EXPECT_EQ(cp.blocks, 2u);
  }
  durable::StateReader rj(jsonl, "checkpoint");
  EXPECT_EQ(decode_trace_checkpoint(rj).format, obs::EventFormat::kJsonl);
  durable::StateReader rb(btrc, "checkpoint");
  EXPECT_EQ(decode_trace_checkpoint(rb).format, obs::EventFormat::kBinary);

  std::string csv = jsonl;
  csv[1] = '\1';
  durable::StateReader rc(csv, "checkpoint");
  EXPECT_THROW((void)decode_trace_checkpoint(rc), durable::CorruptState);
  std::string row_id = jsonl;
  row_id.back() = '\1';
  durable::StateReader rr(row_id, "checkpoint");
  EXPECT_THROW((void)decode_trace_checkpoint(rr), durable::CorruptState);
}

}  // namespace
}  // namespace burstq

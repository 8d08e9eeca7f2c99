// Crash-durability of the closed-loop controller: every public op is
// journaled before it is applied, a snapshot checkpoint lands every N
// ops, and recover() = newest snapshot + op-suffix replay through the
// same public methods.  The contract mirrors the simulator's: a
// controller killed between ANY two ops and recovered reaches the exact
// same state (byte-identical export_state) as one never interrupted.

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/controller.h"
#include "core/durable_controller.h"
#include "durable/durable.h"
#include "durable/snapshot.h"
#include "durable/state_codec.h"
#include "obs/slo.h"
#include "obs/trace_codec.h"
#include "sim/state_codecs.h"

namespace burstq {
namespace {

const OnOffParams kP{0.05, 0.12};

std::vector<PmSpec> pms(std::size_t m, double cap = 60.0) {
  return std::vector<PmSpec>(m, PmSpec{cap});
}

VmSpec vm(double rb, double re, OnOffParams p = kP) {
  return VmSpec{p, rb, re};
}

ControllerConfig base_config() {
  ControllerConfig c;
  c.maintenance_every = 10;  // exercise table recalibration mid-run
  return c;
}

/// The scripted op stream: a pure function of the op index, so the
/// uninterrupted run and any kill-restart run apply the same sequence.
/// Mixes admits, ticks, resizes, departs, and a PM crash/recover pair;
/// decisions that consult controller state (is tenant 0 live?) are
/// deterministic too — both runs see identical state at every index.
void apply_op(DurableController& d, std::size_t i) {
  const TenantId t{(i / 7) % 3};
  switch (i % 7) {
    case 0:
    case 4:
      (void)d.admit(vm(6.0 + static_cast<double>(i % 5), 5.0));
      return;
    case 2:
      if (d.controller().tenant_live(t)) {
        (void)d.resize(t, vm(7.0 + static_cast<double>(i % 3), 6.0));
        return;
      }
      d.tick();
      return;
    case 5:
      if (i == 12) {
        d.inject_pm_crash(PmId{1});
        return;
      }
      if (i == 26) {
        d.inject_pm_recover(PmId{1});
        return;
      }
      if (i > 20 && d.controller().tenant_live(t)) {
        d.depart(t);
        return;
      }
      d.tick();
      return;
    default:
      d.tick();
      return;
  }
}

class DurableControllerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "durable_ctrl_" + info->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void reset_dir() { std::filesystem::remove_all(dir_); }

  durable::DurabilityConfig dcfg(std::size_t every = 8) {
    durable::DurabilityConfig d;
    d.dir = dir_;
    d.snapshot_every = every;
    return d;
  }

  DurableController fresh(std::size_t every = 8,
                                   std::size_t fleet = 6) {
    return DurableController(pms(fleet), base_config(), Rng(77),
                                      dcfg(every));
  }

  /// Final state of the 40-op script with no interruption.
  std::string uninterrupted_state() {
    reset_dir();
    DurableController d = fresh();
    for (std::size_t i = 0; i < 40; ++i) apply_op(d, i);
    std::string state = d.controller().export_state();
    reset_dir();
    return state;
  }

  std::string dir_;
};

TEST_F(DurableControllerTest, OpsAreJournaledAndSnapshotsPruned) {
  DurableController d = fresh();
  EXPECT_FALSE(d.has_state());
  for (std::size_t i = 0; i < 40; ++i) apply_op(d, i);
  EXPECT_EQ(d.op_seq(), 40u);
  EXPECT_TRUE(d.has_state());

  // Checkpoints landed at ops 0, 8, 16, 24, 32; prune keeps the two
  // newest snapshot/WAL pairs.
  const durable::SnapshotStore store(dir_, false);
  const std::vector<std::size_t> slots = store.snapshot_slots();
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0], 24u);
  EXPECT_EQ(slots[1], 32u);
  EXPECT_TRUE(std::filesystem::exists(store.wal_path(32)));
}

TEST_F(DurableControllerTest, KillRestartStateIsByteIdentical) {
  const std::string want = uninterrupted_state();

  // Kill on a snapshot boundary, mid-window, and on the last op.
  for (const std::size_t kill : {8u, 13u, 39u}) {
    reset_dir();
    {
      DurableController b = fresh();
      for (std::size_t i = 0; i < kill; ++i) apply_op(b, i);
    }  // "power loss": the instance goes away, the directory stays

    DurableController c = fresh();
    ASSERT_TRUE(c.has_state());
    const auto info = c.recover();
    EXPECT_EQ(info.snapshot_op + info.replayed_ops, kill);
    EXPECT_LT(info.replayed_ops, 8u + 1u);  // never more than a window
    EXPECT_EQ(c.op_seq(), kill);

    for (std::size_t i = kill; i < 40; ++i) apply_op(c, i);
    EXPECT_EQ(c.controller().export_state(), want)
        << "diverged after kill at op " << kill;
    EXPECT_TRUE(c.controller().reservation_invariant_holds());
  }
}

TEST_F(DurableControllerTest, MultipleKillsStillConverge) {
  const std::string want = uninterrupted_state();

  reset_dir();
  {
    DurableController a = fresh();
    for (std::size_t i = 0; i < 5; ++i) apply_op(a, i);
  }
  std::size_t resumed = 0;
  {
    DurableController b = fresh();
    resumed = b.recover().snapshot_op + 5 - 5;  // snapshot 0, replay 5
    EXPECT_EQ(b.op_seq(), 5u);
    for (std::size_t i = 5; i < 23; ++i) apply_op(b, i);
  }
  DurableController c = fresh();
  const auto info = c.recover();
  EXPECT_EQ(info.snapshot_op, 16u);
  EXPECT_EQ(c.op_seq(), 23u);
  for (std::size_t i = 23; i < 40; ++i) apply_op(c, i);
  EXPECT_EQ(c.controller().export_state(), want);
  (void)resumed;
}

TEST_F(DurableControllerTest, MidWindowRecoverReplaysExactSuffix) {
  {
    DurableController a = fresh();
    for (std::size_t i = 0; i < 13; ++i) apply_op(a, i);
  }
  DurableController b = fresh();
  const auto info = b.recover();
  EXPECT_EQ(info.snapshot_op, 8u);
  EXPECT_EQ(info.replayed_ops, 5u);
}

TEST_F(DurableControllerTest, TornWalTailRecoversValidPrefix) {
  const std::string want = uninterrupted_state();

  reset_dir();
  {
    DurableController a = fresh();
    for (std::size_t i = 0; i < 13; ++i) apply_op(a, i);
  }
  // Chop the journal mid-frame: the final committed group (op 12) turns
  // into a torn tail and must be discarded, not rejected as corruption.
  const durable::SnapshotStore store(dir_, false);
  const std::string wal = store.wal_path(8);
  const auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 3);

  DurableController b = fresh();
  const auto info = b.recover();
  EXPECT_EQ(info.snapshot_op, 8u);
  EXPECT_EQ(info.replayed_ops, 4u);
  EXPECT_EQ(b.op_seq(), 12u);

  // The discarded op is simply re-applied by the continuing script; the
  // final state still converges to the uninterrupted run.
  for (std::size_t i = 12; i < 40; ++i) apply_op(b, i);
  EXPECT_EQ(b.controller().export_state(), want);
}

TEST_F(DurableControllerTest, CorruptSnapshotFailsLoudlyWithOffset) {
  {
    DurableController a = fresh();
    for (std::size_t i = 0; i < 13; ++i) apply_op(a, i);
  }
  const durable::SnapshotStore store(dir_, false);
  const std::string snap = store.snapshot_path(8);
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(40);
    f.write(&byte, 1);
  }
  DurableController b = fresh();
  try {
    (void)b.recover();
    FAIL() << "corrupt snapshot must not recover";
  } catch (const durable::CorruptState& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt at byte"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(DurableControllerTest, RecoverIntoDifferentFleetIsRejected) {
  {
    DurableController a = fresh();
    for (std::size_t i = 0; i < 10; ++i) apply_op(a, i);
  }
  DurableController b = fresh(8, 5);  // one PM fewer
  EXPECT_THROW((void)b.recover(), durable::CorruptState);
}

TEST_F(DurableControllerTest, RecoverWithoutStateThrows) {
  DurableController d = fresh();
  EXPECT_FALSE(d.has_state());
  EXPECT_THROW((void)d.recover(), durable::CorruptState);
}

TEST_F(DurableControllerTest, InvalidOpsAreNotJournaled) {
  DurableController d = fresh();
  (void)d.admit(vm(6.0, 5.0));
  const std::size_t before = d.op_seq();
  EXPECT_THROW(d.depart(TenantId{99}), InvalidArgument);
  EXPECT_THROW((void)d.resize(TenantId{99}, vm(6.0, 5.0)),
               InvalidArgument);
  EXPECT_THROW(d.inject_pm_crash(PmId{42}), InvalidArgument);
  // A rejected op never reached the journal: the sequence is unchanged
  // and a recover replays only valid ops.
  EXPECT_EQ(d.op_seq(), before);
}

TEST_F(DurableControllerTest, SnapshotAndWalBytesMatchGolden) {
  // The CRC-32 of every snapshot and journal a fixed-seed controller
  // writes across five checkpoint epochs, with an SLO tracker attached
  // and a kill + recover mid-window.  The values pin the on-disk formats:
  // a refactor of the journal or the state codecs must leave every byte
  // where it was.  Files are read after every op because prune() keeps
  // only the newest two pairs; a journal's last reading is its final one.
  obs::SloOptions so;
  so.rho = 0.05;
  ControllerConfig cfg = base_config();
  std::map<std::string, std::uint32_t> got;
  const auto read_dir = [&] {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      got[entry.path().filename().string()] =
          obs::trace_detail::crc32(ss.str());
    }
  };
  {
    obs::SloTracker slo(6, so);
    cfg.slo = &slo;
    DurableController a(pms(6), cfg, Rng(77), dcfg());
    for (std::size_t i = 0; i < 21; ++i) {
      apply_op(a, i);
      read_dir();
    }
  }  // killed between ops 20 and 21
  obs::SloTracker slo(6, so);
  cfg.slo = &slo;
  DurableController b(pms(6), cfg, Rng(77), dcfg());
  const auto info = b.recover();
  EXPECT_EQ(info.snapshot_op, 16u);
  EXPECT_EQ(info.replayed_ops, 5u);
  read_dir();
  for (std::size_t i = 21; i < 40; ++i) {
    apply_op(b, i);
    read_dir();
  }
  // The script exercised every op type the golden values stand for.
  const ControllerStats& st = b.controller().stats();
  EXPECT_GT(st.admissions, 0u);
  EXPECT_GT(st.departures, 0u);
  EXPECT_GT(st.resizes, 0u);
  EXPECT_GT(st.pm_crashes, 0u);
  EXPECT_GT(st.pm_recoveries, 0u);

  const std::map<std::string, std::uint32_t> want = {
      {"snap-000000000000.bqss", 0x025bfce7u},
      {"snap-000000000008.bqss", 0x72666664u},
      {"snap-000000000016.bqss", 0x4c0995aeu},
      {"snap-000000000024.bqss", 0xfbffa62bu},
      {"snap-000000000032.bqss", 0x44d3f022u},
      {"wal-000000000000.bqwl", 0x25429184u},
      {"wal-000000000008.bqwl", 0xa7f878eau},
      {"wal-000000000016.bqwl", 0x699a7a3fu},
      {"wal-000000000024.bqwl", 0xb4441a25u},
      {"wal-000000000032.bqwl", 0x2959d107u},
  };
  std::ostringstream actual;
  for (const auto& [name, crc] : got)
    actual << name << " 0x" << std::hex << crc << '\n';
  EXPECT_EQ(got, want) << actual.str();
}

// --- CloudController state round-trip (no journal) --------------------

TEST(ControllerState, ExportImportRoundTripsAndStaysInLockstep) {
  obs::SloOptions so;
  so.rho = 0.05;
  obs::SloTracker slo_a(6, so);
  obs::SloTracker slo_b(6, so);
  ControllerConfig cfg_a = base_config();
  cfg_a.slo = &slo_a;
  ControllerConfig cfg_b = base_config();
  cfg_b.slo = &slo_b;

  CloudController a(pms(6), cfg_a, Rng(5));
  for (int i = 0; i < 6; ++i) (void)a.admit(vm(6.0 + i, 5.0));
  for (int i = 0; i < 15; ++i) a.tick();
  a.inject_pm_crash(PmId{2});
  for (int i = 0; i < 3; ++i) a.tick();

  const std::string blob = a.export_state();
  CloudController b(pms(6), cfg_b, Rng(999));  // seed overwritten by import
  b.import_state(blob);
  EXPECT_EQ(b.export_state(), blob);

  // Lockstep from here: identical restored state + identical inputs
  // must evolve identically (RNG state came over in the blob).
  a.inject_pm_recover(PmId{2});
  b.inject_pm_recover(PmId{2});
  for (int i = 0; i < 12; ++i) {
    a.tick();
    b.tick();
  }
  EXPECT_EQ(b.export_state(), a.export_state());
  EXPECT_EQ(a.stats().runtime_migrations, b.stats().runtime_migrations);
  EXPECT_EQ(a.stats().energy_wh, b.stats().energy_wh);
}

/// The fleet section of a CloudController blob, decoded so a test can
/// corrupt one field and re-encode everything else byte for byte.
struct FleetSection {
  struct Tenant {
    bool live{false};
    VmSpec spec{};
    std::uint8_t chain{0};
    std::size_t pm_plus_one{0};  ///< 0 = parked
  };
  std::string head;  ///< version, config digest, RNG, table params
  std::vector<Tenant> tenants;
  std::vector<std::size_t> free_slots;
  std::vector<std::vector<std::size_t>> lists;
  std::vector<std::uint8_t> up;
  std::size_t arrivals{0};  ///< admissions + rejections
  std::vector<std::array<std::size_t, 3>> queue;  ///< slot, retries, next
  std::string tail;  ///< trackers, stats, SLO
};

FleetSection split_fleet(const std::string& blob) {
  durable::StateReader r(blob, "blob");
  (void)r.u64();                              // version
  (void)r.u32();                              // config digest
  for (int i = 0; i < 4; ++i) (void)r.u64();  // RNG state
  (void)r.f64();                              // table p_on
  (void)r.f64();                              // table p_off
  FleetSection f;
  f.head = blob.substr(0, r.pos());
  f.tenants.resize(r.count());
  for (auto& t : f.tenants) {
    t.live = r.boolean();
    if (!t.live) continue;
    t.spec = decode_vm_spec(r);
    t.chain = r.u8();
    t.pm_plus_one = r.varint();
  }
  f.free_slots = r.size_vec();
  f.lists.resize(r.varint());
  for (auto& list : f.lists) list = r.size_vec();
  f.up = r.u8_vec();
  f.arrivals = r.varint();
  f.queue.resize(r.count());
  for (auto& q : f.queue)
    for (std::size_t& x : q) x = r.varint();
  f.tail = blob.substr(r.pos());
  return f;
}

std::string join_fleet(const FleetSection& f) {
  durable::StateWriter w;
  w.raw(f.head);
  w.varint(f.tenants.size());
  for (const auto& t : f.tenants) {
    w.boolean(t.live);
    if (!t.live) continue;
    encode_vm_spec(w, t.spec);
    w.u8(t.chain);
    w.varint(t.pm_plus_one);
  }
  w.size_vec(f.free_slots);
  w.varint(f.lists.size());
  for (const auto& list : f.lists) w.size_vec(list);
  w.u8_vec(f.up);
  w.varint(f.arrivals);
  w.varint(f.queue.size());
  for (const auto& q : f.queue)
    for (const std::size_t x : q) w.varint(x);
  w.raw(f.tail);
  return w.take();
}

TEST(ControllerState, TruncatedBlobFailsLoudly) {
  CloudController a(pms(4), base_config(), Rng(5));
  (void)a.admit(vm(6.0, 5.0));
  const std::string blob = a.export_state();
  std::vector<std::string> bad = {blob.substr(0, blob.size() / 2)};

  // The tenant count raised past anything the stream could hold must
  // fail as corruption, not as a huge allocation (std::bad_alloc at
  // 2^50, std::length_error at 2^62).
  durable::StateReader skip(blob, "blob");
  (void)skip.u64();                               // version
  (void)skip.u32();                               // config digest
  for (int i = 0; i < 4; ++i) (void)skip.u64();   // RNG state
  (void)skip.f64();                               // table p_on
  (void)skip.f64();                               // table p_off
  const std::size_t count_at = skip.pos();
  (void)skip.varint();                            // tenant count
  for (const std::uint64_t n :
       {std::uint64_t{1} << 50, std::uint64_t{1} << 62}) {
    durable::StateWriter w;
    w.raw(std::string_view(blob).substr(0, count_at));
    w.varint(n);
    w.raw(std::string_view(blob).substr(skip.pos()));
    bad.push_back(w.take());
  }

  // Well-framed blobs whose fleet contradicts itself.  Three tenants on
  // PM 0, the middle one departed: lists[0] = {0, 2}, free = {1}.
  CloudController c(pms(4), base_config(), Rng(5));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(c.admit(vm(6.0, 5.0)).has_value());
  c.depart(TenantId{1});
  const std::string fleet_blob = c.export_state();
  const FleetSection good = split_fleet(fleet_blob);
  ASSERT_EQ(join_fleet(good), fleet_blob);
  ASSERT_EQ(good.lists[0], (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(good.arrivals, 3u);
  const std::vector<void (*)(FleetSection&)> corruptions = {
      // A slot id past the tenant count in a PM list.
      [](FleetSection& f) { f.lists[0].push_back(f.tenants.size()); },
      // A slot id past the tenant count on the free list.
      [](FleetSection& f) { f.free_slots.push_back(f.tenants.size()); },
      // A tenant's PM index equal to the fleet size.
      [](FleetSection& f) { f.tenants[0].pm_plus_one = f.lists.size() + 1; },
      // A live tenant listed twice on its PM.
      [](FleetSection& f) { f.lists[0].push_back(0); },
      // A live tenant in another PM's list.
      [](FleetSection& f) {
        f.lists[1].push_back(f.lists[0].back());
        f.lists[0].pop_back();
      },
      // A live tenant missing from its PM's list.
      [](FleetSection& f) { f.lists[0].pop_back(); },
      // A dead slot in a PM list.
      [](FleetSection& f) { f.lists[0].push_back(1); },
      // A live slot on the free list.
      [](FleetSection& f) { f.free_slots.push_back(0); },
      // A dead slot missing from the free list.
      [](FleetSection& f) { f.free_slots.clear(); },
      // A placed tenant in the crash queue.
      [](FleetSection& f) { f.queue.push_back({0, 0, 0}); },
      // A parked tenant missing from the crash queue.
      [](FleetSection& f) {
        f.tenants[2].pm_plus_one = 0;
        f.lists[0].pop_back();
      },
      // An arrival count other than admissions + rejections.
      [](FleetSection& f) { ++f.arrivals; },
  };
  for (const auto corrupt : corruptions) {
    FleetSection f = good;
    corrupt(f);
    bad.push_back(join_fleet(f));
  }

  for (const std::string& input : bad) {
    CloudController b(pms(4), base_config(), Rng(5));
    try {
      b.import_state(input);
      FAIL() << "corrupt blob must not import";
    } catch (const durable::CorruptState& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt at byte"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace burstq

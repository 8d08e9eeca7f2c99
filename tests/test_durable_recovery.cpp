// One recovery rule for every reader of a durable state directory: the
// simulator's restore_from_durable(), the controller's recover(), and
// `burstq_cli state restore` all resume from durable::recovery_point()
// — the newest snapshot plus the consecutive WAL suffix of the
// snapshot's own epoch.  A WAL whose header names another epoch
// journals units that snapshot never saw, so nothing of it replays.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/durable_controller.h"
#include "durable/durable.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "durable/wal.h"
#include "obs/trace_codec.h"
#include "placement/baselines.h"
#include "sim/cluster_sim.h"

namespace burstq {
namespace {

namespace fs = std::filesystem;

/// Rewrites the epoch (base slot) field of a WAL header in place.  The
/// groups keep their CRCs, so only the epoch check can reject them.
void set_wal_epoch(const std::string& path, std::uint64_t base) {
  std::string le;
  obs::trace_detail::put_u64(le, base);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(8);  // "BQWL", version, 3 pad bytes
  f.write(le.data(), static_cast<std::streamsize>(le.size()));
}

#ifdef BURSTQ_CLI
/// The replay_slots `burstq_cli state restore` reports for `dir` (built
/// alongside the tests unless examples are off).
std::optional<std::size_t> cli_replay_slots(const std::string& dir) {
  const std::string cmd = std::string("\"") + BURSTQ_CLI +
                          "\" state restore --dir \"" + dir + "\"";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  if (pclose(pipe) != 0) return std::nullopt;
  const std::string key = "replay_slots=";
  const std::size_t at = out.find(key);
  if (at == std::string::npos) return std::nullopt;
  return std::stoul(out.substr(at + key.size()));
}
#endif

class RecoveryRuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("burstq_rule_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The suffix the shared rule finds, checked against the CLI's report.
  std::size_t shared_rule_replay() const {
    const auto point =
        durable::recovery_point(durable::SnapshotStore(dir_, false));
    EXPECT_TRUE(point.has_value());
    if (!point) return 0;
#ifdef BURSTQ_CLI
    EXPECT_EQ(cli_replay_slots(dir_), point->suffix.size());
#endif
    return point->suffix.size();
  }

  std::string dir_;
};

TEST_F(RecoveryRuleTest, SimulatorIgnoresWalOfAnotherEpoch) {
  Rng rng(16);
  const ProblemInstance inst = random_instance(
      24, 12, OnOffParams{0.05, 0.2}, InstanceRanges{}, rng);
  const Placement placed = ffd_by_peak(inst).placement;
  SimConfig cfg;
  cfg.slots = 60;
  cfg.policy.rho = 0.05;
  cfg.faults = fault::parse_fault_plan("kill@45");
  cfg.durability = durable::DurabilityConfig{dir_, 20, false};
  {
    ClusterSimulator first(inst, placed, cfg, Rng(16));
    EXPECT_THROW((void)first.run(), durable::SimKilled);
  }
  const durable::SnapshotStore store(dir_, false);
  EXPECT_EQ(shared_rule_replay(), 5u);  // slots 40..44 committed

  set_wal_epoch(store.wal_path(40), 20);
  EXPECT_EQ(shared_rule_replay(), 0u);
  ClusterSimulator second(inst, placed, cfg, Rng(16));
  const auto info = second.restore_from_durable();
  EXPECT_EQ(info.snapshot_slot, 40u);
  EXPECT_EQ(info.replay_slots, 0u);
}

TEST_F(RecoveryRuleTest, ControllerIgnoresWalOfAnotherEpoch) {
  const auto make = [&] {
    return DurableController(std::vector<PmSpec>(6, PmSpec{60.0}),
                             ControllerConfig{}, Rng(77),
                             durable::DurabilityConfig{dir_, 8, false});
  };
  {
    DurableController a = make();
    for (int i = 0; i < 13; ++i) {
      if (i % 3 == 0)
        (void)a.admit(VmSpec{OnOffParams{0.05, 0.12}, 6.0, 5.0});
      else
        a.tick();
    }
  }
  const durable::SnapshotStore store(dir_, false);
  EXPECT_EQ(shared_rule_replay(), 5u);  // ops 8..12 committed

  set_wal_epoch(store.wal_path(8), 0);
  EXPECT_EQ(shared_rule_replay(), 0u);
  DurableController b = make();
  const auto info = b.recover();
  EXPECT_EQ(info.snapshot_op, 8u);
  EXPECT_EQ(info.replayed_ops, 0u);
  EXPECT_EQ(b.op_seq(), 8u);
}

}  // namespace
}  // namespace burstq

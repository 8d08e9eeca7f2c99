// SnapshotStore: atomic rename-into-place, newest-wins loading, loud
// corruption failure with a named byte offset, and snapshot/WAL pair
// pruning (durable/snapshot.h).

#include "durable/snapshot.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "durable/durable.h"
#include "durable/state_codec.h"
#include "durable/wal.h"
#include "obs/trace_codec.h"

namespace burstq::durable {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("burstq_snap_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

TEST_F(SnapshotTest, ConfigValidation) {
  DurabilityConfig cfg;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // empty dir
  cfg.dir = "somewhere";
  cfg.snapshot_every = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.snapshot_every = 25;
  EXPECT_NO_THROW(cfg.validate());
}

TEST_F(SnapshotTest, RoundTripsNewestSnapshot) {
  SnapshotStore store(dir_.string(), /*fsync=*/false);
  store.write_snapshot(0, "alpha");
  store.write_snapshot(50, "bravo");
  store.write_snapshot(25, "charlie");

  const auto loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->slot, 50u);
  EXPECT_EQ(loaded->blob, "bravo");
  EXPECT_EQ(loaded->path, store.snapshot_path(50));
  EXPECT_EQ(store.snapshot_slots(),
            (std::vector<std::size_t>{0, 25, 50}));
}

TEST_F(SnapshotTest, EmptyDirLoadsNothing) {
  SnapshotStore store(dir_.string(), false);
  EXPECT_FALSE(store.load_newest().has_value());
  EXPECT_TRUE(store.snapshot_slots().empty());
}

TEST_F(SnapshotTest, NoTmpFileSurvivesWrite) {
  SnapshotStore store(dir_.string(), false);
  store.write_snapshot(7, std::string(10000, 'x'));
  for (const auto& entry : fs::directory_iterator(dir_))
    EXPECT_EQ(entry.path().extension(), ".bqss")
        << entry.path() << " left behind";
}

TEST_F(SnapshotTest, BitFlipFailsLoudlyWithByteOffset) {
  SnapshotStore store(dir_.string(), false);
  const std::string blob(256, 'z');
  store.write_snapshot(3, blob);

  const std::string path = store.snapshot_path(3);
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::string damaged = data;
  damaged[data.size() - 5] = static_cast<char>(damaged[data.size() - 5] ^ 1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  }

  try {
    store.load_newest();
    FAIL() << "corrupt snapshot must throw";
  } catch (const CorruptState& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("corrupt at byte"), std::string::npos) << what;
  }
}

TEST_F(SnapshotTest, TruncationAndBadMagicFailLoudly) {
  SnapshotStore store(dir_.string(), false);
  store.write_snapshot(1, "payload-bytes");
  const std::string path = store.snapshot_path(1);
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }

  const auto rewrite = [&](const std::string& d) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(d.data(), static_cast<std::streamsize>(d.size()));
  };

  rewrite(data.substr(0, data.size() - 1));  // truncated blob
  EXPECT_THROW(store.load_newest(), CorruptState);
  rewrite(data.substr(0, 10));  // truncated header
  EXPECT_THROW(store.load_newest(), CorruptState);
  std::string bad_magic = data;
  bad_magic[1] = 'x';
  rewrite(bad_magic);
  EXPECT_THROW(store.load_newest(), CorruptState);
  rewrite(data);  // intact again: loads fine
  EXPECT_EQ(store.load_newest()->blob, "payload-bytes");
}

TEST_F(SnapshotTest, PruneKeepsNewestPairs) {
  SnapshotStore store(dir_.string(), false);
  for (const std::size_t slot : {0u, 25u, 50u, 75u}) {
    store.write_snapshot(slot, "s" + std::to_string(slot));
    WalWriter wal(store.wal_path(slot), slot, false);
    wal.commit(slot + 1, 0);
  }
  store.prune(2);
  EXPECT_EQ(store.snapshot_slots(), (std::vector<std::size_t>{50, 75}));
  EXPECT_FALSE(fs::exists(store.wal_path(0)));
  EXPECT_FALSE(fs::exists(store.wal_path(25)));
  EXPECT_TRUE(fs::exists(store.wal_path(50)));
  EXPECT_TRUE(fs::exists(store.wal_path(75)));
}

TEST_F(SnapshotTest, StateCodecRoundTrip) {
  StateWriter w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  w.u64(1ull << 60);
  w.varint(300);
  w.svarint(-5);
  w.f64(-0.125);
  w.boolean(true);
  w.str("hello");
  w.size_vec({1, 2, 3});
  w.f64_vec({0.5, -1.5});

  StateReader r(w.data(), "test blob");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 1ull << 60);
  EXPECT_EQ(r.varint(), 300u);
  EXPECT_EQ(r.svarint(), -5);
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.size_vec(), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{0.5, -1.5}));
  EXPECT_NO_THROW(r.expect_done());

  StateReader torn(std::string_view(w.data()).substr(0, 3), "torn blob");
  torn.u8();
  try {
    torn.u32();
    FAIL() << "truncated read must throw";
  } catch (const CorruptState& e) {
    EXPECT_NE(std::string(e.what()).find("torn blob: corrupt at byte 1"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotTest, BulkAppendsMatchElementwiseEncoding) {
  // u8_vec and raw are one-append shortcuts: the bytes must equal what
  // the per-element calls produce, so snapshots keep their layout.
  const std::vector<std::uint8_t> bytes{0, 1, 2, 255, 7};
  StateWriter slow;
  slow.varint(bytes.size());
  for (const std::uint8_t b : bytes) slow.u8(b);
  slow.size_vec({300, 4});
  StateWriter tail;
  tail.size_vec({300, 4});
  StateWriter fast;
  fast.u8_vec(bytes);
  fast.raw(tail.data());
  EXPECT_EQ(fast.data(), slow.data());
  EXPECT_EQ(fast.size(), slow.data().size());

  StateWriter empty;
  empty.u8_vec({});
  EXPECT_EQ(empty.data(), std::string(1, '\0'));
}

TEST_F(SnapshotTest, BlobInPartsWritesTheSameFile) {
  const std::string blob = "head|a long append-only middle|tail";
  SnapshotStore whole((dir_ / "whole").string(), false);
  SnapshotStore parts((dir_ / "parts").string(), false);
  whole.write_snapshot(3, blob);
  const std::string_view view(blob);
  const std::string_view pieces[] = {view.substr(0, 5), view.substr(5, 0),
                                     view.substr(5, 25), view.substr(30)};
  parts.write_snapshot(3, pieces, obs::trace_detail::crc32(blob));
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read(parts.snapshot_path(3)), read(whole.snapshot_path(3)));
  EXPECT_EQ(SnapshotStore::load_file(parts.snapshot_path(3)).blob, blob);

  // A caller-supplied CRC that does not match fails loudly on load.
  parts.write_snapshot(4, pieces, obs::trace_detail::crc32(blob) ^ 1u);
  EXPECT_THROW((void)SnapshotStore::load_file(parts.snapshot_path(4)),
               CorruptState);
}

TEST_F(SnapshotTest, FileLayoutIsHeaderThenBlob) {
  // "BQSS" ver pad  u64 slot  u64 blob_len  u32 crc32(blob)  blob
  SnapshotStore store(dir_.string(), false);
  store.write_snapshot(9, "123456789");
  std::ifstream in(store.snapshot_path(9), std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string want =
      std::string("BQSS\x01\0\0\0", 8) +
      std::string("\x09\0\0\0\0\0\0\0", 8) +
      std::string("\x09\0\0\0\0\0\0\0", 8) +
      std::string("\x26\x39\xF4\xCB", 4) + "123456789";
  EXPECT_EQ(file, want);
}

}  // namespace
}  // namespace burstq::durable

// Snapshot checkpoints with atomic rename-into-place.
//
// File layout (snap-<slot>.bqss):
//   "BQSS" u8 version  3x u8 zero  u64 slot  u64 blob_len
//   u32 crc32(blob)  blob
//
// A snapshot is written to a temporary name in the same directory and
// renamed into place, so a crash mid-write leaves the previous snapshot
// untouched and a reader never sees a half-written file under the final
// name.  Loading is LOUD: any integrity failure in the newest snapshot
// throws CorruptState naming the file and byte offset — there is
// deliberately no silent fallback to an older snapshot, because state
// loss must be an operator decision, not an automatic one.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace burstq::durable {

class SnapshotStore {
 public:
  /// Creates `dir` (and parents) if missing.
  SnapshotStore(std::string dir, bool fsync);

  /// Atomically writes snap-<slot>.bqss.
  void write_snapshot(std::size_t slot, const std::string& blob);

  /// The same file for a blob held in pieces, written in order without
  /// joining them.  `blob_crc` must be crc32 of the concatenation: a
  /// caller that keeps a running CRC of a long append-only piece
  /// (obs::trace_detail::crc32_update / crc32_combine) checksums only
  /// what changed.  A wrong value makes the file fail to load.
  void write_snapshot(std::size_t slot,
                      std::span<const std::string_view> blob_parts,
                      std::uint32_t blob_crc);

  struct Loaded {
    std::size_t slot{0};
    std::string blob;
    std::string path;
  };

  /// Newest snapshot by slot number, or nullopt when none exist.
  /// Throws CorruptState (file + byte offset) if the newest is damaged.
  std::optional<Loaded> load_newest() const;

  /// Reads one specific snapshot file (CLI `state inspect` path).
  static Loaded load_file(const std::string& path);

  /// Slots that have a snapshot on disk, ascending.
  std::vector<std::size_t> snapshot_slots() const;

  /// Removes all but the newest `keep` snapshot/WAL pairs.
  void prune(std::size_t keep) const;

  std::string snapshot_path(std::size_t slot) const;
  std::string wal_path(std::size_t slot) const;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  bool fsync_{false};
};

}  // namespace burstq::durable

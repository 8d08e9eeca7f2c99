// The one journal protocol of every crash-durable state owner: the
// cluster simulator (one unit per slot) and DurableController (one unit
// per op).
// Per unit, numbered by its sequence `seq`:
//
//   checkpoint_due(seq) -> checkpoint(seq, blob)   top of the unit
//   append(type, payload)...                       journal, then apply
//   commit(seq, state_crc)                         the unit is final
//
// Recovery: recovery_point() finds the newest snapshot and the WAL suffix
// that replays on it; the caller restores the snapshot, calls resume(),
// and re-executes the suffix through its normal path, each commit()
// compared byte for byte with the group it replaces.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "durable/durable.h"
#include "durable/snapshot.h"
#include "durable/wal.h"

namespace burstq::durable {

struct RecoveryPoint {
  SnapshotStore::Loaded snapshot;  ///< the newest snapshot
  /// Groups for seq snapshot.slot, snapshot.slot + 1, ... up to the first
  /// gap.  Empty when the snapshot's WAL is missing or its header names
  /// another epoch.
  std::vector<WalGroup> suffix;
  bool wal_torn{false};  ///< a torn final group was dropped
};

/// nullopt when `store` holds no snapshot.  Throws CorruptState (file +
/// byte offset) when the newest snapshot is damaged.
std::optional<RecoveryPoint> recovery_point(const SnapshotStore& store);

class Journal {
 public:
  /// Validates `config`; creates `config.dir` on demand.
  explicit Journal(const DurabilityConfig& config);

  [[nodiscard]] const SnapshotStore& store() const { return store_; }
  /// A checkpoint or resume() has opened a WAL epoch.
  [[nodiscard]] bool started() const { return wal_ != nullptr; }

  /// `seq` is a multiple of the cadence and is not being replayed
  /// (rewriting a replayed epoch would truncate the WAL it verifies).
  [[nodiscard]] bool checkpoint_due(std::size_t seq) const;

  /// Writes snap-<seq>.bqss, opens wal-<seq>.bqwl, prunes to two pairs.
  void checkpoint(std::size_t seq, const std::string& blob);
  /// The same for a blob in pieces (see SnapshotStore::write_snapshot).
  void checkpoint(std::size_t seq,
                  std::span<const std::string_view> blob_parts,
                  std::uint32_t blob_crc);

  void append(WalRecord type, std::string payload);

  /// Commits the appended records as unit `seq`.  A replayed unit must
  /// reproduce its journaled group byte for byte, or CorruptState names
  /// the seq and the WAL.
  void commit(std::size_t seq, std::uint32_t state_crc);

  /// After the caller restored `point.snapshot`: reopens that epoch's WAL
  /// and arms verification of the suffix the caller re-executes.
  void resume(RecoveryPoint point);
  [[nodiscard]] const std::vector<WalGroup>& replay_groups() const {
    return replay_;
  }

 private:
  void open_epoch(std::size_t seq);

  std::size_t every_{1};
  bool fsync_{false};
  SnapshotStore store_;
  std::unique_ptr<WalWriter> wal_;
  /// Replay covers [replay_base_, replay_base_ + replay_.size()).
  std::size_t replay_base_{0};
  std::vector<WalGroup> replay_;
};

}  // namespace burstq::durable

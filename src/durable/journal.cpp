#include "durable/journal.h"

#include <utility>

#include "common/error.h"
#include "obs/trace_codec.h"

namespace burstq::durable {

std::optional<RecoveryPoint> recovery_point(const SnapshotStore& store) {
  auto loaded = store.load_newest();
  if (!loaded) return std::nullopt;
  RecoveryPoint point;
  point.snapshot = std::move(*loaded);
  const std::size_t base = point.snapshot.slot;
  WalScan scan = scan_wal(store.wal_path(base));
  point.wal_torn = scan.torn;
  // A WAL of another epoch journals units this snapshot never saw, and a
  // gap means a lost group: nothing after it committed from this state.
  if (scan.present && scan.base_slot == base) {
    for (std::size_t i = 0; i < scan.groups.size(); ++i) {
      if (scan.groups[i].slot != base + i) break;
      point.suffix.push_back(std::move(scan.groups[i]));
    }
  }
  return point;
}

Journal::Journal(const DurabilityConfig& config)
    : every_((config.validate(), config.snapshot_every)),
      fsync_(config.fsync),
      store_(config.dir, config.fsync) {}

bool Journal::checkpoint_due(std::size_t seq) const {
  return seq >= replay_base_ + replay_.size() && seq % every_ == 0;
}

void Journal::checkpoint(std::size_t seq, const std::string& blob) {
  const std::string_view parts[] = {blob};
  checkpoint(seq, parts, obs::trace_detail::crc32(blob));
}

void Journal::checkpoint(std::size_t seq,
                         std::span<const std::string_view> blob_parts,
                         std::uint32_t blob_crc) {
  store_.write_snapshot(seq, blob_parts, blob_crc);
  open_epoch(seq);
  store_.prune(2);
}

void Journal::open_epoch(std::size_t seq) {
  wal_ = std::make_unique<WalWriter>(store_.wal_path(seq), seq, fsync_);
}

void Journal::append(WalRecord type, std::string payload) {
  wal_->append(type, std::move(payload));
}

void Journal::commit(std::size_t seq, std::uint32_t state_crc) {
  BURSTQ_ASSERT(wal_ != nullptr, "commit before the first checkpoint");
  const std::string bytes = wal_->commit(seq, state_crc);
  if (seq >= replay_base_ + replay_.size()) return;  // not a replayed unit
  if (bytes != replay_[seq - replay_base_].bytes)
    throw CorruptState("WAL divergence at seq " + std::to_string(seq) +
                       ": the re-executed group does not match the journal (" +
                       wal_->path() + ")");
}

void Journal::resume(RecoveryPoint point) {
  replay_base_ = point.snapshot.slot;
  replay_ = std::move(point.suffix);
  open_epoch(replay_base_);
}

}  // namespace burstq::durable

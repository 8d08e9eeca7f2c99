// Write-ahead journal.  One WAL file accompanies each snapshot: the
// snapshot at slot S owns wal-<S>.bqwl, whose groups journal the slots
// (or controller ops) committed AFTER S.  Records are buffered in
// memory while a slot executes and framed into one CRC-protected group
// at commit; a group that is present and checks out is, by definition,
// a slot that fully committed.
//
// File layout:
//   header   "BQWL" u8 version  3x u8 zero  u64 base_slot        (16 B)
//   group*   u32 payload_len  u32 crc32(payload)  payload
//   payload  varint slot  varint state_crc  varint n_records
//            n_records x (u8 type, varint len, bytes)
//
// The scanner tolerates a torn tail (partial final group, bit flip in
// the last frame): it returns the valid prefix and flags `torn`.  It
// never throws for tail damage — a crash mid-write is the expected
// case, not corruption.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace burstq::durable {

/// Record types.  1..15 are simulator mutations (journaled before the
/// mutation is applied), 16+ are controller ops (see
/// core/durable_controller.h).
enum class WalRecord : std::uint8_t {
  kCrash = 1,        // PM crash: evacuation about to run
  kRecover = 2,      // PM back up
  kStall = 3,        // in-flight migrations stalled
  kAbort = 4,        // migration abort draw fired
  kMigrate = 5,      // scheduler move committed
  kMigrateFail = 6,  // scheduler found no target
  kQueue = 7,        // VM entered the recovery queue
  kOpAdmit = 16,
  kOpDepart = 17,
  kOpResize = 18,
  kOpTick = 19,
  kOpCrash = 20,
  kOpRecover = 21,
};

/// Appends records for the slot in flight, then atomically (w.r.t. the
/// scanner: the group's CRC only matches once fully written) commits
/// them as one group.  Creating a WalWriter truncates `path`.
class WalWriter {
 public:
  WalWriter(std::string path, std::size_t base_slot, bool fsync);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one record for the group in flight.  Journal-then-apply:
  /// call this BEFORE mutating in-memory state.
  void append(WalRecord type, std::string payload);

  /// Frames buffered records into one group stamped with `slot` and the
  /// caller's state digest, writes + flushes (+fsync when configured),
  /// and returns the exact group bytes for replay verification.
  std::string commit(std::size_t slot, std::uint32_t state_crc);

  /// Drops buffered (uncommitted) records — a killed slot's partial work.
  void discard_pending() { pending_.clear(); }

  std::size_t groups_committed() const { return groups_; }
  const std::string& path() const { return path_; }
  std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::string path_;
  bool fsync_{false};
  std::FILE* out_{nullptr};
  std::vector<std::pair<std::uint8_t, std::string>> pending_;
  std::size_t groups_{0};
  std::uint64_t bytes_{0};
};

/// One fully committed group, as scanned back.
struct WalGroup {
  std::size_t slot{0};
  std::uint32_t state_crc{0};
  std::vector<std::pair<WalRecord, std::string>> records;
  /// The group's exact on-disk bytes (frame + payload) — compared
  /// against WalWriter::commit output during replay verification.
  std::string bytes;
};

struct WalScan {
  /// File existed and carried a valid header.
  bool present{false};
  std::size_t base_slot{0};
  std::vector<WalGroup> groups;
  /// Bytes of header + valid groups; anything past this is the torn tail.
  std::uint64_t valid_bytes{0};
  /// Trailing bytes existed past the last valid group (partial write or
  /// tail corruption) and were discarded.
  bool torn{false};
};

/// Scans a WAL, keeping the longest valid prefix.  Missing file or bad
/// header -> present=false (and torn=true if the file existed).  Never
/// throws for tail damage.
WalScan scan_wal(const std::string& path);

}  // namespace burstq::durable

// Crash-durable façade over CloudController (core/controller.h).
//
// Every public operation (admit, depart, resize, tick, crash/recover
// injection) is journaled to the write-ahead log BEFORE it is applied,
// as one committed group per op, sequenced by a monotonically growing
// op number.  Every `snapshot_every` ops a full controller snapshot
// (CloudController::export_state) is checkpointed and the journal
// rotates, through the same durable::Journal as the simulator's slots.
//
// recover() on a freshly constructed instance loads the newest valid
// snapshot, imports it, and re-applies the journaled op suffix through
// the SAME public methods — ops are deterministic given the restored
// state, so a controller killed between any two ops resumes bit-exactly.
// During replay each re-journaled group is byte-compared against the
// pre-crash journal; divergence throws CorruptState.
//
// Ops that fail fast (admission rejections, resize rollbacks) are still
// journaled — their outcome re-derives identically on replay.  Ops that
// would throw (departing a dead tenant) are validated BEFORE journaling
// so a poisoned record can never enter the log.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "durable/durable.h"
#include "durable/journal.h"

namespace burstq {

class DurableController {
 public:
  /// Construction arguments mirror CloudController; `durability.dir` is
  /// created on demand and owned exclusively by this controller.
  DurableController(std::vector<PmSpec> pms, ControllerConfig config,
                    Rng rng, const durable::DurabilityConfig& durability);

  struct RecoverInfo {
    std::size_t snapshot_op{0};   ///< op number of the loaded snapshot
    std::size_t replayed_ops{0};  ///< journal suffix re-applied after it
  };

  /// True when the state directory holds at least one snapshot — i.e.
  /// recover() has something to resume from.
  [[nodiscard]] bool has_state() const;

  /// Restores the newest snapshot + WAL suffix.  Must be called before
  /// any op on a freshly constructed instance (same arguments as the
  /// crashed one).  Throws CorruptState when no valid snapshot exists or
  /// the stored state is inconsistent with the construction arguments.
  RecoverInfo recover();

  // The CloudController surface, journaled.  Semantics are identical to
  // the wrapped methods (core/controller.h).
  std::optional<TenantId> admit(const VmSpec& vm);
  void depart(TenantId id);
  bool resize(TenantId id, const VmSpec& new_spec);
  void tick();
  void inject_pm_crash(PmId pm);
  void inject_pm_recover(PmId pm);

  /// Read-only access for stats/queries (mutating the controller behind
  /// the journal's back forfeits the recovery contract).
  [[nodiscard]] const CloudController& controller() const { return ctrl_; }
  /// Ops journaled so far (== the next op's sequence number).
  [[nodiscard]] std::size_t op_seq() const { return op_seq_; }

 private:
  /// Checkpoint at the op boundary, then journal-and-commit the op
  /// record.  Called BEFORE the op is applied.
  void commit_op(durable::WalRecord type, std::string payload);
  void replay_op(durable::WalRecord type, const std::string& payload);

  CloudController ctrl_;
  durable::Journal journal_;
  std::size_t op_seq_{0};
};

}  // namespace burstq

// The live fleet behind online admission (paper Section IV-E): the state
// shared by OnlineConsolidator (online.h) and CloudController
// (core/controller.h).  It owns the PMs and the mapping table, a slot
// table with a LIFO free list (slot ids are the callers' stable handles),
// per-PM hosted lists in admission order (the back is always the newest
// VM), a PM up/down mask, and one PmSlackTree (pm_slack_tree.h) over
// conservative admissibility keys (incremental.h), -inf for a down PM.
//
// Every admission is first_fit(): the tree yields key-admissible PMs in
// ascending index order and each is confirmed by
// fits_with_reservation_specs over the hosted list, so the answer is
// exactly the linear first-fit scan over the up PMs.  Reservation is a
// pure function of a PM's hosted set, so "recalculating the queue size"
// is just refreshing the touched PMs' keys.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "placement/pm_slack_tree.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq {

/// One entry of the slot table.  A live slot with an invalid `pm` is
/// parked: admitted but currently unplaced (the controller's post-crash
/// queue).
struct FleetSlot {
  VmSpec spec{};
  PmId pm{};
  bool live{false};
};

/// How LiveFleet::resize resolved.
enum class ResizeOutcome {
  kStayed,    ///< Eq. (17) still holds on the current PM (or it is parked)
  kMoved,     ///< first-fit to another PM like a fresh arrival
  kRejected,  ///< nothing admits the new spec; the old one was restored
};

class LiveFleet {
 public:
  /// An empty fleet over `pms` (all up) under `table`.
  LiveFleet(std::vector<PmSpec> pms, MapCalTable table);

  /// Lowest-indexed PM that admits `vm` under Eq. (17), never `skip`,
  /// never a down PM; nullopt when nothing admits it.
  std::optional<PmId> first_fit(const VmSpec& vm, PmId skip = PmId{});

  /// A new live slot for `vm` on `pm` (reusing the most recently freed
  /// slot id first).  No admission check: callers run first_fit.
  std::size_t place(const VmSpec& vm, PmId pm);
  /// Frees a live slot, detaching it from its PM if placed.
  void remove(std::size_t slot);
  /// Detaches a placed slot from its PM; it stays live.
  void park(std::size_t slot);
  /// Places a parked slot on `pm`, as the newest VM there.
  void attach(std::size_t slot, PmId pm);
  /// park + attach.
  void move(std::size_t slot, PmId to);

  /// Gives a live slot `spec`.  A parked slot just takes it.  A placed
  /// slot stays when Eq. (17) still holds on its PM; otherwise it is
  /// detached and first-fit like an arrival; when nothing admits
  /// the new spec the old spec goes back on the old PM (always feasible:
  /// that exact hosted set held before) as its newest VM.
  ResizeOutcome resize(std::size_t slot, const VmSpec& spec);

  /// Replaces the mapping table and rebuilds every key; hosted sets are
  /// not repaired.
  void set_table(MapCalTable table);
  /// Marks a PM up or down (its key is -inf while down).
  void set_up(PmId pm, bool up);

  [[nodiscard]] std::size_t n_pms() const { return pms_.size(); }
  [[nodiscard]] const std::vector<PmSpec>& pms() const { return pms_; }
  [[nodiscard]] const MapCalTable& table() const { return table_; }
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] const FleetSlot& slot(std::size_t s) const {
    return slots_[s];
  }
  [[nodiscard]] bool live(std::size_t s) const {
    return s < slots_.size() && slots_[s].live;
  }
  [[nodiscard]] std::size_t live_count() const {
    return slots_.size() - free_slots_.size();  // dead slots are all free
  }
  /// Slot ids hosted on `pm`, oldest first.
  [[nodiscard]] const std::vector<std::size_t>& hosted(PmId pm) const {
    return hosted_[pm.value];
  }
  [[nodiscard]] const std::vector<std::size_t>& free_slots() const {
    return free_slots_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& up() const { return up_; }
  [[nodiscard]] bool pm_up(PmId pm) const { return up_[pm.value] != 0; }
  [[nodiscard]] std::size_t pms_used() const;

  /// True when `pm`'s hosted set satisfies Eq. (17) under the current
  /// table (an empty PM always does).
  [[nodiscard]] bool holds_on(PmId pm) const;

  /// Eq. (17) on every PM, no down PM hosting anything, and every placed
  /// live slot on an up PM.
  [[nodiscard]] bool reservation_invariant_holds() const;

  /// The persistent part of the fleet (the keys are derived).
  struct Contents {
    std::vector<FleetSlot> slots;
    std::vector<std::size_t> free_slots;
    std::vector<std::vector<std::size_t>> hosted;
    std::vector<std::uint8_t> up;
  };

  /// Replaces the fleet with `c` under `table` if it is consistent: PM
  /// indices in range, free and hosted slot ids in range with the right
  /// liveness, each dead slot free once, each placed slot listed once on
  /// its own up PM.  Returns nullptr, or the first inconsistency found
  /// (the fleet is then unchanged).
  [[nodiscard]] const char* restore(Contents c, MapCalTable table);

 private:
  void refresh_key(PmId pm);
  void refresh_all_keys();
  /// The specs hosted on `pm`, in list order, into `out`.
  void hosted_specs(PmId pm, std::vector<VmSpec>& out) const;

  std::vector<PmSpec> pms_;
  MapCalTable table_;
  std::vector<FleetSlot> slots_;
  std::vector<std::size_t> free_slots_;  ///< LIFO
  std::vector<std::vector<std::size_t>> hosted_;
  std::vector<std::uint8_t> up_;  ///< 1 = up
  PmSlackTree tree_;              ///< admissibility keys (down: -inf)
  std::vector<VmSpec> scratch_;   ///< hosted specs for the exact check
};

}  // namespace burstq

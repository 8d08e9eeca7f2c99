// Online consolidation (paper Section IV-E).
//
// "When a new VM arrives, we place it on the first PM that satisfies the
// constraint in Equation (17), and recalculate the size of the queue; when
// a VM quits, we simply recalculate the size of the queue on the PM; when
// a batch of new VMs arrives, we use the same scheme as Algorithm 2 to
// place them.  Additionally, if p_on and p_off varies among VMs, we need
// to round them to uniform values ... which requires periodical
// recalculation of the rounded p_on and p_off."
//
// OnlineConsolidator runs the Section IV-E rules over a LiveFleet
// (live_fleet.h), the slot table, hosted lists and slack tree it shares
// with CloudController.  Every arrival takes the first PM that admits it
// under Eq. (17), found by one slack-tree scan in PM index order.
// It adds the Algorithm-2 visit order for batches and the
// periodic recalibration: when the rounded parameters drift, the mapping
// table is rebuilt and PMs whose reservation no longer fits are repaired
// by migrating their most-recently-added VMs.

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "placement/live_fleet.h"
#include "placement/queuing_ffd.h"
#include "placement/spec.h"

namespace burstq {

/// Stable handle for a VM admitted to an OnlineConsolidator.
struct VmHandle {
  std::size_t slot{static_cast<std::size_t>(-1)};
  [[nodiscard]] bool valid() const {
    return slot != static_cast<std::size_t>(-1);
  }
  friend bool operator==(VmHandle a, VmHandle b) { return a.slot == b.slot; }
};

class OnlineConsolidator {
 public:
  /// A fleet of PMs, initially empty, managed under `options`.
  /// `initial_params` seeds the mapping table until the first VMs arrive
  /// (afterwards recalibrate() tracks the hosted population).
  OnlineConsolidator(std::vector<PmSpec> pms, QueuingFfdOptions options,
                     OnOffParams initial_params = {});

  /// Admits one VM (first-fit under Eq. 17 against the *current* mapping
  /// table).  Returns nullopt when no PM can take it.
  std::optional<VmHandle> add_vm(const VmSpec& vm);

  /// Admits a batch using the Algorithm-2 ordering (cluster by Re, sort).
  /// Element i of the result is the handle for batch[i], nullopt if that
  /// VM could not be placed.
  std::vector<std::optional<VmHandle>> add_batch(
      const std::vector<VmSpec>& batch);

  /// Removes a VM.  The freed queue size on its PM shrinks automatically
  /// (reservation is a function of the remaining VMs).
  void remove_vm(VmHandle h);

  /// Resizes a live VM to `new_spec`: it stays put while its PM still
  /// satisfies Eq. (17), else it is placed like a fresh arrival; when no
  /// PM admits the new spec the original spec stays on the original PM
  /// and false is returned.  The handle stays valid in every case.
  bool resize_vm(VmHandle h, const VmSpec& new_spec);

  /// Recomputes the rounded (p_on, p_off) from the VMs currently hosted;
  /// if they moved by more than `tolerance` (absolute, either component),
  /// rebuilds the mapping table and repairs any PM whose reservation now
  /// exceeds capacity by re-placing its newest VMs elsewhere.  Returns the
  /// number of repair migrations performed.
  std::size_t recalibrate(double tolerance = 1e-3);

  [[nodiscard]] std::size_t pms_used() const { return fleet_.pms_used(); }
  [[nodiscard]] std::size_t vms_hosted() const {
    return fleet_.live_count();
  }
  [[nodiscard]] PmId pm_of(VmHandle h) const;
  [[nodiscard]] const VmSpec& spec_of(VmHandle h) const;
  [[nodiscard]] std::size_t count_on(PmId pm) const;
  [[nodiscard]] const MapCalTable& table() const { return fleet_.table(); }
  [[nodiscard]] const OnOffParams& rounded_params() const {
    return fleet_.table().params();
  }

  /// True when every PM satisfies Eq. (17) under the current table —
  /// the invariant the class maintains after every mutation.
  [[nodiscard]] bool reservation_invariant_holds() const {
    return fleet_.reservation_invariant_holds();
  }

 private:
  QueuingFfdOptions options_;
  LiveFleet fleet_;
};

}  // namespace burstq

// The VM-to-PM mapping X (paper Eq. "X = [x_ij]") plus constraint checks.
//
// Stored as a dense assignment vector (one PmId per VM) with per-PM VM
// lists maintained incrementally.  Each VM also remembers its position in
// its PM's list, so unassign() is a swap-remove in O(1) — the replan /
// migration hot path never searches a list.
//
// A Placement may additionally be *bound* to a ProblemInstance (the
// one-argument constructor).  A bound placement maintains per-PM aggregate
// caches — VM count, sum of Rb, max Re — on every assign/unassign, which
// makes the Eq. (17) feasibility check and the best-fit slack O(1) instead
// of O(VMs on the PM).  The walk-based helpers (*_walk) are kept as the
// debug-checked reference implementation; aggregates_consistent() compares
// the two.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq {

/// Serializable contents of a Placement for durable snapshots.  Per-PM
/// list ORDER and the raw aggregate doubles are preserved exactly:
/// unassign's swap-remove reorders lists and rb_sum_ carries float-
/// association noise, so re-deriving either from pm_of alone would
/// diverge from the uninterrupted run.
struct PlacementState {
  std::vector<PmId> pm_of;
  std::vector<std::vector<std::size_t>> vms_on;
  bool bound{false};  ///< aggregates below are populated
  std::vector<Resource> rb_sum;
  std::vector<Resource> re_max;
};

/// Relative tolerance used in capacity comparisons so that reservation
/// arithmetic on doubles never rejects an exactly-full PM.
inline constexpr double kCapacityEpsilon = 1e-9;

/// Left-hand side of Eq. (17) once `vm` joins a PM hosting `k` VMs whose
/// Rb sum to `rb_sum` and whose largest Re is `re_max`:
///
///   max(Re_i, re_max) * mapping(k+1) + Rb_i + rb_sum
///
/// evaluated left to right.  This is the one Eq. (17) expression: every
/// admission check and best-fit slack goes through it, so all drivers see
/// the same bits.  Requires k + 1 <= table.max_vms_per_pm().
inline Resource eq17_footprint_with(std::size_t k, Resource rb_sum,
                                    Resource re_max, const VmSpec& vm,
                                    const MapCalTable& table) {
  const Resource block = std::max(vm.re, re_max);
  return block * static_cast<double>(table.blocks(k + 1)) + vm.rb + rb_sum;
}

/// Eq. (17) on raw per-PM aggregates: can `vm` join a PM of `capacity`
/// hosting `k` VMs with the given Rb sum and max Re?  False once the PM
/// hosts table.max_vms_per_pm() VMs (the paper's per-PM cap d).
inline bool eq17_admits(Resource capacity, std::size_t k, Resource rb_sum,
                        Resource re_max, const VmSpec& vm,
                        const MapCalTable& table) {
  if (k + 1 > table.max_vms_per_pm()) return false;
  return eq17_footprint_with(k, rb_sum, re_max, vm, table) <=
         capacity * (1.0 + kCapacityEpsilon);
}

class Placement {
 public:
  /// Empty mapping over n VMs and m PMs; every VM starts unassigned.
  /// Aggregates are not tracked (no spec data available).  Requires
  /// 0 < n < 2^32 (list positions are stored in 32 bits) and m > 0.
  Placement(std::size_t n_vms, std::size_t n_pms);

  /// Empty mapping bound to `inst`: per-PM (k, rb_sum, re_max) aggregates
  /// are maintained incrementally.  `inst` must outlive this placement and
  /// every copy of it that is still mutated.
  explicit Placement(const ProblemInstance& inst);

  /// Placement bound to `inst` that adopts a complete mapping: `st` must
  /// hold inst.n_vms() pm_of entries, inst.n_pms() lists that agree with
  /// them (each assigned VM listed exactly once, on its own PM), and bound
  /// aggregates.  Lists keep their order and the aggregates their bits.
  /// Throws InvalidArgument otherwise.  O(n + m), no copy of the state.
  Placement(const ProblemInstance& inst, PlacementState&& st);

  /// Assigns `vm` to `pm`.  The VM must currently be unassigned.  O(1).
  void assign(VmId vm, PmId pm);

  /// Removes `vm` from its PM via swap-remove.  O(1) except when the VM
  /// held the PM's max Re on a bound placement (then O(VMs on that PM) to
  /// rescan).  Note the swap reorders vms_on(pm).
  void unassign(VmId vm);

  /// PM hosting `vm`; invalid Id when unassigned.  Inline: the slot
  /// loop reads it for every VM every slot.
  [[nodiscard]] PmId pm_of(VmId vm) const {
    if (vm.value >= pm_of_.size()) throw_out_of_range("pm_of", "VM");
    return pm_of_[vm.value];
  }

  [[nodiscard]] bool assigned(VmId vm) const { return pm_of(vm).valid(); }

  /// Indices of VMs currently on `pm`.  Assignment order until the first
  /// unassign on that PM; swap-removal may reorder afterwards.
  [[nodiscard]] const std::vector<std::size_t>& vms_on(PmId pm) const {
    if (pm.value >= vms_on_.size()) throw_out_of_range("vms_on", "PM");
    return vms_on_[pm.value];
  }

  [[nodiscard]] std::size_t count_on(PmId pm) const {
    return vms_on(pm).size();
  }

  /// Number of PMs hosting at least one VM — the paper's objective (Eq. 6).
  [[nodiscard]] std::size_t pms_used() const { return pms_used_; }

  /// Number of VMs currently assigned.
  [[nodiscard]] std::size_t vms_assigned() const { return vms_assigned_; }

  [[nodiscard]] std::size_t n_vms() const { return pm_of_.size(); }
  [[nodiscard]] std::size_t n_pms() const { return vms_on_.size(); }

  /// True when this placement maintains per-PM aggregates for `inst`
  /// (i.e. it was bound to that same instance object).
  [[nodiscard]] bool tracks_aggregates(const ProblemInstance& inst) const {
    return inst_ == &inst;
  }

  /// True when this placement maintains per-PM aggregates for some
  /// instance (PlacementState::bound).
  [[nodiscard]] bool bound() const { return inst_ != nullptr; }

  /// Cached sum of Rb on `pm`.  Requires a bound placement.  Equals the
  /// walk-based sum bit-for-bit as long as no VM was unassigned from the
  /// PM; after churn it may differ by floating-point association noise.
  [[nodiscard]] Resource rb_sum_on(PmId pm) const;

  /// Cached max Re on `pm` (0 when empty).  Requires a bound placement.
  /// Always exactly equal to the walk-based maximum.
  [[nodiscard]] Resource re_max_on(PmId pm) const;

  /// Durable-snapshot import (the simulator's snapshot encoder reads the
  /// placement in place).  Replaces the whole mapping; derived indices
  /// (pos_in_pm_, pms_used_, vms_assigned_) are rebuilt from the lists.
  /// The placement keeps its current binding — aggregates in the state
  /// are only applied to a bound placement.  Rejects the same
  /// inconsistent states as the adopting constructor.
  void restore_state(const PlacementState& st);

 private:
  void init(std::size_t n_vms, std::size_t n_pms);
  /// Takes over `st` (sized n_vms x n_pms) after checking that its lists
  /// agree with its pm_of; rebuilds the derived indices.  Shared by the
  /// adopting constructor and restore_state.
  void adopt(PlacementState&& st, std::size_t n_vms, std::size_t n_pms);
  /// Cold path of the inline accessors: throws InvalidArgument.
  [[noreturn]] static void throw_out_of_range(const char* accessor,
                                              const char* what);

  const ProblemInstance* inst_{nullptr};
  std::vector<PmId> pm_of_;
  std::vector<std::uint32_t> pos_in_pm_;  ///< index of each VM in its PM list
  std::vector<std::vector<std::size_t>> vms_on_;
  std::vector<Resource> rb_sum_;  ///< per-PM aggregate (bound only)
  std::vector<Resource> re_max_;  ///< per-PM aggregate (bound only)
  std::size_t pms_used_{0};
  std::size_t vms_assigned_{0};
};

/// Aggregate Rb of the VMs on `pm`.  O(1) on a placement bound to `inst`,
/// otherwise a walk over the PM's VM list.
Resource total_rb_on(const ProblemInstance& inst, const Placement& placement,
                     PmId pm);

/// Largest Re of the VMs on `pm` (0 when empty) — the uniform block size
/// the paper reserves ("conservatively set to the maximum Re of the hosted
/// VMs").  O(1) on a placement bound to `inst`.
Resource max_re_on(const ProblemInstance& inst, const Placement& placement,
                   PmId pm);

/// Walk-based reference implementations of the two aggregates above.
/// Always recompute from the VM list; used by tests and debug checks to
/// validate the incremental caches.
Resource total_rb_on_walk(const ProblemInstance& inst,
                          const Placement& placement, PmId pm);
Resource max_re_on_walk(const ProblemInstance& inst,
                        const Placement& placement, PmId pm);

/// True when every cached per-PM aggregate of a bound placement matches
/// the walk-based recomputation: re_max exactly, rb_sum within `rel_tol`
/// relative error (unassign churn reorders float additions).  Placements
/// not bound to `inst` are vacuously consistent.
bool aggregates_consistent(const ProblemInstance& inst,
                           const Placement& placement,
                           double rel_tol = 1e-9);

/// Left-hand side of Eq. (17) for the PM as currently loaded: reserved
/// queue size plus aggregate Rb.
Resource reserved_footprint(const ProblemInstance& inst,
                            const Placement& placement, PmId pm,
                            const MapCalTable& table);

/// Eq. (17): can `vm` be added to `pm` under the reservation rule?
/// False when the PM already hosts table.max_vms_per_pm() VMs (the paper's
/// per-PM cap d).  O(1) on a placement bound to `inst`.
bool fits_with_reservation(const ProblemInstance& inst,
                           const Placement& placement, VmId vm, PmId pm,
                           const MapCalTable& table);

/// Eq. (17) on an explicit host list: can `candidate` join a PM of the
/// given capacity currently hosting `hosted`?  Used by the online
/// consolidator, which manages its own VM containers.
bool fits_with_reservation_specs(std::span<const VmSpec> hosted,
                                 const VmSpec& candidate, Resource capacity,
                                 const MapCalTable& table);

/// Reserved footprint (Eq. 17 LHS) of an explicit host list.
Resource reserved_footprint_specs(std::span<const VmSpec> hosted,
                                  const MapCalTable& table);

/// Post-hoc validation that every used PM satisfies Eq. (17); used by
/// tests and by online rebuilds.
bool placement_satisfies_reservation(const ProblemInstance& inst,
                                     const Placement& placement,
                                     const MapCalTable& table);

/// Eq. (3) at t = 0 (all VMs OFF): aggregate Rb on each PM within capacity.
bool placement_satisfies_initial_capacity(const ProblemInstance& inst,
                                          const Placement& placement);

}  // namespace burstq

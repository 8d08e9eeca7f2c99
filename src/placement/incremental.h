// Incremental placement engine for the Eq. (17) reservation predicate.
//
// The generic first-fit driver scans PMs 0..m-1 per VM: O(n·m) checks
// even with O(1) per check.  This engine keeps a PmSlackTree over a
// conservative per-PM admissibility key
//
//   key(j) = C_j(1+eps) - re_max_j * mapping(k_j + 1) - rb_sum_j  (+margin)
//
// which upper-bounds the largest Rb the PM could still admit: Eq. (17)
// feasibility of VM i on PM j implies Rb_i <= key(j), because the true
// reserved block max(Re_i, re_max_j) is at least re_max_j.  Each VM then
// descends the tree to the lowest-indexed PM with key >= Rb_i (O(log m))
// and confirms with the exact O(1) check; a false positive (possible only
// when Re_i > re_max_j or at a float boundary inside the margin) resumes
// the descent after that PM.  Because the filter is conservative and the
// confirmation is eq17_admits (placement.h), the one Eq. (17) expression
// fits_with_reservation also evaluates, the resulting placement is
// bit-identical to the naive linear-scan driver.
//
// During the descents the per-PM aggregates (k, rb_sum, re_max) live in
// flat arrays, and each visit position records its host PM as a 32-bit
// index.  The result Placement is built once at the end: each PM's list
// in visit order with exact capacity, and the aggregate arrays moved in,
// so they carry the same bits an assign-per-VM Placement accumulates.
//
// Observability: `placement.fit_checks` counts exact confirmations (the
// Eq. 17 evaluations a replay must reproduce), `placement.tree_descents`
// counts tree queries; naive-scan skips no longer appear in fit_checks.

#pragma once

#include <cstddef>
#include <span>

#include "placement/first_fit.h"
#include "placement/placement.h"
#include "queuing/mapcal.h"

namespace burstq {

/// Safety margin added to the conservative filter key so float rounding
/// in the key arithmetic can never reject a PM the exact check would
/// accept (it is ~1e2 times larger than the worst-case rounding error and
/// only admits extra exact confirmations, never wrong placements).
inline constexpr double kSlackFilterMargin = 1e-9;

/// Conservative admissibility key of a PM with the given capacity and
/// load aggregates: an upper bound on the largest Rb the PM could still
/// admit under Eq. (17).  -inf once the per-PM VM cap is reached.  Shared
/// by the incremental engine and the live fleet behind online admission
/// (live_fleet.h) — both must compute the exact same key for their slack
/// trees to agree bit-for-bit.
double conservative_admit_key(double capacity, std::size_t vm_count,
                              double rb_sum, double re_max,
                              const MapCalTable& table);

/// Per-run statistics of the incremental engine (also exported as obs
/// counters; the struct serves callers compiled with BURSTQ_NO_OBS).
struct IncrementalStats {
  std::size_t tree_descents{0};  ///< slack-tree queries issued
  std::size_t exact_checks{0};   ///< exact Eq. (17) confirmations run
};

/// First-fit under Eq. (17), bit-identical to
/// first_fit_place(inst, order, fits_with_reservation-lambda) but with an
/// O(log m) tree descent per placement instead of an O(m) scan.  Throws
/// InvalidArgument on an invalid instance or order, and when the fleet
/// has 2^32 PMs or more.
PlacementResult first_fit_place_reservation(const ProblemInstance& inst,
                                            std::span<const std::size_t> order,
                                            const MapCalTable& table,
                                            IncrementalStats* stats = nullptr);

namespace detail {

/// first_fit_place_reservation without the O(n) instance validation, for
/// callers that validated `inst` themselves (queuing_ffd).
PlacementResult first_fit_place_reservation_validated(
    const ProblemInstance& inst, std::span<const std::size_t> order,
    const MapCalTable& table, IncrementalStats* stats = nullptr);

}  // namespace detail

}  // namespace burstq

// Differential oracles: independent implementations of the same quantity
// cross-checked on one fuzz case.  Each oracle is deterministic in the
// case seed, so any discrepancy replays exactly.
//
//   kStationary — the three stationary backends (kGaussian / kPower /
//                 kClosedForm) pinned pairwise within tolerance.
//   kCvr        — map_cal's analytic CVR bound (Eq. 16) vs the empirical
//                 CVR of simulate_occupancy, within a mixing-aware
//                 statistical tolerance; gated out for chains too slow to
//                 mix inside a bounded simulation.
//   kPlacement  — naive linear-scan vs incremental slack-tree first-fit
//                 engines bit-identical, before and after random churn.
//   kCache      — MapCalTable cache hits bit-identical to cold solves,
//                 cold solves bit-identical to direct map_cal calls, and
//                 value-equal keys (-0.0 vs 0.0) never duplicating an
//                 entry.  Mutates (clears) the process-wide table cache.
//   kRecovery   — ClusterSimulator under a scripted crash/recover/solver
//                 fault plan: zero lost VMs, every VM hosted or queued at
//                 the end, per-PM aggregates consistent, and the whole
//                 run bit-identical when repeated from the same seed.
//                 Mutates (clears) the process-wide table cache so cache
//                 warmth from run 1 cannot change run 2's ladder path.
//   kDurability — the crash-durable persistence contract (src/durable):
//                 a run killed mid-flight and restored from snapshot+WAL
//                 produces the byte-identical report and final placement
//                 of the uninterrupted run; a torn WAL tail recovers the
//                 valid prefix and still converges; a bit-flipped
//                 snapshot fails loudly instead of restoring garbage.
//                 Writes per-case state under the system temp directory
//                 (removed on exit) and clears the table cache.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "check/generator.h"
#include "fault/plan.h"

namespace burstq::check {

enum class OracleId {
  kStationary,
  kCvr,
  kPlacement,
  kCache,
  kRecovery,
  kDurability,
};

/// "stationary" | "cvr" | "placement" | "cache" | "recovery" |
/// "durability".
std::string_view oracle_name(OracleId id);

/// Outcome of one oracle on one case.
struct OracleReport {
  bool ran{true};    ///< false when gated out (not counted as pass or fail)
  bool ok{true};     ///< meaningful only when ran
  std::string detail;  ///< human-readable mismatch description when !ok

  static OracleReport pass() { return {}; }
  static OracleReport skip(std::string why) {
    return {false, true, std::move(why)};
  }
  static OracleReport fail(std::string what) {
    return {true, false, std::move(what)};
  }
};

OracleReport check_stationary_backends(const FuzzCase& c);
OracleReport check_cvr_bound_vs_simulation(const FuzzCase& c);
OracleReport check_placement_engines(const FuzzCase& c);
OracleReport check_mapcal_cache(const FuzzCase& c);
OracleReport check_recovery_invariants(const FuzzCase& c);
OracleReport check_durability_contract(const FuzzCase& c);

/// The scripted fault plan of the recovery and durability oracles: PM
/// `c.fault_seed % n_pms` crashes at c.fault_crash_slot and recovers at
/// c.fault_recover_slot, plus `extra` events and the case's Markov
/// migration-abort stream; sorted by slot and validated against the
/// fleet and the c.fault_slots horizon (throws InvalidArgument).
fault::FaultPlan case_fault_plan(
    const FuzzCase& c, std::size_t n_pms,
    const std::vector<fault::FaultEvent>& extra = {});

/// Dispatch by id.
OracleReport run_oracle(OracleId id, const FuzzCase& c);

}  // namespace burstq::check

// CloudController — the closed-loop integration of everything burstq
// implements: burstiness-aware admission (Eq. 17), slotted workload
// evolution, CVR-triggered live migration (the dynamic scheduler), and
// periodic budget-bounded maintenance consolidation.
//
// This is the shape of the component an operator would actually deploy:
// the paper's Algorithm 2 handles initial/batch placement, Section IV-E's
// online rules handle churn, and the runtime loop keeps the performance
// constraint honest while reclaiming PMs during maintenance windows.
//
// The controller drives a *dynamic* fleet: VMs arrive and depart at any
// slot.  Admission state — the slot table, hosted lists, PM liveness and
// the slack tree over admissibility keys — lives in a LiveFleet
// (placement/live_fleet.h), the same one OnlineConsolidator drives, so
// both apply one Eq. (17) first-fit.  On top of it the controller keeps
// what only a running cloud needs: a per-tenant ON/OFF chain (rather than
// a fixed WorkloadEnsemble), the post-crash admission queue, the
// CVR-triggered scheduler, maintenance, the CVR and energy trackers, and
// the state codec.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "fault/recovery.h"
#include "placement/live_fleet.h"
#include "placement/queuing_ffd.h"
#include "queuing/mapcal.h"
#include "sim/energy.h"
#include "sim/metrics.h"
#include "sim/migration.h"

namespace burstq {

namespace obs {
class SloTracker;
}

struct ControllerConfig {
  QueuingFfdOptions ffd{};        ///< admission rule (rho, d, clustering)
  MigrationPolicy policy{};       ///< runtime scheduler
  double sigma_seconds{30.0};
  PowerModel power{};
  /// Run a maintenance consolidation every this many slots (0 = never).
  std::size_t maintenance_every{0};
  /// Live-migration budget per maintenance window.
  std::size_t maintenance_budget{20};
  /// Backoff discipline for tenants displaced by a PM crash that fit
  /// nowhere immediately (inject_pm_crash).
  fault::RecoveryPolicy recovery{};
  /// Optional SLO tracker (obs/slo.h); not owned, must outlive the
  /// controller.  Mirrors every tick's per-PM violation verdicts.
  obs::SloTracker* slo{nullptr};

  void validate() const;
};

/// Stable handle for an admitted VM.
struct TenantId {
  std::size_t slot{static_cast<std::size_t>(-1)};
  [[nodiscard]] bool valid() const {
    return slot != static_cast<std::size_t>(-1);
  }
  friend bool operator==(TenantId a, TenantId b) { return a.slot == b.slot; }
};

/// Rolling counters exposed after every tick.
struct ControllerStats {
  std::size_t slots{0};
  std::size_t vms_hosted{0};
  std::size_t pms_used{0};
  std::size_t admissions{0};
  std::size_t rejections{0};
  std::size_t departures{0};
  std::size_t resizes{0};            ///< successful resize() calls
  std::size_t resize_migrations{0};  ///< resizes that had to move the VM
  std::size_t resize_rejections{0};  ///< resizes rolled back (no PM fits)
  std::size_t runtime_migrations{0};   ///< scheduler-triggered
  std::size_t maintenance_migrations{0};
  std::size_t failed_migrations{0};
  std::size_t maintenance_windows{0};
  std::size_t pm_crashes{0};     ///< inject_pm_crash calls that took effect
  std::size_t pm_recoveries{0};
  std::size_t evacuations{0};    ///< crash victims re-placed immediately
  std::size_t evac_queued{0};    ///< crash victims that had to queue
  std::size_t retries{0};        ///< queue placement attempts (backoff)
  std::size_t degraded_maintenance{0};  ///< table recalibrations skipped
                                        ///< because the solver was down
  double mean_cvr{0.0};  ///< cumulative, over PMs that hosted VMs
  double max_cvr{0.0};
  double energy_wh{0.0};
};

class CloudController {
 public:
  CloudController(std::vector<PmSpec> pms, ControllerConfig config,
                  Rng rng);

  /// Admits one VM via first-fit under Eq. (17); the chain starts in its
  /// stationary state.  Returns nullopt (and counts a rejection) when no
  /// PM can take it.
  std::optional<TenantId> admit(const VmSpec& vm);

  /// Removes a VM.  Throws on dead/invalid handles.
  void depart(TenantId id);

  /// Resizes a live tenant to `new_spec`.  Stays on its PM when Eq. (17)
  /// still holds there; otherwise it is migrated like a fresh arrival.
  /// When nothing fits, the original
  /// spec is restored in place (always feasible) and false is returned.
  /// Queued tenants just swap their spec (they are re-placed on drain).
  /// Changing the ON/OFF parameters restarts the tenant's chain from its
  /// stationary distribution.
  bool resize(TenantId id, const VmSpec& new_spec);

  /// Advances one slot: workload step, violation bookkeeping, dynamic
  /// scheduling, energy metering, and — when due — the maintenance
  /// consolidation.
  void tick();

  /// Marks a PM failed.  Hosted tenants evacuate first-fit over the
  /// remaining up PMs under Eq. (17); those that fit nowhere join an
  /// admission queue drained with exponential backoff on later ticks
  /// (a queued tenant is parked: its chain does not advance and it loads
  /// no PM until re-placed).  Idempotent on an already-down PM.
  void inject_pm_crash(PmId pm);

  /// Brings a failed PM back up; queued tenants may drain onto it on the
  /// next tick.  Idempotent on an up PM.
  void inject_pm_recover(PmId pm);

  [[nodiscard]] bool pm_up(PmId pm) const { return fleet_.pm_up(pm); }
  [[nodiscard]] std::size_t n_pms() const { return fleet_.n_pms(); }
  /// True when `id` names a live (admitted, not departed) tenant — the
  /// validity precondition of depart/resize/pm_of/spec_of.
  [[nodiscard]] bool tenant_live(TenantId id) const {
    return fleet_.live(id.slot);
  }
  /// Tenants awaiting re-placement after a crash.
  [[nodiscard]] std::size_t queued_tenants() const { return queue_.size(); }

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pms_used() const;
  /// The hosting PM; an *invalid* PmId while the tenant sits in the
  /// post-crash admission queue.
  [[nodiscard]] PmId pm_of(TenantId id) const;
  [[nodiscard]] const VmSpec& spec_of(TenantId id) const;

  /// Verifies the reservation invariant over the current fleet, including
  /// that no down PM hosts tenants and every live tenant is either placed
  /// on an up PM or queued.
  [[nodiscard]] bool reservation_invariant_holds() const;

  /// Serializes the complete controller state (RNG, tenants and chains,
  /// PM liveness, queue, trackers, stats) as a durable snapshot blob.
  /// The mapping table itself is not serialized — the ON-OFF parameters
  /// it was calibrated with are, and import rebuilds it.
  [[nodiscard]] std::string export_state() const;

  /// Restores export_state() bytes into a controller constructed with
  /// the SAME fleet and config.  Throws durable::CorruptState on a
  /// truncated/garbled blob or a construction-argument mismatch.
  void import_state(std::string_view blob);

 private:
  struct QueuedTenant {
    std::size_t slot{0};
    std::size_t retries{0};
    std::size_t next_attempt{0};  ///< earliest tick (stats_.slots) to retry
  };

  void run_scheduler(std::vector<Resource>& load);
  void run_maintenance();
  void drain_queue();
  [[nodiscard]] bool fleet_degraded() const;
  /// True when the queue holds each parked tenant exactly once and
  /// nothing else.
  [[nodiscard]] bool queue_matches_parked() const;

  ControllerConfig config_;
  Rng rng_;
  LiveFleet fleet_;
  std::vector<OnOffChain> chains_;   ///< per fleet slot
  std::vector<QueuedTenant> queue_;  ///< FIFO, crash victims (parked)
  CvrTracker tracker_;
  EnergyMeter meter_;
  ControllerStats stats_;
};

}  // namespace burstq

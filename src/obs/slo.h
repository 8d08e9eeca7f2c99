// SloTracker — turns the paper's CVR budget into a continuously watched
// service-level objective.  The reservation theory promises CVR <= rho
// per PM (Eq. 16/17); the tracker measures what actually happened, per
// PM and cluster-wide, over two rolling windows:
//
//   fast   — a short window (default 10 slots; 5 minutes of 30 s slots)
//   slow   — a long window  (default 120 slots; 1 hour of 30 s slots)
//
// and computes multi-window *burn rates* (observed CVR / rho).  A breach
// episode starts when BOTH burn rates exceed the threshold — the classic
// fast+slow alerting rule: the slow window proves the problem is real,
// the fast window proves it is still happening — and ends when the fast
// burn recovers.  Gauges `obs.slo.cvr_burn_fast` / `obs.slo.cvr_burn_slow`
// and the `fault.slo.breaches` episode counter are published into the
// metrics registry on every end_slot() (compiled out under
// -DBURSTQ_NO_OBS; the tracker itself keeps working for offline audits).
//
// Unlike CvrTracker, SLO windows are never reset on migration: operators
// measure what tenants experienced, cooldowns notwithstanding.
//
// All public methods are thread-safe: the simulation loop calls
// record()/end_slot() while the telemetry HTTP server calls report().

#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace burstq::obs {

struct SloOptions {
  double rho{0.01};             ///< the configured Eq. 16/17 CVR budget
  std::size_t fast_window{10};  ///< slots; 5 min of 30 s slots
  std::size_t slow_window{120};  ///< slots; 1 h of 30 s slots
  double breach_burn{1.0};  ///< burn level that opens a breach episode

  /// Throws InvalidArgument on rho outside (0,1], zero windows, or
  /// fast_window > slow_window.
  void validate() const;
};

/// Observed violation statistics of one window (or of the whole run).
struct SloWindowStats {
  std::size_t observed{0};    ///< PM-slots observed
  std::size_t violations{0};  ///< PM-slots violated
  double cvr{0.0};            ///< violations / observed (0 if unobserved)
  double burn{0.0};           ///< cvr / rho
};

/// Per-PM verdict for /slo and the replay audit.
struct SloPmStats {
  std::size_t pm{0};
  std::size_t observed{0};    ///< cumulative slots observed
  std::size_t violations{0};  ///< cumulative violations
  double cvr{0.0};            ///< cumulative CVR (Eq. 4)
  double fast_cvr{0.0};       ///< CVR over the fast window
  bool above_rho{false};      ///< cumulative CVR exceeds rho
};

/// One breach episode as the fast+slow alerting rule saw it.  For a
/// closed episode `end_slot` is the recovery slot (where `slo.recover`
/// fired); an episode still open when the run ended keeps the last
/// breaching slot and `open == true`.  Episodes are an in-memory
/// diagnostic for `slo explain` — they are NOT part of SloTrackerState,
/// so durable snapshots and their byte format are untouched.
struct SloEpisode {
  std::size_t begin_slot{0};
  std::size_t end_slot{0};
  bool open{false};
  double peak_fast_burn{0.0};
  double peak_slow_burn{0.0};
};

/// The two alerting signals alone, without building a full SloReport.
struct SloBurnRates {
  double fast{0.0};  ///< == SloReport::fast.burn
  double slow{0.0};  ///< == SloReport::slow.burn
};

struct SloReport {
  double rho{0.0};
  std::size_t slots{0};  ///< end_slot() calls so far
  SloWindowStats fast;
  SloWindowStats slow;
  SloWindowStats cumulative;
  std::size_t breaches{0};  ///< breach episodes opened so far
  bool breaching{false};    ///< currently inside a breach episode
  std::vector<SloPmStats> pms;  ///< PMs observed at least once, ascending
  double worst_pm_cvr{0.0};     ///< max cumulative per-PM CVR

  /// The SLO holds when the cumulative and slow-window cluster CVR and
  /// every PM's cumulative CVR are within the rho budget.
  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::string verdict() const;  // "PASS" | "FAIL"
  /// Deterministic key=value rendering (the /slo endpoint body and the
  /// burstq_cli audit output share this exact code path).
  [[nodiscard]] std::string render() const;
};

/// Serializable SloTracker contents for durable snapshots: everything
/// behind the mutex, verbatim.
struct SloTrackerState {
  struct PerPm {
    std::size_t observed{0};
    std::size_t violated{0};
    std::vector<std::uint8_t> ring;
    std::size_t ring_observed{0};
    std::size_t ring_violated{0};
  };
  std::vector<PerPm> pms;
  std::vector<std::uint8_t> cur;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cluster_ring;
  std::size_t slots{0};
  std::size_t fast_obs{0}, fast_viol{0};
  std::size_t slow_obs{0}, slow_viol{0};
  std::size_t cum_obs{0}, cum_viol{0};
  std::size_t breaches{0};
  bool breaching{false};
};

class SloTracker {
 public:
  /// Tracks `n_pms` machines.  Throws InvalidArgument on n_pms == 0 or
  /// invalid options.
  SloTracker(std::size_t n_pms, SloOptions options);

  /// Records one PM's outcome for the current slot; at most once per PM
  /// per slot (later calls overwrite).
  void record(PmId pm, bool violated);

  /// Records a whole slot under one lock: every PM in `active` was
  /// observed, those also in `violated` violated.  The same as record()
  /// per active PM.
  void record_slot(std::span<const std::size_t> active,
                   std::span<const std::size_t> violated);

  /// Closes the current slot: advances every window, publishes the burn
  /// gauges, and updates breach-episode state.
  void end_slot();

  [[nodiscard]] SloReport report() const;
  /// The fast and slow burn rates report() would return, without the
  /// per-PM vector — cheap enough to read every slot.
  [[nodiscard]] SloBurnRates burn_rates() const;
  [[nodiscard]] const SloOptions& options() const { return opt_; }
  [[nodiscard]] std::size_t n_pms() const;
  [[nodiscard]] std::size_t slots() const;

  /// Breach episodes recorded so far, oldest first.  Cleared by
  /// import_state (the durable state schema cannot reconstruct them).
  [[nodiscard]] std::vector<SloEpisode> episodes() const;

  [[nodiscard]] SloTrackerState export_state() const;
  void import_state(const SloTrackerState& st);

 private:
  enum : std::uint8_t { kUnobserved = 0, kOk = 1, kViolated = 2 };

  struct PerPm {
    std::size_t observed{0};
    std::size_t violated{0};
    std::vector<std::uint8_t> ring;  ///< fast_window slot states
    std::size_t ring_observed{0};
    std::size_t ring_violated{0};
  };

  [[nodiscard]] double burn(double cvr) const { return cvr / opt_.rho; }

  SloOptions opt_;
  mutable std::mutex mu_;
  std::vector<PerPm> pms_;
  std::vector<std::uint8_t> cur_;  ///< this slot's per-PM state
  /// Cluster-wide per-slot (observed, violated) ring of slow_window
  /// entries; the fast window is its most recent suffix.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cluster_ring_;
  std::size_t slots_{0};
  std::size_t fast_obs_{0}, fast_viol_{0};
  std::size_t slow_obs_{0}, slow_viol_{0};
  std::size_t cum_obs_{0}, cum_viol_{0};
  std::size_t breaches_{0};
  bool breaching_{false};
  std::vector<SloEpisode> episodes_;
};

}  // namespace burstq::obs

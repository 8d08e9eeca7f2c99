// Runtime metrics collected by the simulator.
//
// CvrTracker measures the paper's capacity violation ratio per PM (Eq. 4)
// both cumulatively and over a sliding window (the dynamic scheduler's
// migration trigger works on recent CVR, tolerating old history).
// MigrationEvent records the Figure 10 time-ordered migration log.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace burstq {

/// Serializable CvrTracker contents for durable snapshots.
struct CvrTrackerState {
  struct PerPm {
    std::size_t observed{0};
    std::size_t violated{0};
    std::vector<std::uint8_t> window;  ///< oldest-first slot outcomes
  };
  std::vector<PerPm> pms;
};

/// Per-PM violation bookkeeping.
class CvrTracker {
 public:
  /// Tracks `n_pms` machines with a sliding window of `window` slots.
  CvrTracker(std::size_t n_pms, std::size_t window);

  /// Records slot outcomes; call once per slot per PM.
  void record(PmId pm, bool violated);

  /// Cumulative CVR (Eq. 4): violations / observed slots; 0 if unobserved.
  [[nodiscard]] double cvr(PmId pm) const;

  /// CVR over the last `window` slots (or fewer early on).
  [[nodiscard]] double windowed_cvr(PmId pm) const;

  /// Clears the sliding window of one PM (after a migration changes its
  /// hosted set, old violations no longer describe the new configuration).
  void reset_window(PmId pm);

  [[nodiscard]] std::size_t observed_slots(PmId pm) const;
  [[nodiscard]] std::size_t violations(PmId pm) const;
  [[nodiscard]] std::size_t n_pms() const { return total_.size(); }

  /// Mean cumulative CVR over PMs that were observed at least once.
  [[nodiscard]] double mean_cvr() const;
  /// Largest cumulative CVR over all PMs.
  [[nodiscard]] double max_cvr() const;

  [[nodiscard]] CvrTrackerState export_state() const;
  /// Replaces every PM's counters and window.  A window longer than the
  /// tracker's throws InvalidArgument.
  void import_state(const CvrTrackerState& st);

 private:
  struct PerPm {
    std::size_t observed{0};
    std::size_t violated{0};
    std::size_t head{0};    ///< ring index of the oldest window slot
    std::size_t filled{0};  ///< window slots held, <= window_size_
    std::size_t window_violations{0};
  };
  [[nodiscard]] std::uint8_t* ring(std::size_t pm) {
    return windows_.data() + pm * window_size_;
  }
  [[nodiscard]] const std::uint8_t* ring(std::size_t pm) const {
    return windows_.data() + pm * window_size_;
  }

  std::vector<PerPm> total_;
  /// Every PM's sliding window as a fixed ring of 0/1 outcomes, one
  /// window_size_ stretch per PM: a slot's record touches no allocator.
  std::vector<std::uint8_t> windows_;
  std::size_t window_size_;
};

/// Violation *episode* statistics: lengths of maximal runs of consecutive
/// violated slots.  Two placements with identical CVR can differ sharply
/// here — a duration-blind packing (e.g. SBP) concentrates its violations
/// into long episodes while the queuing reservation spreads them thin.
struct EpisodeStats {
  std::size_t episodes{0};       ///< number of maximal violation runs
  std::size_t violated_slots{0};
  std::size_t longest{0};        ///< longest run, in slots
  double mean_length{0.0};       ///< violated_slots / episodes (0 if none)
};

/// Computes episode statistics from a per-slot violation record.
EpisodeStats violation_episodes(const std::vector<bool>& violated);

/// One live-migration event (Figure 10's unit of observation).
struct MigrationEvent {
  TimeSlot slot{0};
  VmId vm{};
  PmId from{};
  PmId to{};  ///< invalid when no target PM was found (failed migration)

  [[nodiscard]] bool failed() const { return !to.valid(); }
};

}  // namespace burstq

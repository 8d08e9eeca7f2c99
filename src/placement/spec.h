// Problem-instance types: the paper's VM four-tuple V_i = (p_on, p_off,
// Rb, Re) (Eq. 1) and PM capacity H_j = (C_j) (Eq. 2).

#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "markov/onoff.h"

namespace burstq {

/// One VM's workload specification.
struct VmSpec {
  OnOffParams onoff;  ///< burstiness: spike frequency / duration
  Resource rb{0.0};   ///< R_b: normal (OFF-state) demand
  Resource re{0.0};   ///< R_e: spike size, extra demand while ON

  /// R_p = R_b + R_e: peak demand.
  [[nodiscard]] Resource rp() const { return rb + re; }

  /// Demand W_i(t) as a function of the chain state.
  [[nodiscard]] Resource demand(VmState s) const {
    return s == VmState::kOn ? rp() : rb;
  }

  /// Long-run mean demand: Rb + q * Re.
  [[nodiscard]] Resource mean_demand() const {
    return rb + onoff.stationary_on_probability() * re;
  }

  /// Validates non-negative sizes (Re also finite) and legal switch
  /// probabilities.
  void validate() const;
};

/// One PM's specification.
struct PmSpec {
  Resource capacity{0.0};  ///< C_j

  void validate() const;
};

/// A complete consolidation problem: n VMs, m candidate PMs.
struct ProblemInstance {
  std::vector<VmSpec> vms;
  std::vector<PmSpec> pms;

  [[nodiscard]] std::size_t n_vms() const { return vms.size(); }
  [[nodiscard]] std::size_t n_pms() const { return pms.size(); }

  /// Validates every spec and non-emptiness.
  void validate() const;

  /// Largest spike size over all VMs (block size upper bound).
  [[nodiscard]] Resource max_re() const;
};

/// Uniform ranges for random instance generation, mirroring the Figure 5
/// experiment setup (Rb, Re and C drawn uniformly from pattern-specific
/// ranges).
struct InstanceRanges {
  double rb_lo{2.0}, rb_hi{20.0};
  double re_lo{2.0}, re_hi{20.0};
  double capacity_lo{80.0}, capacity_hi{100.0};
};

/// Draws a random instance with n VMs, m PMs, shared OnOffParams.
ProblemInstance random_instance(std::size_t n_vms, std::size_t n_pms,
                                const OnOffParams& params,
                                const InstanceRanges& ranges, Rng& rng);

}  // namespace burstq

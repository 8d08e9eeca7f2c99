// Algorithm 2 (QueuingFFD): the paper's complete burstiness-aware
// consolidation scheme.
//
//   lines 1-6   precompute mapping(k) = MapCal(k) for k in [1, d]
//   lines 7-9   cluster by Re, sort clusters by Re desc, VMs by Rb desc
//   lines 10-12 first-fit each VM under the reservation constraint Eq. (17)
//
// The paper assumes uniform (p_on, p_off) across VMs; Section IV-E says
// heterogeneous values are "rounded to uniform values".  RoundingPolicy
// selects how: kMean averages (the natural reading), kConservative takes
// the burstiest combination (max p_on, min p_off) so the reservation can
// only be an over-estimate.

#pragma once

#include <cstddef>

#include "placement/first_fit.h"
#include "placement/placement.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq {

enum class RoundingPolicy { kMean, kConservative };

/// Which first-fit driver Algorithm 2 uses.  kIncremental descends a
/// per-PM slack tree (O(log m) per VM, see incremental.h) and produces
/// placements bit-identical to kNaive, the straight O(m)-scan reference
/// driver kept for verification and benchmarking.
enum class PlacementEngine { kIncremental, kNaive };

/// The one field left of the retired sharded engine's options.
/// perfbench/src/ctrl_churn.cpp still assigns it; validate() rejects
/// any value but 1, so it configures nothing.
struct ShardedOptions {
  std::size_t shards{1};
};

/// Rounds per-VM switch probabilities to one uniform pair (Section IV-E).
OnOffParams round_uniform_params(const std::vector<VmSpec>& vms,
                                 RoundingPolicy policy = RoundingPolicy::kMean);

struct QueuingFfdOptions {
  double rho{0.01};                ///< CVR budget per PM
  std::size_t max_vms_per_pm{16};  ///< d: per-PM VM cap (paper uses 16)
  std::size_t cluster_buckets{8};  ///< Re-similarity buckets (line 7)
  StationaryMethod method{StationaryMethod::kGaussian};
  RoundingPolicy rounding{RoundingPolicy::kMean};
  bool use_best_fit{false};        ///< ablation: best-fit instead of first-fit
  PlacementEngine engine{PlacementEngine::kIncremental};
  ShardedOptions sharded{};        ///< must stay {1}

  void validate() const;
};

/// Everything Algorithm 2 produces, plus the mapping table for reuse by
/// the simulator and online consolidator.
struct QueuingFfdOutcome {
  PlacementResult result;
  MapCalTable table;
  OnOffParams rounded_params;
};

/// Runs Algorithm 2 on `inst`.  VMs that fit on no PM end up in
/// result.unplaced (the caller decides whether that is an error).
QueuingFfdOutcome queuing_ffd(const ProblemInstance& inst,
                              const QueuingFfdOptions& options = {});

/// Variant that reuses an existing mapping table (so sweeps over instances
/// with identical (d, p_on, p_off, rho) skip the O(d^4) precomputation).
PlacementResult queuing_ffd_with_table(const ProblemInstance& inst,
                                       const MapCalTable& table,
                                       const QueuingFfdOptions& options = {});

}  // namespace burstq

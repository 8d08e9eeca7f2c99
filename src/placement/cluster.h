// Re-similarity clustering (Algorithm 2, lines 7-9).
//
// The paper clusters VMs "so that VMs with similar Re are in the same
// cluster" with "a simple O(n) clustering method", sorts clusters by Re
// descending and VMs inside a cluster by Rb descending.  Collocating
// similar-Re VMs shrinks the uniform block size max{Re} each PM reserves.
//
// We implement the O(n) method as equal-width bucketing of the Re range.
//
// All three visit orders below share one sort kernel: each VM becomes a
// packed (key bits, index) pair, where the key bits of a non-negative
// double compare like the double itself; the VMs are counting-
// partitioned by cluster and each cluster's pairs are radix-sorted.  That
// needs validated specs (ProblemInstance::validate: no NaN, no negative
// Rb or Re); the orders do not walk the specs to check.

#pragma once

#include <cstddef>
#include <vector>

#include "placement/spec.h"

namespace burstq {

/// Assigns each VM a cluster id in [0, bucket_count) by equal-width
/// bucketing of Re over [min Re, max Re].  Degenerate ranges (all Re equal)
/// collapse to a single cluster.  Requires bucket_count >= 1.  O(n).
std::vector<std::size_t> cluster_by_re(const std::vector<VmSpec>& vms,
                                       std::size_t bucket_count);

/// The complete Algorithm-2 visit order: cluster ids as cluster_by_re
/// assigns them, clusters ordered by descending Re (equal-width buckets
/// make this the descending bucket index), VMs within a cluster by
/// descending Rb (ties broken by VM index for determinism; -0.0 ties
/// +0.0).  Returns VM indices.  Requires validated specs.
std::vector<std::size_t> queuing_ffd_order(const std::vector<VmSpec>& vms,
                                           std::size_t bucket_count);

/// Baseline orders: VM indices sorted by a single key, descending, index
/// tie-break.  Used by the FFD-by-Rp / FFD-by-Rb baselines.  Require
/// validated specs.
std::vector<std::size_t> order_by_peak_desc(const std::vector<VmSpec>& vms);
std::vector<std::size_t> order_by_normal_desc(const std::vector<VmSpec>& vms);

}  // namespace burstq

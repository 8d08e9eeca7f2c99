// Algorithm 1 (MapCal) of the paper: how many spike blocks K must a PM
// hosting k ON-OFF VMs reserve so that the capacity violation ratio stays
// below rho?
//
//   1. Build the (k+1)x(k+1) transition matrix P of theta(t)   (Eq. 12)
//   2. Form the homogeneous system Pi P = Pi                   (Eq. 14)
//   3. Solve by Gaussian elimination (with sum(pi)=1)
//   4. K = min { K : sum_{m<=K} pi_m >= 1 - rho }              (Eq. 15)
//
// The resulting CVR equals 1 - CDF(K) <= rho                    (Eq. 16).
//
// MapCalTable precomputes mapping(k) for k in [1, d] exactly as Algorithm 2
// lines 1-6 do, so placement runs in O(1) per feasibility check.  Tables
// are memoized in a process-wide cache keyed by (d, params, rho, method):
// constructing a table for a setting that was already solved reuses the
// immutable precomputed data (zero new stationary solves — benches, sweeps
// and the online consolidator stop re-solving identical chains), and
// uncached builds solve k = 1..d serially on the calling thread so their
// trace events come out in k order.  Copying a MapCalTable is a
// shared_ptr copy.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "markov/aggregate_chain.h"

namespace burstq {

/// Tolerance for ties at the CDF boundary: when sum(pi_0..pi_K) equals
/// 1 - rho exactly in real arithmetic (e.g. k = 2, q = 0.1, rho = 0.01),
/// floating-point noise must not flip the decision between backends.  Ties
/// resolve in favor of fewer blocks, so the achieved CVR may exceed rho by
/// at most this epsilon.
inline constexpr double kCdfTieEpsilon = 1e-9;

struct MapCalResult {
  std::size_t blocks{0};  ///< K: number of reserved spike blocks
  double cvr_bound{0.0};  ///< 1 - sum_{m<=K} pi_m, the analytic CVR (Eq. 16)
  std::vector<double> stationary;  ///< pi_0..pi_k of theta(t)
};

/// Runs Algorithm 1 for one PM with k hosted VMs and CVR budget rho.
/// Requires k >= 1, rho in [0, 1), valid params.  Returns K in [0, k]:
/// K = k means no reduction is possible within the budget (this subsumes
/// the paper's "K < k" search — if even K = k-1 misses the budget the PM
/// must keep one block per VM, which gives CVR 0 like provisioning for
/// peak).  rho >= 1 would make reservation pointless and is rejected.
MapCalResult map_cal(std::size_t k, const OnOffParams& params, double rho,
                     StationaryMethod method = StationaryMethod::kGaussian);

/// Convenience: just K.
std::size_t map_cal_blocks(std::size_t k, const OnOffParams& params,
                           double rho,
                           StationaryMethod method = StationaryMethod::kGaussian);

/// The mapping(k) table of Algorithm 2 (lines 1-6): mapping(k) blocks are
/// needed when k VMs share a PM.  Index 0 is 0 by definition.
class MapCalTable {
 public:
  /// Returns the memoized table for (max_vms_per_pm, params, rho, method),
  /// solving the d stationary systems only on a cache miss.
  MapCalTable(std::size_t max_vms_per_pm, const OnOffParams& params,
              double rho,
              StationaryMethod method = StationaryMethod::kGaussian);

  /// mapping(k); requires k <= max_vms_per_pm().
  [[nodiscard]] std::size_t blocks(std::size_t k) const;

  /// Analytic CVR bound achieved at k VMs (Eq. 16).
  [[nodiscard]] double cvr_bound(std::size_t k) const;

  [[nodiscard]] std::size_t max_vms_per_pm() const {
    return data_->blocks.size() - 1;
  }
  [[nodiscard]] const OnOffParams& params() const { return data_->params; }
  [[nodiscard]] double rho() const { return data_->rho; }
  [[nodiscard]] StationaryMethod method() const { return data_->method; }

 private:
  /// Immutable precomputed mapping shared between all tables (and cache
  /// entries) with the same key.
  struct Data {
    OnOffParams params;
    double rho{0.0};
    StationaryMethod method{StationaryMethod::kGaussian};
    std::vector<std::size_t> blocks;
    std::vector<double> cvr_bounds;
  };

  static std::shared_ptr<const Data> lookup_or_build(
      std::size_t max_vms_per_pm, const OnOffParams& params, double rho,
      StationaryMethod method);

  std::shared_ptr<const Data> data_;
};

/// Chaos hook for fault injection (src/fault): while enabled, map_cal()
/// and *uncached* MapCalTable builds throw SolverUnavailable.  Memoized
/// tables keep resolving (a cache hit needs no solve), which is the first
/// rung of the degradation ladder in fault/degrade.h.  Counter
/// `fault.solver.faults` increments per injected throw.  Process-wide;
/// intended for tests and the fault injector, not concurrent toggling.
void mapcal_set_solver_fault(bool enabled);
[[nodiscard]] bool mapcal_solver_fault_enabled();

/// RAII toggle for mapcal_set_solver_fault (restores the previous state).
class ScopedSolverFault {
 public:
  explicit ScopedSolverFault(bool enabled = true)
      : previous_(mapcal_solver_fault_enabled()) {
    mapcal_set_solver_fault(enabled);
  }
  ~ScopedSolverFault() { mapcal_set_solver_fault(previous_); }
  ScopedSolverFault(const ScopedSolverFault&) = delete;
  ScopedSolverFault& operator=(const ScopedSolverFault&) = delete;

 private:
  bool previous_;
};

/// Number of distinct (d, params, rho, method) settings currently
/// memoized by the process-wide table cache.
std::size_t mapcal_table_cache_size();

/// Drops every memoized table (handles held by live MapCalTable objects
/// stay valid).  Tests and benches use this to measure cold builds.
void mapcal_table_cache_clear();

}  // namespace burstq

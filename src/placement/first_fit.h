// Generic first-fit / best-fit placement drivers.
//
// Every strategy in the paper (QUEUE, RP, RB, RB-EX) is "order the VMs,
// then put each on the first/best PM where a feasibility predicate holds".
// Factoring the driver out keeps each strategy to an order + a predicate
// and guarantees they differ in nothing else — important for a fair
// comparison.
//
// The drivers are templates over the predicate/slack callables so the
// feasibility check inlines into the scan loop; call sites pass lambdas
// directly.  The std::function-based FitPredicate / SlackFunction aliases
// remain for code that needs to store a type-erased predicate — passing
// one through the driver simply instantiates the template for
// std::function (one indirect call per check, the pre-template behavior).
//
// The placements the drivers build are bound to the instance, so
// predicates built on total_rb_on / max_re_on / fits_with_reservation run
// in O(1) per check (see placement.h).  For the reservation predicate
// specifically, first_fit_place_reservation in incremental.h replaces the
// linear PM scan with an O(log m) slack-tree descent.

#pragma once

#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "obs/obs.h"
#include "placement/placement.h"
#include "placement/spec.h"

namespace burstq {

/// Outcome of a placement strategy.
struct PlacementResult {
  Placement placement;
  std::vector<VmId> unplaced;  ///< VMs no PM could accept (in visit order)

  [[nodiscard]] std::size_t pms_used() const { return placement.pms_used(); }
  [[nodiscard]] bool complete() const { return unplaced.empty(); }
};

/// Feasibility predicate: may `vm` join `pm` given the current partial
/// placement?  Must be monotone in PM load (adding VMs never makes an
/// infeasible move feasible) for first-fit semantics to be meaningful.
/// Type-erased storage form; the drivers accept any callable with this
/// signature.
using FitPredicate =
    std::function<bool(const Placement&, VmId vm, PmId pm)>;

/// Best-fit slack: remaining room on `pm` after hypothetically adding
/// `vm`; smaller = tighter = "best".  Type-erased storage form.
using SlackFunction =
    std::function<double(const Placement&, VmId vm, PmId pm)>;

namespace detail {

/// Shared prologue/epilogue of the scan drivers (non-template so the obs
/// counter registrations are not duplicated per instantiation).
/// validate_driver_inputs validates `inst` (O(n)) and then runs
/// require_full_order, the O(1) check that `order` has one entry per VM.
void validate_driver_inputs(const ProblemInstance& inst,
                            std::span<const std::size_t> order);
void require_full_order(const ProblemInstance& inst,
                        std::span<const std::size_t> order);
void record_driver_counts(const PlacementResult& result,
                          std::size_t fit_checks);

}  // namespace detail

/// Places VMs in `order` onto the lowest-indexed PM satisfying `fits`.
/// VMs that fit nowhere are collected in `unplaced` (not thrown: callers
/// like the online consolidator treat that as "power on another PM").
template <typename Fits>
PlacementResult first_fit_place(const ProblemInstance& inst,
                                std::span<const std::size_t> order,
                                const Fits& fits) {
  BURSTQ_SPAN("placement.first_fit");
  detail::validate_driver_inputs(inst, order);
  PlacementResult result{Placement(inst), {}};

  std::size_t fit_checks = 0;
  for (std::size_t vi : order) {
    const VmId vm{vi};
    bool placed = false;
    for (std::size_t j = 0; j < inst.n_pms(); ++j) {
      const PmId pm{j};
      ++fit_checks;
      if (fits(result.placement, vm, pm)) {
        result.placement.assign(vm, pm);
        placed = true;
        break;
      }
    }
    if (!placed) result.unplaced.push_back(vm);
  }
  detail::record_driver_counts(result, fit_checks);
  return result;
}

/// Best-fit variant (ablation): among feasible PMs pick the one whose
/// remaining slack under `slack` is smallest after insertion.
template <typename Fits, typename Slack>
PlacementResult best_fit_place(const ProblemInstance& inst,
                               std::span<const std::size_t> order,
                               const Fits& fits, const Slack& slack) {
  BURSTQ_SPAN("placement.best_fit");
  detail::validate_driver_inputs(inst, order);
  PlacementResult result{Placement(inst), {}};

  std::size_t fit_checks = 0;
  for (std::size_t vi : order) {
    const VmId vm{vi};
    PmId best{};
    double best_slack = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < inst.n_pms(); ++j) {
      const PmId pm{j};
      ++fit_checks;
      if (!fits(result.placement, vm, pm)) continue;
      const double s = slack(result.placement, vm, pm);
      if (s < best_slack) {
        best_slack = s;
        best = pm;
      }
    }
    if (best.valid())
      result.placement.assign(vm, best);
    else
      result.unplaced.push_back(vm);
  }
  detail::record_driver_counts(result, fit_checks);
  return result;
}

}  // namespace burstq

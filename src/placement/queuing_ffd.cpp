#include "placement/queuing_ffd.h"

#include <algorithm>

#include "common/error.h"
#include "obs/obs.h"
#include "placement/cluster.h"
#include "placement/incremental.h"

namespace burstq {

OnOffParams round_uniform_params(const std::vector<VmSpec>& vms,
                                 RoundingPolicy policy) {
  BURSTQ_REQUIRE(!vms.empty(), "cannot round parameters of zero VMs");
  OnOffParams out;
  switch (policy) {
    case RoundingPolicy::kMean: {
      double sum_on = 0.0;
      double sum_off = 0.0;
      for (const auto& v : vms) {
        sum_on += v.onoff.p_on;
        sum_off += v.onoff.p_off;
      }
      out.p_on = sum_on / static_cast<double>(vms.size());
      out.p_off = sum_off / static_cast<double>(vms.size());
      break;
    }
    case RoundingPolicy::kConservative: {
      out.p_on = 0.0;
      out.p_off = 1.0;
      for (const auto& v : vms) {
        out.p_on = std::max(out.p_on, v.onoff.p_on);
        out.p_off = std::min(out.p_off, v.onoff.p_off);
      }
      break;
    }
  }
  out.validate();
  return out;
}

void QueuingFfdOptions::validate() const {
  BURSTQ_REQUIRE(rho >= 0.0 && rho < 1.0, "rho must lie in [0, 1)");
  BURSTQ_REQUIRE(max_vms_per_pm >= 1, "d must be at least 1");
  BURSTQ_REQUIRE(cluster_buckets >= 1, "need at least one cluster bucket");
  BURSTQ_REQUIRE(sharded.shards == 1, "placement uses one PM shard");
}

namespace {

// Flight-records each admission as a `place` event carrying the Eq. (17)
// slack at admit time.  FFD never moves a VM after admission, so walking
// the visit order against the final placement reconstructs the exact
// per-admit PM state the feasibility check saw.
[[maybe_unused]] void emit_placement_events(const ProblemInstance& inst,
                                            std::span<const std::size_t> order,
                                            const PlacementResult& result,
                                            const MapCalTable& table) {
  if (!obs::events().enabled(obs::EventLevel::kDecisions)) return;
  Placement replayed(inst.n_vms(), inst.n_pms());
  for (std::size_t vi : order) {
    const VmId vm{vi};
    const PmId pm = result.placement.pm_of(vm);
    if (!pm.valid()) {
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "place.unplaced",
                   {"vm", vi});
      continue;
    }
    replayed.assign(vm, pm);
    [[maybe_unused]] const std::size_t k = replayed.count_on(pm);
    [[maybe_unused]] const Resource slack =
        inst.pms[pm.value].capacity -
        reserved_footprint(inst, replayed, pm, table);
    BURSTQ_EVENT(obs::EventLevel::kDecisions, "place", {"vm", vi},
                 {"pm", pm.value}, {"k", k}, {"slack", slack});
  }
}

PlacementResult run_placement(const ProblemInstance& inst,
                              const MapCalTable& table,
                              const QueuingFfdOptions& options) {
  BURSTQ_SPAN("placement.queuing_ffd");
  const std::vector<std::size_t> order =
      queuing_ffd_order(inst.vms, options.cluster_buckets);

  const auto fits = [&](const Placement& placement, VmId vm, PmId pm) {
    return fits_with_reservation(inst, placement, vm, pm, table);
  };

  if (options.use_best_fit) {
    const auto slack = [&](const Placement& placement, VmId vm, PmId pm) {
      // Slack after hypothetical insertion; smaller = tighter = "best".
      // O(1): the driver's placement is instance-bound (see placement.h).
      return inst.pms[pm.value].capacity -
             eq17_footprint_with(placement.count_on(pm),
                                 total_rb_on(inst, placement, pm),
                                 max_re_on(inst, placement, pm),
                                 inst.vms[vm.value], table);
    };
    PlacementResult result = best_fit_place(inst, order, fits, slack);
    if constexpr (obs::kEnabled)
      emit_placement_events(inst, order, result, table);
    return result;
  }
  PlacementResult result = [&] {
    switch (options.engine) {
      case PlacementEngine::kIncremental:
        // queuing_ffd / queuing_ffd_with_table validated `inst` already:
        // one O(n) validation walk per call.
        return detail::first_fit_place_reservation_validated(inst, order,
                                                             table);
      case PlacementEngine::kNaive:
        break;
    }
    return first_fit_place(inst, order, fits);
  }();
  if constexpr (obs::kEnabled)
    emit_placement_events(inst, order, result, table);
  return result;
}

}  // namespace

QueuingFfdOutcome queuing_ffd(const ProblemInstance& inst,
                              const QueuingFfdOptions& options) {
  inst.validate();
  options.validate();

  const OnOffParams params =
      round_uniform_params(inst.vms, options.rounding);
  MapCalTable table(options.max_vms_per_pm, params, options.rho,
                    options.method);
  PlacementResult result = run_placement(inst, table, options);
  return QueuingFfdOutcome{std::move(result), std::move(table), params};
}

PlacementResult queuing_ffd_with_table(const ProblemInstance& inst,
                                       const MapCalTable& table,
                                       const QueuingFfdOptions& options) {
  inst.validate();
  options.validate();
  return run_placement(inst, table, options);
}

}  // namespace burstq

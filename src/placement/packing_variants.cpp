#include "placement/packing_variants.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "placement/cluster.h"
#include "placement/placement.h"

namespace burstq {

PlacementResult queuing_pack(const ProblemInstance& inst,
                             const MapCalTable& table,
                             const std::string& heuristic,
                             std::size_t cluster_buckets) {
  inst.validate();
  const auto order = queuing_ffd_order(inst.vms, cluster_buckets);
  const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
    return fits_with_reservation(inst, p, vm, pm, table);
  };
  const auto slack = [&](const Placement& p, VmId vm, PmId pm) {
    return inst.pms[pm.value].capacity -
           eq17_footprint_with(p.count_on(pm), total_rb_on(inst, p, pm),
                               max_re_on(inst, p, pm), inst.vms[vm.value],
                               table);
  };

  if (heuristic == "first") return first_fit_place(inst, order, fits);
  if (heuristic == "best") return best_fit_place(inst, order, fits, slack);
  if (heuristic == "worst")
    return worst_fit_place(inst, order, fits, slack);
  if (heuristic == "next") return next_fit_place(inst, order, fits);
  BURSTQ_REQUIRE(false, "unknown packing heuristic: " + heuristic);
  return first_fit_place(inst, order, fits);
}

}  // namespace burstq

#include "placement/first_fit.h"

#include "common/error.h"
#include "obs/obs.h"

namespace burstq::detail {

void validate_driver_inputs(const ProblemInstance& inst,
                            std::span<const std::size_t> order) {
  inst.validate();
  require_full_order(inst, order);
}

void require_full_order(const ProblemInstance& inst,
                        std::span<const std::size_t> order) {
  BURSTQ_REQUIRE(order.size() == inst.n_vms(),
                 "visit order must cover every VM exactly once");
}

void record_driver_counts(const PlacementResult& result,
                          std::size_t fit_checks) {
  BURSTQ_COUNT("placement.fit_checks", fit_checks);
  BURSTQ_COUNT("placement.placed", result.placement.vms_assigned());
  BURSTQ_COUNT("placement.unplaced", result.unplaced.size());
}

}  // namespace burstq::detail

#include "placement/incremental.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
#include "obs/obs.h"
#include "placement/pm_slack_tree.h"

namespace burstq {

double conservative_admit_key(double capacity, std::size_t vm_count,
                              double rb_sum, double re_max,
                              const MapCalTable& table) {
  const std::size_t k_new = vm_count + 1;
  if (k_new > table.max_vms_per_pm())
    return -std::numeric_limits<double>::infinity();
  const double reserved =
      re_max * static_cast<double>(table.blocks(k_new)) + rb_sum;
  const double slack = capacity * (1.0 + kCapacityEpsilon) - reserved;
  return slack +
         kSlackFilterMargin * (std::abs(capacity) + std::abs(reserved) + 1.0);
}

PlacementResult first_fit_place_reservation(const ProblemInstance& inst,
                                            std::span<const std::size_t> order,
                                            const MapCalTable& table,
                                            IncrementalStats* stats) {
  inst.validate();
  return detail::first_fit_place_reservation_validated(inst, order, table,
                                                       stats);
}

namespace {

constexpr std::uint32_t kUnplaced = std::numeric_limits<std::uint32_t>::max();

// The first-fit descents over flat per-PM aggregates.  Writes each visit
// position's host PM (kUnplaced when none admits it) and accumulates
// count/rb_sum/re_max in the order assign() would.  The slack tree lives
// only here, so its memory is free again before the result is built.
IncrementalStats descend(const ProblemInstance& inst,
                         std::span<const std::size_t> order,
                         const MapCalTable& table,
                         std::vector<std::size_t>& count,
                         std::vector<Resource>& rb_sum,
                         std::vector<Resource>& re_max,
                         std::vector<std::uint32_t>& host) {
  const std::size_t m = inst.n_pms();
  std::vector<double> keys(m);
  for (std::size_t j = 0; j < m; ++j)
    keys[j] = conservative_admit_key(inst.pms[j].capacity, 0, 0.0, 0.0, table);
  PmSlackTree tree(std::move(keys));

  IncrementalStats counts;
  for (std::size_t r = 0; r < order.size(); ++r) {
    BURSTQ_REQUIRE(order[r] < inst.n_vms(),
                   "visit order names a VM out of range");
    const VmSpec& vm = inst.vms[order[r]];
    std::size_t from = 0;
    for (;;) {
      ++counts.tree_descents;
      const std::size_t j = tree.find_first_ge(vm.rb, from);
      if (j == PmSlackTree::npos) break;
      ++counts.exact_checks;
      const Resource capacity = inst.pms[j].capacity;
      if (eq17_admits(capacity, count[j], rb_sum[j], re_max[j], vm, table)) {
        ++count[j];
        rb_sum[j] += vm.rb;
        re_max[j] = std::max(re_max[j], vm.re);
        tree.update(j, conservative_admit_key(capacity, count[j], rb_sum[j],
                                              re_max[j], table));
        host[r] = static_cast<std::uint32_t>(j);
        break;
      }
      from = j + 1;  // conservative filter false positive: keep scanning
    }
  }
  return counts;
}

}  // namespace

PlacementResult detail::first_fit_place_reservation_validated(
    const ProblemInstance& inst, std::span<const std::size_t> order,
    const MapCalTable& table, IncrementalStats* stats) {
  BURSTQ_SPAN("placement.first_fit");
  detail::require_full_order(inst, order);
  const std::size_t n = inst.n_vms();
  const std::size_t m = inst.n_pms();
  BURSTQ_REQUIRE(m <= kUnplaced,
                 "first-fit records host PMs as 32-bit indices: need < 2^32 "
                 "PMs");

  // The result adopts rb_sum/re_max as accumulated, so they are the bits
  // an assign-per-VM Placement would hold.
  std::vector<std::size_t> count(m, 0);
  PlacementState state;
  state.bound = true;
  state.rb_sum.assign(m, 0.0);
  state.re_max.assign(m, 0.0);
  std::vector<std::uint32_t> host(order.size(), kUnplaced);
  const IncrementalStats counts =
      descend(inst, order, table, count, state.rb_sum, state.re_max, host);

  // Build the mapping once, each PM's list in visit order.  A VM that the
  // order names twice lands in two lists (or twice in one), which the
  // adopting constructor rejects.
  state.pm_of.resize(n);
  state.vms_on.resize(m);
  for (std::size_t j = 0; j < m; ++j) state.vms_on[j].reserve(count[j]);
  count = {};  // freed early: this build is where a call's memory peaks
  std::vector<VmId> unplaced;
  for (std::size_t r = 0; r < order.size(); ++r) {
    const std::size_t vi = order[r];
    if (host[r] == kUnplaced) {
      unplaced.push_back(VmId{vi});
      continue;
    }
    state.pm_of[vi] = PmId{host[r]};
    state.vms_on[host[r]].push_back(vi);
  }
  host = {};  // likewise, before the Placement allocates its position index
  PlacementResult result{Placement(inst, std::move(state)),
                         std::move(unplaced)};

  detail::record_driver_counts(result, counts.exact_checks);
  BURSTQ_COUNT("placement.tree_descents", counts.tree_descents);
  if (stats != nullptr) {
    stats->tree_descents += counts.tree_descents;
    stats->exact_checks += counts.exact_checks;
  }
  return result;
}

}  // namespace burstq

#include "placement/placement.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.h"

namespace burstq {

namespace {

// Marks a VM no PM list names.  Positions stay below it: a list holds
// fewer than n_vms <= kUnlisted entries.
constexpr std::uint32_t kUnlisted = std::numeric_limits<std::uint32_t>::max();

void check_dims(std::size_t n_vms, std::size_t n_pms) {
  BURSTQ_REQUIRE(n_vms > 0, "placement needs at least one VM slot");
  BURSTQ_REQUIRE(n_pms > 0, "placement needs at least one PM slot");
  BURSTQ_REQUIRE(n_vms <= kUnlisted,
                 "placement positions are 32-bit: need < 2^32 VMs");
}

}  // namespace

void Placement::init(std::size_t n_vms, std::size_t n_pms) {
  check_dims(n_vms, n_pms);
  pm_of_.resize(n_vms);
  pos_in_pm_.resize(n_vms, 0);
  vms_on_.resize(n_pms);
  if (inst_ != nullptr) {
    rb_sum_.assign(n_pms, 0.0);
    re_max_.assign(n_pms, 0.0);
  }
}

Placement::Placement(std::size_t n_vms, std::size_t n_pms) {
  init(n_vms, n_pms);
}

Placement::Placement(const ProblemInstance& inst) : inst_(&inst) {
  init(inst.n_vms(), inst.n_pms());
}

Placement::Placement(const ProblemInstance& inst, PlacementState&& st)
    : inst_(&inst) {
  check_dims(inst.n_vms(), inst.n_pms());
  adopt(std::move(st), inst.n_vms(), inst.n_pms());
}

void Placement::assign(VmId vm, PmId pm) {
  BURSTQ_REQUIRE(vm.value < pm_of_.size(), "VM index out of range");
  BURSTQ_REQUIRE(pm.value < vms_on_.size(), "PM index out of range");
  BURSTQ_REQUIRE(!pm_of_[vm.value].valid(), "VM is already assigned");
  pm_of_[vm.value] = pm;
  auto& list = vms_on_[pm.value];
  if (list.empty()) ++pms_used_;
  pos_in_pm_[vm.value] = static_cast<std::uint32_t>(list.size());
  list.push_back(vm.value);
  ++vms_assigned_;
  if (inst_ != nullptr) {
    const VmSpec& spec = inst_->vms[vm.value];
    rb_sum_[pm.value] += spec.rb;
    re_max_[pm.value] = std::max(re_max_[pm.value], spec.re);
  }
}

void Placement::unassign(VmId vm) {
  BURSTQ_REQUIRE(vm.value < pm_of_.size(), "VM index out of range");
  const PmId pm = pm_of_[vm.value];
  BURSTQ_REQUIRE(pm.valid(), "VM is not assigned");
  auto& list = vms_on_[pm.value];
  const std::size_t pos = pos_in_pm_[vm.value];
  BURSTQ_ASSERT(pos < list.size() && list[pos] == vm.value,
                "assignment lists out of sync");
  // Swap-remove: move the last member into the hole.
  const std::size_t moved = list.back();
  list[pos] = moved;
  pos_in_pm_[moved] = static_cast<std::uint32_t>(pos);
  list.pop_back();
  if (list.empty()) --pms_used_;
  pm_of_[vm.value] = PmId{};
  --vms_assigned_;
  if (inst_ != nullptr) {
    const VmSpec& spec = inst_->vms[vm.value];
    if (list.empty()) {
      // Reset exactly so an emptied PM accumulates no float residue.
      rb_sum_[pm.value] = 0.0;
      re_max_[pm.value] = 0.0;
    } else {
      rb_sum_[pm.value] -= spec.rb;
      if (spec.re >= re_max_[pm.value]) {
        Resource m = 0.0;
        for (std::size_t i : list) m = std::max(m, inst_->vms[i].re);
        re_max_[pm.value] = m;
      }
    }
  }
}

void Placement::throw_out_of_range(const char* accessor, const char* what) {
  detail::throw_invalid(std::string(accessor) + ": requirement failed: " +
                        what + " index out of range");
}

Resource Placement::rb_sum_on(PmId pm) const {
  BURSTQ_REQUIRE(inst_ != nullptr,
                 "rb_sum_on requires an instance-bound placement");
  BURSTQ_REQUIRE(pm.value < vms_on_.size(), "PM index out of range");
  return rb_sum_[pm.value];
}

Resource Placement::re_max_on(PmId pm) const {
  BURSTQ_REQUIRE(inst_ != nullptr,
                 "re_max_on requires an instance-bound placement");
  BURSTQ_REQUIRE(pm.value < vms_on_.size(), "PM index out of range");
  return re_max_[pm.value];
}

void Placement::restore_state(const PlacementState& st) {
  adopt(PlacementState(st), pm_of_.size(), vms_on_.size());
}

void Placement::adopt(PlacementState&& st, std::size_t n_vms,
                      std::size_t n_pms) {
  BURSTQ_REQUIRE(st.pm_of.size() == n_vms,
                 "placement state VM count mismatch");
  BURSTQ_REQUIRE(st.vms_on.size() == n_pms,
                 "placement state PM count mismatch");
  if (inst_ != nullptr) {
    BURSTQ_REQUIRE(st.bound,
                   "bound placement restored from unbound state");
    BURSTQ_REQUIRE(st.rb_sum.size() == n_pms && st.re_max.size() == n_pms,
                   "placement state aggregate count mismatch");
  }
  pm_of_ = std::move(st.pm_of);
  vms_on_ = std::move(st.vms_on);
  // A VM that a list names while its position is set is listed twice;
  // counting the mapped VMs catches one that no list names.
  pos_in_pm_.assign(n_vms, kUnlisted);
  pms_used_ = 0;
  vms_assigned_ = 0;
  for (std::size_t pm = 0; pm < n_pms; ++pm) {
    const auto& list = vms_on_[pm];
    if (!list.empty()) ++pms_used_;
    for (std::size_t pos = 0; pos < list.size(); ++pos) {
      const std::size_t vm = list[pos];
      BURSTQ_REQUIRE(vm < n_vms && pm_of_[vm].value == pm &&
                         pos_in_pm_[vm] == kUnlisted,
                     "placement state lists disagree with pm_of");
      pos_in_pm_[vm] = static_cast<std::uint32_t>(pos);
    }
    vms_assigned_ += list.size();
  }
  const auto mapped = static_cast<std::size_t>(std::count_if(
      pm_of_.begin(), pm_of_.end(), [](PmId pm) { return pm.valid(); }));
  BURSTQ_REQUIRE(mapped == vms_assigned_,
                 "placement state lists disagree with pm_of");
  if (inst_ != nullptr) {
    rb_sum_ = std::move(st.rb_sum);
    re_max_ = std::move(st.re_max);
  }
}

Resource total_rb_on_walk(const ProblemInstance& inst,
                          const Placement& placement, PmId pm) {
  Resource sum = 0.0;
  for (std::size_t i : placement.vms_on(pm)) sum += inst.vms[i].rb;
  return sum;
}

Resource max_re_on_walk(const ProblemInstance& inst,
                        const Placement& placement, PmId pm) {
  Resource m = 0.0;
  for (std::size_t i : placement.vms_on(pm))
    m = std::max(m, inst.vms[i].re);
  return m;
}

Resource total_rb_on(const ProblemInstance& inst, const Placement& placement,
                     PmId pm) {
  if (placement.tracks_aggregates(inst)) return placement.rb_sum_on(pm);
  return total_rb_on_walk(inst, placement, pm);
}

Resource max_re_on(const ProblemInstance& inst, const Placement& placement,
                   PmId pm) {
  if (placement.tracks_aggregates(inst)) return placement.re_max_on(pm);
  return max_re_on_walk(inst, placement, pm);
}

bool aggregates_consistent(const ProblemInstance& inst,
                           const Placement& placement, double rel_tol) {
  if (!placement.tracks_aggregates(inst)) return true;
  for (std::size_t j = 0; j < placement.n_pms(); ++j) {
    const PmId pm{j};
    if (placement.re_max_on(pm) != max_re_on_walk(inst, placement, pm))
      return false;
    const Resource cached = placement.rb_sum_on(pm);
    const Resource walked = total_rb_on_walk(inst, placement, pm);
    const Resource scale = std::max({std::abs(cached), std::abs(walked), 1.0});
    if (std::abs(cached - walked) > rel_tol * scale) return false;
  }
  return true;
}

Resource reserved_footprint(const ProblemInstance& inst,
                            const Placement& placement, PmId pm,
                            const MapCalTable& table) {
  const std::size_t k = placement.count_on(pm);
  if (k == 0) return 0.0;
  return max_re_on(inst, placement, pm) *
             static_cast<double>(table.blocks(k)) +
         total_rb_on(inst, placement, pm);
}

bool fits_with_reservation(const ProblemInstance& inst,
                           const Placement& placement, VmId vm, PmId pm,
                           const MapCalTable& table) {
  return eq17_admits(inst.pms[pm.value].capacity, placement.count_on(pm),
                     total_rb_on(inst, placement, pm),
                     max_re_on(inst, placement, pm), inst.vms[vm.value],
                     table);
}

Resource reserved_footprint_specs(std::span<const VmSpec> hosted,
                                  const MapCalTable& table) {
  if (hosted.empty()) return 0.0;
  Resource block = 0.0;
  Resource rb_sum = 0.0;
  for (const auto& v : hosted) {
    block = std::max(block, v.re);
    rb_sum += v.rb;
  }
  return block * static_cast<double>(table.blocks(hosted.size())) + rb_sum;
}

bool fits_with_reservation_specs(std::span<const VmSpec> hosted,
                                 const VmSpec& candidate, Resource capacity,
                                 const MapCalTable& table) {
  Resource re_max = 0.0;
  Resource rb_sum = 0.0;
  for (const auto& v : hosted) {
    re_max = std::max(re_max, v.re);
    rb_sum += v.rb;
  }
  return eq17_admits(capacity, hosted.size(), rb_sum, re_max, candidate,
                     table);
}

bool placement_satisfies_reservation(const ProblemInstance& inst,
                                     const Placement& placement,
                                     const MapCalTable& table) {
  for (std::size_t j = 0; j < placement.n_pms(); ++j) {
    const PmId pm{j};
    const std::size_t k = placement.count_on(pm);
    if (k == 0) continue;
    if (k > table.max_vms_per_pm()) return false;
    const Resource cap = inst.pms[j].capacity;
    if (reserved_footprint(inst, placement, pm, table) >
        cap * (1.0 + kCapacityEpsilon))
      return false;
  }
  return true;
}

bool placement_satisfies_initial_capacity(const ProblemInstance& inst,
                                          const Placement& placement) {
  for (std::size_t j = 0; j < placement.n_pms(); ++j) {
    const PmId pm{j};
    if (placement.count_on(pm) == 0) continue;
    const Resource cap = inst.pms[j].capacity;
    if (total_rb_on(inst, placement, pm) > cap * (1.0 + kCapacityEpsilon))
      return false;
  }
  return true;
}

}  // namespace burstq

#include "placement/online.h"

#include <cmath>

#include "common/error.h"
#include "obs/obs.h"
#include "placement/cluster.h"

namespace burstq {

OnlineConsolidator::OnlineConsolidator(std::vector<PmSpec> pms,
                                       QueuingFfdOptions options,
                                       OnOffParams initial_params)
    : options_(options),
      fleet_(std::move(pms),
             MapCalTable(options.max_vms_per_pm, initial_params, options.rho,
                         options.method)) {
  options_.validate();
}

std::optional<VmHandle> OnlineConsolidator::add_vm(const VmSpec& vm) {
  vm.validate();
  const auto pm = fleet_.first_fit(vm);
  if (!pm) return std::nullopt;
  return VmHandle{fleet_.place(vm, *pm)};
}

std::vector<std::optional<VmHandle>> OnlineConsolidator::add_batch(
    const std::vector<VmSpec>& batch) {
  std::vector<std::optional<VmHandle>> handles(batch.size());
  if (batch.empty()) return handles;
  for (const auto& v : batch) v.validate();

  // "When a batch of new VMs arrives, we use the same scheme as
  // Algorithm 2": cluster-by-Re visit order over the batch.
  const std::vector<std::size_t> order =
      queuing_ffd_order(batch, options_.cluster_buckets);
  for (std::size_t idx : order) {
    const auto pm = fleet_.first_fit(batch[idx]);
    if (pm) handles[idx] = VmHandle{fleet_.place(batch[idx], *pm)};
  }
  return handles;
}

void OnlineConsolidator::remove_vm(VmHandle h) {
  BURSTQ_REQUIRE(fleet_.live(h.slot),
                 "remove_vm on an invalid or dead handle");
  // The queue size on the PM is implicitly "recalculated": reservation is
  // a pure function of the remaining hosted set, which just shrank, so the
  // invariant can only get slacker.
  fleet_.remove(h.slot);
}

bool OnlineConsolidator::resize_vm(VmHandle h, const VmSpec& new_spec) {
  BURSTQ_REQUIRE(fleet_.live(h.slot),
                 "resize_vm on an invalid or dead handle");
  new_spec.validate();
  // One call site per outcome: BURSTQ_COUNT caches the counter per line.
  switch (fleet_.resize(h.slot, new_spec)) {
    case ResizeOutcome::kStayed:
      BURSTQ_COUNT("online.resize.inplace", 1);
      return true;
    case ResizeOutcome::kMoved:
      BURSTQ_COUNT("online.resize.moved", 1);
      return true;
    case ResizeOutcome::kRejected:
      BURSTQ_COUNT("online.resize.rejected", 1);
      return false;
  }
  return false;
}

std::size_t OnlineConsolidator::recalibrate(double tolerance) {
  if (fleet_.live_count() == 0) return 0;

  std::vector<VmSpec> live;
  live.reserve(fleet_.live_count());
  for (std::size_t s = 0; s < fleet_.slot_count(); ++s)
    if (fleet_.live(s)) live.push_back(fleet_.slot(s).spec);

  const OnOffParams fresh = round_uniform_params(live, options_.rounding);
  const OnOffParams& current = fleet_.table().params();
  if (std::abs(fresh.p_on - current.p_on) <= tolerance &&
      std::abs(fresh.p_off - current.p_off) <= tolerance)
    return 0;

  fleet_.set_table(MapCalTable(options_.max_vms_per_pm, fresh, options_.rho,
                               options_.method));

  // Repair pass: a burstier population can make existing PMs violate
  // Eq. (17) under the new table.  Evict newest-first (cheapest to move in
  // an incremental system) and re-place via first-fit.
  std::size_t migrations = 0;
  for (std::size_t j = 0; j < fleet_.n_pms(); ++j) {
    const PmId pm{j};
    while (!fleet_.holds_on(pm)) {
      const std::size_t victim = fleet_.hosted(pm).back();
      fleet_.park(victim);
      // Count one migration either way (if nowhere fits the VM is
      // dropped, which callers can detect via vms_hosted()).
      ++migrations;
      if (const auto target = fleet_.first_fit(fleet_.slot(victim).spec))
        fleet_.attach(victim, *target);
      else
        fleet_.remove(victim);
    }
  }
  return migrations;
}

PmId OnlineConsolidator::pm_of(VmHandle h) const {
  BURSTQ_REQUIRE(fleet_.live(h.slot), "pm_of on an invalid or dead handle");
  return fleet_.slot(h.slot).pm;
}

const VmSpec& OnlineConsolidator::spec_of(VmHandle h) const {
  BURSTQ_REQUIRE(fleet_.live(h.slot), "spec_of on an invalid or dead handle");
  return fleet_.slot(h.slot).spec;
}

std::size_t OnlineConsolidator::count_on(PmId pm) const {
  BURSTQ_REQUIRE(pm.value < fleet_.n_pms(), "PM index out of range");
  return fleet_.hosted(pm).size();
}

}  // namespace burstq

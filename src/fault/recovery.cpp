#include "fault/recovery.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "obs/obs.h"

namespace burstq::fault {

void RecoveryPolicy::validate() const {
  BURSTQ_REQUIRE(max_retries >= 1, "recovery max_retries must be >= 1");
  BURSTQ_REQUIRE(backoff_base_slots >= 1,
                 "recovery backoff base must be >= 1 slot");
  BURSTQ_REQUIRE(backoff_cap_slots >= backoff_base_slots,
                 "recovery backoff cap must be >= the base delay");
}

std::size_t backoff_delay(const RecoveryPolicy& policy, std::size_t retries) {
  // 1x, 2x, 4x ... the base, saturating at the cap (and guarding the
  // shift against pathological retry counts).
  const std::size_t exponent = std::min(retries, policy.max_retries);
  std::size_t delay = policy.backoff_base_slots;
  for (std::size_t i = 0; i < exponent && delay < policy.backoff_cap_slots;
       ++i)
    delay *= 2;
  return std::min(delay, policy.backoff_cap_slots);
}

RecoveryController::RecoveryController(const ProblemInstance& inst,
                                       RecoveryPolicy policy,
                                       std::size_t max_vms_per_pm,
                                       double rho, StationaryMethod method)
    : inst_(&inst),
      policy_(policy),
      ladder_(max_vms_per_pm, rho, method) {
  policy_.validate();
}

std::optional<PmId> RecoveryController::find_target(
    const Placement& placement, std::size_t vm, std::span<const std::uint8_t> pm_up,
    const OnOffParams& rounded) {
  std::vector<VmSpec> hosted;
  for (std::size_t j = 0; j < placement.n_pms(); ++j) {
    if (!pm_up[j]) continue;
    const PmId pm{j};
    hosted.clear();
    hosted.reserve(placement.count_on(pm));
    for (std::size_t i : placement.vms_on(pm))
      hosted.push_back(inst_->vms[i]);
    if (ladder_.admits(hosted, inst_->vms[vm], inst_->pms[j].capacity,
                       rounded))
      return pm;
  }
  return std::nullopt;
}

void RecoveryController::enqueue(std::size_t vm, std::size_t slot) {
  QueuedVm q;
  q.vm = vm;
  q.reason = QueueReason::kNoFeasiblePm;
  q.retries = 0;
  q.next_attempt = slot + backoff_delay(policy_, 0);
  queue_.push_back(q);
  ++enqueued_total_;
  BURSTQ_COUNT("fault.queue.enqueued", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.enqueue",
               {"t", slot}, {"vm", vm}, {"reason", "no-feasible-pm"});
}

std::size_t RecoveryController::evacuate(Placement& placement, PmId crashed,
                                         std::span<const std::uint8_t> pm_up,
                                         const OnOffParams& rounded,
                                         std::size_t slot) {
  BURSTQ_REQUIRE(!pm_up[crashed.value],
                 "evacuate expects the crashed PM to be marked down");
  // Copy the hosted list: unassign mutates it.
  const std::vector<std::size_t> victims = placement.vms_on(crashed);
  std::size_t rehomed = 0;
  for (std::size_t vm : victims) {
    placement.unassign(VmId{vm});
    if (const auto target = find_target(placement, vm, pm_up, rounded)) {
      placement.assign(VmId{vm}, *target);
      ++rehomed;
      BURSTQ_COUNT("fault.evacuations", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.evacuate",
                   {"t", slot}, {"vm", vm}, {"from", crashed.value},
                   {"to", target->value});
    } else {
      enqueue(vm, slot);
    }
  }
  return rehomed;
}

std::size_t RecoveryController::drain(Placement& placement,
                                      std::span<const std::uint8_t> pm_up,
                                      const OnOffParams& rounded,
                                      std::size_t slot) {
  std::size_t admitted = 0;
  for (auto& q : queue_) {
    if (q.next_attempt > slot) continue;
    // Every attempt past the initial evacuation-time one is a retry —
    // counted separately from first-attempt migrations.
    ++q.retries;
    ++retries_total_;
    BURSTQ_COUNT("migration.retries", 1);
    if (const auto target = find_target(placement, q.vm, pm_up, rounded)) {
      placement.assign(VmId{q.vm}, *target);
      ++admitted;
      BURSTQ_COUNT("fault.queue.drained", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.admit",
                   {"t", slot}, {"vm", q.vm}, {"pm", target->value},
                   {"retries", q.retries});
      q.vm = static_cast<std::size_t>(-1);  // mark admitted; erased below
    } else {
      q.reason = QueueReason::kRetryBackoff;
      q.next_attempt = slot + backoff_delay(policy_, q.retries);
    }
  }
  std::erase_if(queue_, [](const QueuedVm& q) {
    return q.vm == static_cast<std::size_t>(-1);
  });
  return admitted;
}

bool RecoveryController::invariant_holds(const Placement& placement,
                                         std::span<const std::uint8_t> pm_up) const {
  for (std::size_t i = 0; i < placement.n_vms(); ++i) {
    const PmId pm = placement.pm_of(VmId{i});
    const bool queued =
        std::any_of(queue_.begin(), queue_.end(),
                    [i](const QueuedVm& q) { return q.vm == i; });
    if (pm.valid()) {
      if (queued || !pm_up[pm.value]) return false;
    } else if (!queued) {
      return false;
    }
  }
  return true;
}

}  // namespace burstq::fault

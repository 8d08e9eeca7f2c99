#include "placement/live_fleet.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "placement/incremental.h"
#include "placement/placement.h"

namespace burstq {

namespace {

constexpr double kDown = -std::numeric_limits<double>::infinity();

/// Placeholder keys for the slack tree until refresh_all_keys runs.
std::vector<double> initial_keys(const std::vector<PmSpec>& pms) {
  BURSTQ_REQUIRE(!pms.empty(), "live fleet needs at least one PM");
  for (const auto& p : pms) p.validate();
  return std::vector<double>(pms.size(), kDown);
}

}  // namespace

LiveFleet::LiveFleet(std::vector<PmSpec> pms, MapCalTable table)
    : pms_(std::move(pms)),
      table_(std::move(table)),
      hosted_(pms_.size()),
      up_(pms_.size(), 1),
      tree_(initial_keys(pms_)) {
  refresh_all_keys();
}

void LiveFleet::refresh_key(PmId pm) {
  if (!up_[pm.value]) {
    tree_.update(pm.value, kDown);
    return;
  }
  // No per-PM aggregate caches: a hosted list holds at most d entries, so
  // the key is recomputed by a bounded walk.
  Resource rb_sum = 0.0;
  Resource re_max = 0.0;
  for (std::size_t s : hosted_[pm.value]) {
    rb_sum += slots_[s].spec.rb;
    re_max = std::max(re_max, slots_[s].spec.re);
  }
  tree_.update(pm.value,
               conservative_admit_key(pms_[pm.value].capacity,
                                      hosted_[pm.value].size(), rb_sum,
                                      re_max, table_));
}

void LiveFleet::refresh_all_keys() {
  for (std::size_t j = 0; j < pms_.size(); ++j) refresh_key(PmId{j});
}

void LiveFleet::hosted_specs(PmId pm, std::vector<VmSpec>& out) const {
  out.clear();
  for (std::size_t s : hosted_[pm.value]) out.push_back(slots_[s].spec);
}

std::optional<PmId> LiveFleet::first_fit(const VmSpec& vm, PmId skip) {
  // The key filter is conservative, so a PM it passes may still fail the
  // exact check; the scan then resumes after it.  Down PMs never pass:
  // their key is -inf.
  for (std::size_t j = tree_.find_first_ge(vm.rb); j != PmSlackTree::npos;
       j = tree_.find_first_ge(vm.rb, j + 1)) {
    if (skip.valid() && j == skip.value) continue;
    hosted_specs(PmId{j}, scratch_);
    if (fits_with_reservation_specs(scratch_, vm, pms_[j].capacity, table_))
      return PmId{j};
  }
  return std::nullopt;
}

std::size_t LiveFleet::place(const VmSpec& vm, PmId pm) {
  std::size_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = slots_.size();
    slots_.emplace_back();
  }
  slots_[s] = FleetSlot{vm, PmId{}, true};
  attach(s, pm);
  return s;
}

void LiveFleet::remove(std::size_t s) {
  BURSTQ_ASSERT(live(s), "remove on a dead slot");
  if (slots_[s].pm.valid()) park(s);
  slots_[s].live = false;
  free_slots_.push_back(s);
}

void LiveFleet::park(std::size_t s) {
  FleetSlot& slot = slots_[s];
  BURSTQ_ASSERT(slot.live && slot.pm.valid(), "park on an unplaced slot");
  auto& list = hosted_[slot.pm.value];
  // Order-preserving erase, O(d): the list stays in admission order.
  const auto it = std::find(list.begin(), list.end(), s);
  BURSTQ_ASSERT(it != list.end(), "live fleet PM lists out of sync");
  list.erase(it);
  refresh_key(slot.pm);
  slot.pm = PmId{};
}

void LiveFleet::attach(std::size_t s, PmId pm) {
  BURSTQ_ASSERT(live(s) && !slots_[s].pm.valid(),
                "attach on a dead or placed slot");
  slots_[s].pm = pm;
  hosted_[pm.value].push_back(s);
  refresh_key(pm);
}

void LiveFleet::move(std::size_t s, PmId to) {
  park(s);
  attach(s, to);
}

ResizeOutcome LiveFleet::resize(std::size_t s, const VmSpec& spec) {
  BURSTQ_ASSERT(live(s), "resize on a dead slot");
  FleetSlot& slot = slots_[s];
  const PmId pm = slot.pm;
  if (!pm.valid()) {
    slot.spec = spec;  // parked: re-placed under the new spec later
    return ResizeOutcome::kStayed;
  }

  // Stay when the current PM still satisfies Eq. (17) with the resized
  // spec alongside its unchanged co-residents.
  scratch_.clear();
  for (std::size_t o : hosted_[pm.value])
    if (o != s) scratch_.push_back(slots_[o].spec);
  if (fits_with_reservation_specs(scratch_, spec, pms_[pm.value].capacity,
                                  table_)) {
    slot.spec = spec;
    refresh_key(pm);
    return ResizeOutcome::kStayed;
  }

  // Detach, then first-fit like an arrival.
  park(s);
  const auto target = first_fit(spec);
  if (!target) {
    attach(s, pm);
    return ResizeOutcome::kRejected;
  }
  slot.spec = spec;
  attach(s, *target);
  return ResizeOutcome::kMoved;
}

void LiveFleet::set_table(MapCalTable table) {
  table_ = std::move(table);
  // Every key depends on the mapping table.
  refresh_all_keys();
}

void LiveFleet::set_up(PmId pm, bool up) {
  up_[pm.value] = up ? 1 : 0;
  refresh_key(pm);
}

std::size_t LiveFleet::pms_used() const {
  std::size_t used = 0;
  for (const auto& list : hosted_)
    if (!list.empty()) ++used;
  return used;
}

bool LiveFleet::holds_on(PmId pm) const {
  const auto& list = hosted_[pm.value];
  if (list.empty()) return true;
  if (list.size() > table_.max_vms_per_pm()) return false;
  std::vector<VmSpec> specs;
  hosted_specs(pm, specs);
  return reserved_footprint_specs(specs, table_) <=
         pms_[pm.value].capacity * (1.0 + kCapacityEpsilon);
}

bool LiveFleet::reservation_invariant_holds() const {
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    if (!up_[j] && !hosted_[j].empty()) return false;  // down: host nothing
    if (!holds_on(PmId{j})) return false;
  }
  return std::none_of(slots_.begin(), slots_.end(), [&](const FleetSlot& s) {
    return s.live && s.pm.valid() && !up_[s.pm.value];
  });
}

const char* LiveFleet::restore(Contents c, MapCalTable table) {
  const std::size_t m = pms_.size();
  const std::size_t n = c.slots.size();
  if (c.hosted.size() != m) return "PM list count mismatch";
  if (c.up.size() != m) return "PM liveness count mismatch";

  std::size_t live = 0;
  std::size_t placed = 0;
  for (const FleetSlot& s : c.slots) {
    if (!s.live) continue;
    ++live;
    if (!s.pm.valid()) continue;
    if (s.pm.value >= m) return "tenant PM index out of range";
    if (!c.up[s.pm.value]) return "tenant placed on a down PM";
    ++placed;
  }

  std::vector<std::uint8_t> seen(n, 0);
  for (const std::size_t s : c.free_slots) {
    if (s >= n) return "free slot id out of range";
    if (c.slots[s].live) return "live slot on the free list";
    if (seen[s]++ != 0) return "slot listed twice";
  }
  if (c.free_slots.size() != n - live)
    return "dead slot missing from the free list";

  std::size_t listed = 0;
  for (std::size_t j = 0; j < m; ++j) {
    for (const std::size_t s : c.hosted[j]) {
      if (s >= n) return "hosted slot id out of range";
      if (!c.slots[s].live || c.slots[s].pm != PmId{j})
        return "hosted slot is not placed on that PM";
      if (seen[s]++ != 0) return "slot listed twice";
      ++listed;
    }
  }
  // Hosted entries are distinct slots placed on their own PM, so equal
  // counts mean every placed slot is listed exactly once.
  if (listed != placed) return "placed slot missing from its PM list";

  table_ = std::move(table);
  slots_ = std::move(c.slots);
  free_slots_ = std::move(c.free_slots);
  hosted_ = std::move(c.hosted);
  up_ = std::move(c.up);
  // The keys are derived: refreshed, never restored.
  refresh_all_keys();
  return nullptr;
}

}  // namespace burstq

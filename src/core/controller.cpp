#include "core/controller.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "durable/state_codec.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "placement/budget.h"
#include "placement/incremental.h"
#include "placement/placement.h"
#include "sim/state_codecs.h"

namespace burstq {

void ControllerConfig::validate() const {
  ffd.validate();
  policy.validate();
  power.validate();
  recovery.validate();
  BURSTQ_REQUIRE(sigma_seconds > 0.0, "slot length must be positive");
}

CloudController::CloudController(std::vector<PmSpec> pms,
                                 ControllerConfig config, Rng rng)
    : pms_(std::move(pms)),
      config_(config),
      rng_(rng),
      table_(config.ffd.max_vms_per_pm, OnOffParams{}, config.ffd.rho,
             config.ffd.method),
      on_pm_(pms_.size()),
      up_(pms_.size(), 1),
      tracker_(pms_.empty() ? 1 : pms_.size(), config.policy.cvr_window),
      meter_(config.power, config.sigma_seconds) {
  BURSTQ_REQUIRE(!pms_.empty(), "controller needs at least one PM");
  config_.validate();
  for (const auto& p : pms_) p.validate();
  BURSTQ_REQUIRE(config_.slo == nullptr ||
                     config_.slo->n_pms() == pms_.size(),
                 "SLO tracker PM count must match the fleet");
  index_.reset(pms_.size(), config_.ffd.sharded.shards);
  refresh_all_keys();
}

std::size_t CloudController::next_home() {
  const std::size_t home = route_seq_ % index_.shard_count();
  ++route_seq_;
  return home;
}

void CloudController::refresh_key(PmId pm) {
  if (!up_[pm.value]) {
    index_.set_key(pm.value, -std::numeric_limits<double>::infinity());
    return;
  }
  // The controller keeps no per-PM aggregate caches (the hosted lists are
  // short — at most d = max_vms_per_pm entries), so the key is recomputed
  // by a bounded walk.
  Resource rb_sum = 0.0;
  Resource re_max = 0.0;
  for (std::size_t s : on_pm_[pm.value]) {
    rb_sum += tenants_[s].spec.rb;
    re_max = std::max(re_max, tenants_[s].spec.re);
  }
  index_.set_key(pm.value,
                 conservative_admit_key(pms_[pm.value].capacity,
                                        on_pm_[pm.value].size(), rb_sum,
                                        re_max, table_));
}

void CloudController::refresh_all_keys() {
  for (std::size_t j = 0; j < pms_.size(); ++j) refresh_key(PmId{j});
}

std::vector<VmSpec> CloudController::hosted_specs(PmId pm) const {
  std::vector<VmSpec> out;
  out.reserve(on_pm_[pm.value].size());
  for (std::size_t s : on_pm_[pm.value]) out.push_back(tenants_[s].spec);
  return out;
}

std::optional<PmId> CloudController::first_fit(const VmSpec& vm,
                                               std::size_t home, PmId skip) {
  const auto outcome = index_.route(
      vm.rb, home,
      [&](std::size_t j) {
        if (skip.valid() && j == skip.value) return false;
        // Down PMs never reach here: their key is -inf.
        return fits_with_reservation_specs(hosted_specs(PmId{j}), vm,
                                           pms_[j].capacity, table_);
      },
      config_.ffd.sharded.decision_budget);
  if (outcome.budget_exhausted)
    BURSTQ_COUNT("placement.shard.budget_exhausted", 1);
  if (outcome.pm == ShardedAdmitIndex::npos) return std::nullopt;
  return PmId{outcome.pm};
}

std::optional<TenantId> CloudController::admit(const VmSpec& vm) {
  vm.validate();
  const auto pm = first_fit(vm, next_home());
  if (!pm) {
    ++stats_.rejections;
    return std::nullopt;
  }
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = tenants_.size();
    tenants_.emplace_back();
  }
  Tenant& t = tenants_[slot];
  t.spec = vm;
  t.chain = OnOffChain(vm.onoff);
  t.chain.reset_stationary(rng_);
  t.pm = *pm;
  t.live = true;
  on_pm_[pm->value].push_back(slot);
  refresh_key(*pm);
  ++stats_.admissions;
  ++stats_.vms_hosted;
  return TenantId{slot};
}

void CloudController::depart(TenantId id) {
  BURSTQ_REQUIRE(
      id.valid() && id.slot < tenants_.size() && tenants_[id.slot].live,
      "depart on an invalid or dead tenant");
  Tenant& t = tenants_[id.slot];
  if (t.pm.valid()) {
    auto& list = on_pm_[t.pm.value];
    const auto it = std::find(list.begin(), list.end(), id.slot);
    BURSTQ_ASSERT(it != list.end(), "controller PM lists out of sync");
    list.erase(it);
    refresh_key(t.pm);
  } else {
    // Parked in the post-crash admission queue; departing just removes it.
    const auto it = std::find_if(
        queue_.begin(), queue_.end(),
        [&](const QueuedTenant& q) { return q.slot == id.slot; });
    BURSTQ_ASSERT(it != queue_.end(), "unplaced tenant missing from queue");
    queue_.erase(it);
  }
  t.live = false;
  free_slots_.push_back(id.slot);
  ++stats_.departures;
  --stats_.vms_hosted;
}

bool CloudController::resize(TenantId id, const VmSpec& new_spec) {
  BURSTQ_REQUIRE(
      id.valid() && id.slot < tenants_.size() && tenants_[id.slot].live,
      "resize on an invalid or dead tenant");
  new_spec.validate();
  Tenant& t = tenants_[id.slot];
  const bool chain_restart = !(t.spec.onoff.p_on == new_spec.onoff.p_on &&
                               t.spec.onoff.p_off == new_spec.onoff.p_off);

  if (!t.pm.valid()) {
    // Parked in the post-crash queue: just swap the spec; the queue drain
    // re-places it under the new size.
    t.spec = new_spec;
  } else {
    const PmId pm = t.pm;
    // Fast path: the current PM still satisfies Eq. (17) with the
    // resized spec alongside its unchanged co-residents.
    std::vector<VmSpec> others;
    others.reserve(on_pm_[pm.value].size() - 1);
    for (std::size_t s : on_pm_[pm.value])
      if (s != id.slot) others.push_back(tenants_[s].spec);
    if (fits_with_reservation_specs(others, new_spec, pms_[pm.value].capacity,
                                    table_)) {
      t.spec = new_spec;
      refresh_key(pm);
    } else {
      // Detach, then route the resized tenant with its current PM's shard
      // as home (locality-preserving and deterministic).
      auto& list = on_pm_[pm.value];
      list.erase(std::find(list.begin(), list.end(), id.slot));
      refresh_key(pm);
      const auto target = first_fit(new_spec, index_.shard_of(pm.value));
      if (!target) {
        // Roll back: the original spec on the original PM is always
        // feasible (that exact hosted set satisfied Eq. 17 before).
        on_pm_[pm.value].push_back(id.slot);
        refresh_key(pm);
        ++stats_.resize_rejections;
        BURSTQ_COUNT("controller.resize.rejected", 1);
        return false;
      }
      t.spec = new_spec;
      t.pm = *target;
      on_pm_[target->value].push_back(id.slot);
      refresh_key(*target);
      ++stats_.resize_migrations;
      BURSTQ_COUNT("controller.resize.moved", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "resize.migrate",
                   {"t", stats_.slots}, {"tenant", id.slot},
                   {"from", pm.value}, {"to", target->value});
    }
  }

  if (chain_restart) {
    t.chain = OnOffChain(new_spec.onoff);
    t.chain.reset_stationary(rng_);
  }
  ++stats_.resizes;
  BURSTQ_COUNT("controller.resizes", 1);
  return true;
}

void CloudController::inject_pm_crash(PmId pm) {
  BURSTQ_REQUIRE(pm.valid() && pm.value < pms_.size(),
                 "inject_pm_crash on an out-of-range PM");
  if (!up_[pm.value]) return;
  up_[pm.value] = 0;
  refresh_key(pm);  // -inf: routing skips the dead host entirely
  ++stats_.pm_crashes;
  BURSTQ_COUNT("fault.pm.crashes", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.pm.crash",
               {"t", stats_.slots}, {"pm", pm.value});

  // Evacuate: the crashed PM's list is consumed up front so first_fit
  // never counts the dead host's tenants against anything.
  const std::vector<std::size_t> victims = std::move(on_pm_[pm.value]);
  on_pm_[pm.value].clear();
  for (std::size_t s : victims) {
    Tenant& t = tenants_[s];
    t.pm = PmId{};
    if (const auto target = first_fit(t.spec, 0)) {
      t.pm = *target;
      on_pm_[target->value].push_back(s);
      refresh_key(*target);
      ++stats_.evacuations;
      BURSTQ_COUNT("fault.evacuations", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.evacuate",
                   {"t", stats_.slots}, {"tenant", s}, {"from", pm.value},
                   {"to", target->value});
    } else {
      queue_.push_back(QueuedTenant{
          s, 0, stats_.slots + config_.recovery.backoff_base_slots});
      ++stats_.evac_queued;
      BURSTQ_COUNT("fault.queue.enqueued", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.enqueue",
                   {"t", stats_.slots}, {"tenant", s},
                   {"reason", "no-feasible-pm"});
    }
  }
}

void CloudController::inject_pm_recover(PmId pm) {
  BURSTQ_REQUIRE(pm.valid() && pm.value < pms_.size(),
                 "inject_pm_recover on an out-of-range PM");
  if (up_[pm.value]) return;
  up_[pm.value] = 1;
  refresh_key(pm);
  ++stats_.pm_recoveries;
  BURSTQ_COUNT("fault.pm.recoveries", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.pm.recover",
               {"t", stats_.slots}, {"pm", pm.value});
}

std::size_t CloudController::backoff_delay(std::size_t retries) const {
  const std::size_t cap = config_.recovery.backoff_cap_slots;
  std::size_t delay = config_.recovery.backoff_base_slots;
  const std::size_t exponent =
      std::min(retries, config_.recovery.max_retries);
  for (std::size_t i = 0; i < exponent && delay < cap; ++i) delay *= 2;
  return std::min(delay, cap);
}

void CloudController::drain_queue() {
  for (auto& q : queue_) {
    if (q.next_attempt > stats_.slots) continue;
    ++q.retries;
    ++stats_.retries;
    BURSTQ_COUNT("migration.retries", 1);
    Tenant& t = tenants_[q.slot];
    if (const auto target = first_fit(t.spec, 0)) {
      t.pm = *target;
      on_pm_[target->value].push_back(q.slot);
      refresh_key(*target);
      BURSTQ_COUNT("fault.queue.drained", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.admit",
                   {"t", stats_.slots}, {"tenant", q.slot},
                   {"pm", target->value}, {"retries", q.retries});
      q.slot = static_cast<std::size_t>(-1);  // admitted; erased below
    } else {
      q.next_attempt = stats_.slots + backoff_delay(q.retries);
    }
  }
  std::erase_if(queue_, [](const QueuedTenant& q) {
    return q.slot == static_cast<std::size_t>(-1);
  });
}

bool CloudController::fleet_degraded() const {
  return !queue_.empty() ||
         std::find(up_.begin(), up_.end(), std::uint8_t{0}) != up_.end();
}

void CloudController::run_scheduler(const std::vector<Resource>& /*load*/,
                                    std::vector<Resource>& mutable_load) {
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    const PmId source{j};
    if (on_pm_[j].empty()) continue;
    if (tracker_.windowed_cvr(source) <= config_.policy.rho) continue;

    // Victim: the spiking tenant with the largest demand, falling back
    // to the largest-demand tenant overall (same rule as select_victim).
    std::size_t best_on = 0;
    double best_on_demand = -1.0;
    std::size_t best_any = on_pm_[j].front();
    double best_any_demand = -1.0;
    for (std::size_t s : on_pm_[j]) {
      const Tenant& t = tenants_[s];
      const double d = t.spec.demand(t.chain.state());
      if (t.chain.on() && d > best_on_demand) {
        best_on_demand = d;
        best_on = s;
      }
      if (d > best_any_demand) {
        best_any_demand = d;
        best_any = s;
      }
    }
    const std::size_t victim_slot =
        best_on_demand >= 0.0 ? best_on : best_any;
    Tenant& victim = tenants_[victim_slot];
    const double vdemand = victim.spec.demand(victim.chain.state());

    // Target: reservation-aware by default in the controller — this is
    // the burstiness-aware component an operator deploys.  Routed through
    // the shard index like an arrival, skipping the violating source.
    const std::optional<PmId> target = first_fit(victim.spec, 0, source);
    if (target) {
      auto& list = on_pm_[j];
      list.erase(std::find(list.begin(), list.end(), victim_slot));
      on_pm_[target->value].push_back(victim_slot);
      victim.pm = *target;
      refresh_key(source);
      refresh_key(*target);
      mutable_load[j] -= vdemand;
      mutable_load[target->value] += vdemand;
      ++stats_.runtime_migrations;
      tracker_.reset_window(source);
      tracker_.reset_window(*target);
    } else {
      ++stats_.failed_migrations;
      tracker_.reset_window(source);
    }
  }
}

void CloudController::run_maintenance() {
  ++stats_.maintenance_windows;
  if (stats_.vms_hosted == 0) return;

  // Recalibrate the mapping table to the current population (IV-E).
  std::vector<VmSpec> live;
  std::vector<std::size_t> slot_of;  // compact index -> tenant slot
  live.reserve(stats_.vms_hosted);
  for (std::size_t s = 0; s < tenants_.size(); ++s) {
    if (!tenants_[s].live) continue;
    live.push_back(tenants_[s].spec);
    slot_of.push_back(s);
  }
  const OnOffParams rounded =
      round_uniform_params(live, config_.ffd.rounding);
  try {
    table_ = MapCalTable(config_.ffd.max_vms_per_pm, rounded,
                         config_.ffd.rho, config_.ffd.method);
    table_params_ = rounded;
  } catch (const SolverUnavailable&) {
    // Solver outage mid-maintenance: keep consolidating with the previous
    // (stale but sound) table rather than aborting the window.
    ++stats_.degraded_maintenance;
    BURSTQ_COUNT("fault.solver.degraded", 1);
    BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.solver.degrade",
                 {"t", stats_.slots}, {"level", "stale-table"});
  }

  // Compact instance + placement view for the budget consolidator.
  ProblemInstance inst;
  inst.vms = live;
  inst.pms = pms_;
  Placement view(live.size(), pms_.size());
  for (std::size_t i = 0; i < live.size(); ++i)
    view.assign(VmId{i}, tenants_[slot_of[i]].pm);

  const auto result = consolidate_with_budget(
      inst, view, table_, config_.maintenance_budget);

  // Apply the executed moves back to the live fleet.
  for (const auto& move : result.moves) {
    const std::size_t s = slot_of[move.vm.value];
    auto& from_list = on_pm_[move.from.value];
    from_list.erase(std::find(from_list.begin(), from_list.end(), s));
    on_pm_[move.to.value].push_back(s);
    tenants_[s].pm = move.to;
    ++stats_.maintenance_migrations;
  }

  // The table may have changed and the moves touched many PMs: rebuild
  // every admissibility key once, at the end of the window.
  refresh_all_keys();
}

void CloudController::tick() {
  ++stats_.slots;

  // 1. Workload evolution + demands.
  std::vector<Resource> load(pms_.size(), 0.0);
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    for (std::size_t s : on_pm_[j]) {
      Tenant& t = tenants_[s];
      t.chain.step(rng_);
      load[j] += t.spec.demand(t.chain.state());
    }
  }

  // 2. Violation bookkeeping.
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    if (on_pm_[j].empty()) continue;
    const bool violated =
        load[j] > pms_[j].capacity * (1.0 + kCapacityEpsilon);
    tracker_.record(PmId{j}, violated);
    if (config_.slo != nullptr) config_.slo->record(PmId{j}, violated);
  }
  if (config_.slo != nullptr) config_.slo->end_slot();

  // 3. Dynamic scheduling.
  run_scheduler(load, load);

  // 3b. Crash victims whose backoff expired retry placement.
  if (!queue_.empty()) drain_queue();

  // 4. Energy.
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    if (on_pm_[j].empty()) continue;
    meter_.add_pm_slot(load[j] / pms_[j].capacity);
  }

  // 5. Maintenance window — deferred while the fleet is degraded (a down
  // PM or queued tenants): consolidation would fight the recovery path
  // and the compact placement view below requires every tenant placed.
  if (config_.maintenance_every > 0 && !fleet_degraded() &&
      stats_.slots % config_.maintenance_every == 0)
    run_maintenance();

  stats_.pms_used = pms_used();
  stats_.mean_cvr = tracker_.mean_cvr();
  stats_.max_cvr = tracker_.max_cvr();
  stats_.energy_wh = meter_.watt_hours();
}

std::size_t CloudController::pms_used() const {
  std::size_t used = 0;
  for (const auto& list : on_pm_)
    if (!list.empty()) ++used;
  return used;
}

PmId CloudController::pm_of(TenantId id) const {
  BURSTQ_REQUIRE(
      id.valid() && id.slot < tenants_.size() && tenants_[id.slot].live,
      "pm_of on an invalid or dead tenant");
  return tenants_[id.slot].pm;
}

const VmSpec& CloudController::spec_of(TenantId id) const {
  BURSTQ_REQUIRE(
      id.valid() && id.slot < tenants_.size() && tenants_[id.slot].live,
      "spec_of on an invalid or dead tenant");
  return tenants_[id.slot].spec;
}

bool CloudController::reservation_invariant_holds() const {
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    const auto hosted = hosted_specs(PmId{j});
    if (!up_[j] && !hosted.empty()) return false;  // dead PMs host nothing
    if (hosted.empty()) continue;
    if (hosted.size() > table_.max_vms_per_pm()) return false;
    if (reserved_footprint_specs(hosted, table_) >
        pms_[j].capacity * (1.0 + kCapacityEpsilon))
      return false;
  }
  // Recovery invariant: every live tenant is placed on an up PM or queued.
  for (std::size_t s = 0; s < tenants_.size(); ++s) {
    const Tenant& t = tenants_[s];
    if (!t.live) continue;
    if (t.pm.valid()) {
      if (!up_[t.pm.value]) return false;
    } else if (std::none_of(
                   queue_.begin(), queue_.end(),
                   [s](const QueuedTenant& q) { return q.slot == s; })) {
      return false;
    }
  }
  return true;
}

namespace {

/// Digest of the construction arguments the blob does NOT carry: a
/// restore into a differently-configured controller must fail loudly,
/// not deserialize garbage.
std::uint32_t controller_config_crc(const std::vector<PmSpec>& pms,
                                    const ControllerConfig& config) {
  durable::StateWriter cfg;
  cfg.varint(pms.size());
  for (const PmSpec& p : pms) cfg.f64(p.capacity);
  cfg.varint(config.ffd.max_vms_per_pm);
  cfg.f64(config.ffd.rho);
  cfg.varint(config.ffd.sharded.shards);
  cfg.varint(config.policy.cvr_window);
  cfg.varint(config.maintenance_every);
  cfg.boolean(config.slo != nullptr);
  return obs::trace_detail::crc32(cfg.data());
}

}  // namespace

std::string CloudController::export_state() const {
  durable::StateWriter w;
  w.u64(1);  // blob version
  w.u32(controller_config_crc(pms_, config_));

  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.f64(table_params_.p_on);
  w.f64(table_params_.p_off);

  w.varint(tenants_.size());
  for (const Tenant& t : tenants_) {
    w.boolean(t.live);
    if (!t.live) continue;  // the slot is on the free list
    encode_vm_spec(w, t.spec);
    w.u8(static_cast<std::uint8_t>(t.chain.state()));
    w.varint(t.pm.valid() ? t.pm.value + 1 : 0);
  }
  w.size_vec(free_slots_);
  w.varint(on_pm_.size());
  for (const auto& list : on_pm_) w.size_vec(list);
  w.u8_vec(up_);
  w.varint(route_seq_);

  w.varint(queue_.size());
  for (const QueuedTenant& q : queue_) {
    w.varint(q.slot);
    w.varint(q.retries);
    w.varint(q.next_attempt);
  }

  encode_cvr_tracker(w, tracker_.export_state());
  w.f64(meter_.joules());

  w.varint(stats_.slots);
  w.varint(stats_.vms_hosted);
  w.varint(stats_.pms_used);
  w.varint(stats_.admissions);
  w.varint(stats_.rejections);
  w.varint(stats_.departures);
  w.varint(stats_.resizes);
  w.varint(stats_.resize_migrations);
  w.varint(stats_.resize_rejections);
  w.varint(stats_.runtime_migrations);
  w.varint(stats_.maintenance_migrations);
  w.varint(stats_.failed_migrations);
  w.varint(stats_.maintenance_windows);
  w.varint(stats_.pm_crashes);
  w.varint(stats_.pm_recoveries);
  w.varint(stats_.evacuations);
  w.varint(stats_.evac_queued);
  w.varint(stats_.retries);
  w.varint(stats_.degraded_maintenance);
  w.f64(stats_.mean_cvr);
  w.f64(stats_.max_cvr);
  w.f64(stats_.energy_wh);

  w.boolean(config_.slo != nullptr);
  if (config_.slo != nullptr)
    encode_slo_tracker(w, config_.slo->export_state());
  return w.take();
}

void CloudController::import_state(std::string_view blob) {
  durable::StateReader r(blob, "controller state");
  if (r.u64() != 1) r.fail("unsupported controller state version");
  if (r.u32() != controller_config_crc(pms_, config_))
    r.fail("construction arguments do not match the stored state");

  std::array<std::uint64_t, 4> rs{};
  for (std::uint64_t& s : rs) s = r.u64();
  rng_.set_state(rs);
  table_params_.p_on = r.f64();
  table_params_.p_off = r.f64();
  table_ = MapCalTable(config_.ffd.max_vms_per_pm, table_params_,
                       config_.ffd.rho, config_.ffd.method);

  tenants_.assign(r.count(), Tenant{});
  for (Tenant& t : tenants_) {
    t.live = r.boolean();
    if (!t.live) continue;
    t.spec = decode_vm_spec(r);
    t.chain = OnOffChain(t.spec.onoff,
                         static_cast<VmState>(r.u8()));
    const std::size_t pm = r.varint();
    t.pm = pm == 0 ? PmId{} : PmId{pm - 1};
  }
  free_slots_ = r.size_vec();
  if (r.varint() != pms_.size()) r.fail("PM list count mismatch");
  for (auto& list : on_pm_) list = r.size_vec();
  std::vector<std::uint8_t> up = r.u8_vec();
  if (up.size() != pms_.size()) r.fail("PM liveness count mismatch");
  up_ = std::move(up);
  route_seq_ = r.varint();

  queue_.assign(r.count(), QueuedTenant{});
  for (QueuedTenant& q : queue_) {
    q.slot = r.varint();
    q.retries = r.varint();
    q.next_attempt = r.varint();
  }

  const CvrTrackerState ts = decode_cvr_tracker(r);
  if (ts.pms.size() != tracker_.n_pms())
    r.fail("CVR tracker PM count mismatch");
  tracker_.import_state(ts);
  meter_.restore_joules(r.f64());

  stats_.slots = r.varint();
  stats_.vms_hosted = r.varint();
  stats_.pms_used = r.varint();
  stats_.admissions = r.varint();
  stats_.rejections = r.varint();
  stats_.departures = r.varint();
  stats_.resizes = r.varint();
  stats_.resize_migrations = r.varint();
  stats_.resize_rejections = r.varint();
  stats_.runtime_migrations = r.varint();
  stats_.maintenance_migrations = r.varint();
  stats_.failed_migrations = r.varint();
  stats_.maintenance_windows = r.varint();
  stats_.pm_crashes = r.varint();
  stats_.pm_recoveries = r.varint();
  stats_.evacuations = r.varint();
  stats_.evac_queued = r.varint();
  stats_.retries = r.varint();
  stats_.degraded_maintenance = r.varint();
  stats_.mean_cvr = r.f64();
  stats_.max_cvr = r.f64();
  stats_.energy_wh = r.f64();

  const bool has_slo = r.boolean();
  if (has_slo != (config_.slo != nullptr))
    r.fail("SLO tracker presence mismatch");
  if (has_slo) config_.slo->import_state(decode_slo_tracker(r));
  r.expect_done();

  // Derived structures are rebuilt, never deserialized: the shard index
  // and per-PM admissibility keys follow from the restored hosted sets
  // and liveness exactly as in the constructor.
  index_.reset(pms_.size(), config_.ffd.sharded.shards);
  refresh_all_keys();
}

}  // namespace burstq

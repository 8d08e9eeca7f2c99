#include "core/controller.h"

#include <algorithm>

#include "common/error.h"
#include "durable/state_codec.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "placement/budget.h"
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
    : config_(config),
      rng_(rng),
      fleet_(std::move(pms),
             MapCalTable(config.ffd.max_vms_per_pm, OnOffParams{},
                         config.ffd.rho, config.ffd.method)),
      tracker_(fleet_.n_pms(), config.policy.cvr_window),
      meter_(config.power, config.sigma_seconds) {
  config_.validate();
  BURSTQ_REQUIRE(config_.slo == nullptr ||
                     config_.slo->n_pms() == fleet_.n_pms(),
                 "SLO tracker PM count must match the fleet");
}

std::optional<TenantId> CloudController::admit(const VmSpec& vm) {
  vm.validate();
  const auto pm = fleet_.first_fit(vm);
  if (!pm) {
    ++stats_.rejections;
    return std::nullopt;
  }
  const std::size_t slot = fleet_.place(vm, *pm);
  if (slot == chains_.size())
    chains_.emplace_back(vm.onoff);
  else
    chains_[slot] = OnOffChain(vm.onoff);
  chains_[slot].reset_stationary(rng_);
  ++stats_.admissions;
  ++stats_.vms_hosted;
  return TenantId{slot};
}

void CloudController::depart(TenantId id) {
  BURSTQ_REQUIRE(fleet_.live(id.slot), "depart on an invalid or dead tenant");
  if (!fleet_.slot(id.slot).pm.valid()) {
    // Parked in the post-crash admission queue; departing just removes it.
    const auto it = std::find_if(
        queue_.begin(), queue_.end(),
        [&](const QueuedTenant& q) { return q.slot == id.slot; });
    BURSTQ_ASSERT(it != queue_.end(), "unplaced tenant missing from queue");
    queue_.erase(it);
  }
  fleet_.remove(id.slot);
  ++stats_.departures;
  --stats_.vms_hosted;
}

bool CloudController::resize(TenantId id, const VmSpec& new_spec) {
  BURSTQ_REQUIRE(fleet_.live(id.slot), "resize on an invalid or dead tenant");
  new_spec.validate();
  const FleetSlot& t = fleet_.slot(id.slot);
  const bool chain_restart = !(t.spec.onoff.p_on == new_spec.onoff.p_on &&
                               t.spec.onoff.p_off == new_spec.onoff.p_off);
  [[maybe_unused]] const PmId from = t.pm;  // read only by the event

  // Queued tenants just take the new spec; the queue drain re-places them.
  switch (fleet_.resize(id.slot, new_spec)) {
    case ResizeOutcome::kStayed:
      break;
    case ResizeOutcome::kRejected:
      ++stats_.resize_rejections;
      BURSTQ_COUNT("controller.resize.rejected", 1);
      return false;
    case ResizeOutcome::kMoved:
      ++stats_.resize_migrations;
      BURSTQ_COUNT("controller.resize.moved", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "resize.migrate",
                   {"t", stats_.slots}, {"tenant", id.slot},
                   {"from", from.value}, {"to", t.pm.value});
      break;
  }

  if (chain_restart) {
    chains_[id.slot] = OnOffChain(new_spec.onoff);
    chains_[id.slot].reset_stationary(rng_);
  }
  ++stats_.resizes;
  BURSTQ_COUNT("controller.resizes", 1);
  return true;
}

void CloudController::inject_pm_crash(PmId pm) {
  BURSTQ_REQUIRE(pm.valid() && pm.value < fleet_.n_pms(),
                 "inject_pm_crash on an out-of-range PM");
  if (!fleet_.pm_up(pm)) return;
  fleet_.set_up(pm, false);  // key -inf: first-fit skips the dead host
  ++stats_.pm_crashes;
  BURSTQ_COUNT("fault.pm.crashes", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.pm.crash",
               {"t", stats_.slots}, {"pm", pm.value});

  // Evacuate: every tenant of the crashed PM is parked up front, then
  // each is routed over the remaining up PMs or queued.
  const std::vector<std::size_t> victims = fleet_.hosted(pm);
  for (std::size_t s : victims) fleet_.park(s);
  for (std::size_t s : victims) {
    if (const auto target = fleet_.first_fit(fleet_.slot(s).spec)) {
      fleet_.attach(s, *target);
      ++stats_.evacuations;
      BURSTQ_COUNT("fault.evacuations", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.evacuate",
                   {"t", stats_.slots}, {"tenant", s}, {"from", pm.value},
                   {"to", target->value});
    } else {
      queue_.push_back(QueuedTenant{
          s, 0, stats_.slots + fault::backoff_delay(config_.recovery, 0)});
      ++stats_.evac_queued;
      BURSTQ_COUNT("fault.queue.enqueued", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.enqueue",
                   {"t", stats_.slots}, {"tenant", s},
                   {"reason", "no-feasible-pm"});
    }
  }
}

void CloudController::inject_pm_recover(PmId pm) {
  BURSTQ_REQUIRE(pm.valid() && pm.value < fleet_.n_pms(),
                 "inject_pm_recover on an out-of-range PM");
  if (fleet_.pm_up(pm)) return;
  fleet_.set_up(pm, true);
  ++stats_.pm_recoveries;
  BURSTQ_COUNT("fault.pm.recoveries", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.pm.recover",
               {"t", stats_.slots}, {"pm", pm.value});
}

void CloudController::drain_queue() {
  for (auto& q : queue_) {
    if (q.next_attempt > stats_.slots) continue;
    ++q.retries;
    ++stats_.retries;
    BURSTQ_COUNT("migration.retries", 1);
    if (const auto target = fleet_.first_fit(fleet_.slot(q.slot).spec)) {
      fleet_.attach(q.slot, *target);
      BURSTQ_COUNT("fault.queue.drained", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.admit",
                   {"t", stats_.slots}, {"tenant", q.slot},
                   {"pm", target->value}, {"retries", q.retries});
      q.slot = static_cast<std::size_t>(-1);  // admitted; erased below
    } else {
      q.next_attempt =
          stats_.slots + fault::backoff_delay(config_.recovery, q.retries);
    }
  }
  std::erase_if(queue_, [](const QueuedTenant& q) {
    return q.slot == static_cast<std::size_t>(-1);
  });
}

bool CloudController::fleet_degraded() const {
  return !queue_.empty() || std::find(fleet_.up().begin(), fleet_.up().end(),
                                      std::uint8_t{0}) != fleet_.up().end();
}

void CloudController::run_scheduler(std::vector<Resource>& load) {
  for (std::size_t j = 0; j < fleet_.n_pms(); ++j) {
    const PmId source{j};
    const auto& hosted = fleet_.hosted(source);
    if (hosted.empty()) continue;
    if (tracker_.windowed_cvr(source) <= config_.policy.rho) continue;

    // Victim: the spiking tenant with the largest demand, falling back
    // to the largest-demand tenant overall (same rule as select_victim).
    std::size_t best_on = 0;
    double best_on_demand = -1.0;
    std::size_t best_any = hosted.front();
    double best_any_demand = -1.0;
    for (std::size_t s : hosted) {
      const double d = fleet_.slot(s).spec.demand(chains_[s].state());
      if (chains_[s].on() && d > best_on_demand) {
        best_on_demand = d;
        best_on = s;
      }
      if (d > best_any_demand) {
        best_any_demand = d;
        best_any = s;
      }
    }
    const std::size_t victim = best_on_demand >= 0.0 ? best_on : best_any;
    const VmSpec& vspec = fleet_.slot(victim).spec;
    const double vdemand = vspec.demand(chains_[victim].state());

    // Target: reservation-aware by default in the controller — this is
    // the burstiness-aware component an operator deploys.  First-fit like
    // an arrival, skipping the violating source.
    if (const auto target = fleet_.first_fit(vspec, source)) {
      fleet_.move(victim, *target);
      load[j] -= vdemand;
      load[target->value] += vdemand;
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
  for (std::size_t s = 0; s < fleet_.slot_count(); ++s) {
    if (!fleet_.live(s)) continue;
    live.push_back(fleet_.slot(s).spec);
    slot_of.push_back(s);
  }
  const OnOffParams rounded =
      round_uniform_params(live, config_.ffd.rounding);
  try {
    fleet_.set_table(MapCalTable(config_.ffd.max_vms_per_pm, rounded,
                                 config_.ffd.rho, config_.ffd.method));
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
  inst.pms = fleet_.pms();
  Placement view(live.size(), fleet_.n_pms());
  for (std::size_t i = 0; i < live.size(); ++i)
    view.assign(VmId{i}, fleet_.slot(slot_of[i]).pm);

  const auto result = consolidate_with_budget(
      inst, view, fleet_.table(), config_.maintenance_budget);

  // Apply the executed moves back to the live fleet.
  for (const auto& move : result.moves) {
    const std::size_t s = slot_of[move.vm.value];
    BURSTQ_ASSERT(fleet_.slot(s).pm == move.from,
                  "maintenance move from the wrong PM");
    fleet_.move(s, move.to);
    ++stats_.maintenance_migrations;
  }
}

void CloudController::tick() {
  ++stats_.slots;
  const std::vector<PmSpec>& pms = fleet_.pms();

  // 1. Workload evolution + demands.
  std::vector<Resource> load(pms.size(), 0.0);
  for (std::size_t j = 0; j < pms.size(); ++j) {
    for (std::size_t s : fleet_.hosted(PmId{j})) {
      chains_[s].step(rng_);
      load[j] += fleet_.slot(s).spec.demand(chains_[s].state());
    }
  }

  // 2. Violation bookkeeping.
  for (std::size_t j = 0; j < pms.size(); ++j) {
    if (fleet_.hosted(PmId{j}).empty()) continue;
    const bool violated =
        load[j] > pms[j].capacity * (1.0 + kCapacityEpsilon);
    tracker_.record(PmId{j}, violated);
    if (config_.slo != nullptr) config_.slo->record(PmId{j}, violated);
  }
  if (config_.slo != nullptr) config_.slo->end_slot();

  // 3. Dynamic scheduling.
  run_scheduler(load);

  // 3b. Crash victims whose backoff expired retry placement.
  if (!queue_.empty()) drain_queue();

  // 4. Energy.
  for (std::size_t j = 0; j < pms.size(); ++j) {
    if (fleet_.hosted(PmId{j}).empty()) continue;
    meter_.add_pm_slot(load[j] / pms[j].capacity);
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

std::size_t CloudController::pms_used() const { return fleet_.pms_used(); }

PmId CloudController::pm_of(TenantId id) const {
  BURSTQ_REQUIRE(fleet_.live(id.slot), "pm_of on an invalid or dead tenant");
  return fleet_.slot(id.slot).pm;
}

const VmSpec& CloudController::spec_of(TenantId id) const {
  BURSTQ_REQUIRE(fleet_.live(id.slot),
                 "spec_of on an invalid or dead tenant");
  return fleet_.slot(id.slot).spec;
}

bool CloudController::queue_matches_parked() const {
  std::vector<std::uint8_t> queued(fleet_.slot_count(), 0);
  for (const QueuedTenant& q : queue_)
    if (!fleet_.live(q.slot) || fleet_.slot(q.slot).pm.valid() ||
        queued[q.slot]++ != 0)
      return false;
  std::size_t parked = 0;
  for (std::size_t s = 0; s < fleet_.slot_count(); ++s)
    if (fleet_.live(s) && !fleet_.slot(s).pm.valid()) ++parked;
  return parked == queue_.size();
}

bool CloudController::reservation_invariant_holds() const {
  // Recovery invariant: every live tenant is placed on an up PM (checked
  // by the fleet) or queued.
  return fleet_.reservation_invariant_holds() && queue_matches_parked();
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
  cfg.varint(1);  // the shard count of the retired sharded engine
  cfg.varint(config.policy.cvr_window);
  cfg.varint(config.maintenance_every);
  cfg.boolean(config.slo != nullptr);
  return obs::trace_detail::crc32(cfg.data());
}

/// ControllerStats fields in blob order: the counters, then the reals.
using S = ControllerStats;
constexpr std::size_t S::*kStatCounts[] = {
    &S::slots, &S::vms_hosted, &S::pms_used, &S::admissions,
    &S::rejections, &S::departures, &S::resizes, &S::resize_migrations,
    &S::resize_rejections, &S::runtime_migrations,
    &S::maintenance_migrations, &S::failed_migrations,
    &S::maintenance_windows, &S::pm_crashes, &S::pm_recoveries,
    &S::evacuations, &S::evac_queued, &S::retries,
    &S::degraded_maintenance};
constexpr double S::*kStatReals[] = {&S::mean_cvr, &S::max_cvr,
                                     &S::energy_wh};

}  // namespace

std::string CloudController::export_state() const {
  durable::StateWriter w;
  w.u64(1);  // blob version
  w.u32(controller_config_crc(fleet_.pms(), config_));

  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.f64(fleet_.table().params().p_on);
  w.f64(fleet_.table().params().p_off);

  w.varint(fleet_.slot_count());
  for (std::size_t s = 0; s < fleet_.slot_count(); ++s) {
    const FleetSlot& t = fleet_.slot(s);
    w.boolean(t.live);
    if (!t.live) continue;  // the slot is on the free list
    encode_vm_spec(w, t.spec);
    w.u8(static_cast<std::uint8_t>(chains_[s].state()));
    w.varint(t.pm.valid() ? t.pm.value + 1 : 0);
  }
  w.size_vec(fleet_.free_slots());
  w.varint(fleet_.n_pms());
  for (std::size_t j = 0; j < fleet_.n_pms(); ++j)
    w.size_vec(fleet_.hosted(PmId{j}));
  w.u8_vec(fleet_.up());
  // Arrivals: every admit() ends in exactly one of these two counts.
  w.varint(stats_.admissions + stats_.rejections);

  w.varint(queue_.size());
  for (const QueuedTenant& q : queue_) {
    w.varint(q.slot);
    w.varint(q.retries);
    w.varint(q.next_attempt);
  }

  encode_cvr_tracker(w, tracker_.export_state());
  w.f64(meter_.joules());

  for (const auto field : kStatCounts) w.varint(stats_.*field);
  for (const auto field : kStatReals) w.f64(stats_.*field);

  w.boolean(config_.slo != nullptr);
  if (config_.slo != nullptr)
    encode_slo_tracker(w, config_.slo->export_state());
  return w.take();
}

void CloudController::import_state(std::string_view blob) {
  durable::StateReader r(blob, "controller state");
  if (r.u64() != 1) r.fail("unsupported controller state version");
  if (r.u32() != controller_config_crc(fleet_.pms(), config_))
    r.fail("construction arguments do not match the stored state");

  std::array<std::uint64_t, 4> rs{};
  for (std::uint64_t& s : rs) s = r.u64();
  rng_.set_state(rs);
  OnOffParams table_params;
  table_params.p_on = r.f64();
  table_params.p_off = r.f64();

  LiveFleet::Contents fc;
  fc.slots.assign(r.count(), FleetSlot{});
  std::vector<OnOffChain> chains(fc.slots.size(), OnOffChain(OnOffParams{}));
  for (std::size_t s = 0; s < fc.slots.size(); ++s) {
    FleetSlot& t = fc.slots[s];
    t.live = r.boolean();
    if (!t.live) continue;
    t.spec = decode_vm_spec(r);
    const std::uint8_t state = r.u8();
    if (state > 1) r.fail("chain state out of range");
    chains[s] = OnOffChain(t.spec.onoff, static_cast<VmState>(state));
    const std::size_t pm = r.varint();
    t.pm = pm == 0 ? PmId{} : PmId{pm - 1};
  }
  fc.free_slots = r.size_vec();
  if (r.varint() != fleet_.n_pms()) r.fail("PM list count mismatch");
  fc.hosted.resize(fleet_.n_pms());
  for (auto& list : fc.hosted) list = r.size_vec();
  fc.up = r.u8_vec();
  const std::size_t arrivals = r.varint();
  // The keys are rebuilt from the restored hosted sets, liveness and
  // table, exactly as in the constructor.
  if (const char* bad = fleet_.restore(
          std::move(fc), MapCalTable(config_.ffd.max_vms_per_pm,
                                     table_params, config_.ffd.rho,
                                     config_.ffd.method)))
    r.fail(bad);
  chains_ = std::move(chains);

  queue_.assign(r.count(), QueuedTenant{});
  for (QueuedTenant& q : queue_) {
    q.slot = r.varint();
    q.retries = r.varint();
    q.next_attempt = r.varint();
  }
  if (!queue_matches_parked())
    r.fail("crash queue does not match the parked tenants");

  const CvrTrackerState ts = decode_cvr_tracker(r);
  if (ts.pms.size() != tracker_.n_pms())
    r.fail("CVR tracker PM count mismatch");
  tracker_.import_state(ts);
  meter_.restore_joules(r.f64());

  for (const auto field : kStatCounts) stats_.*field = r.varint();
  for (const auto field : kStatReals) stats_.*field = r.f64();
  if (arrivals != stats_.admissions + stats_.rejections)
    r.fail("arrival count does not match admissions plus rejections");
  if (stats_.vms_hosted != fleet_.live_count())
    r.fail("hosted tenant count mismatch");

  const bool has_slo = r.boolean();
  if (has_slo != (config_.slo != nullptr))
    r.fail("SLO tracker presence mismatch");
  if (has_slo) config_.slo->import_state(decode_slo_tracker(r));
  r.expect_done();
}

}  // namespace burstq

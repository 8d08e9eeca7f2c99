#include "core/durable_controller.h"

#include <utility>

#include "common/error.h"
#include "durable/state_codec.h"
#include "obs/obs.h"
#include "sim/state_codecs.h"

namespace burstq {

using durable::CorruptState;
using durable::StateReader;
using durable::StateWriter;
using durable::WalRecord;

namespace {

std::string encode_varint(std::size_t v) {
  StateWriter w;
  w.varint(v);
  return w.take();
}

}  // namespace

DurableController::DurableController(
    std::vector<PmSpec> pms, ControllerConfig config, Rng rng,
    const durable::DurabilityConfig& durability)
    : ctrl_(std::move(pms), config, rng), journal_(durability) {}

bool DurableController::has_state() const {
  return !journal_.store().snapshot_slots().empty();
}

void DurableController::commit_op(WalRecord type, std::string payload) {
  if (journal_.checkpoint_due(op_seq_)) {
    journal_.checkpoint(op_seq_, ctrl_.export_state());
    BURSTQ_COUNT("durable.ctrl.snapshots", 1);
  }
  journal_.append(type, std::move(payload));
  journal_.commit(op_seq_, 0);
  ++op_seq_;
  BURSTQ_COUNT("durable.ctrl.ops", 1);
}

std::optional<TenantId> DurableController::admit(const VmSpec& vm) {
  vm.validate();  // before journaling: a bad spec must not enter the log
  StateWriter w;
  encode_vm_spec(w, vm);
  commit_op(WalRecord::kOpAdmit, w.take());
  return ctrl_.admit(vm);
}

void DurableController::depart(TenantId id) {
  BURSTQ_REQUIRE(ctrl_.tenant_live(id),
                 "depart on an invalid or dead tenant");
  commit_op(WalRecord::kOpDepart, encode_varint(id.slot));
  ctrl_.depart(id);
}

bool DurableController::resize(TenantId id, const VmSpec& new_spec) {
  BURSTQ_REQUIRE(ctrl_.tenant_live(id),
                 "resize on an invalid or dead tenant");
  new_spec.validate();
  StateWriter w;
  w.varint(id.slot);
  encode_vm_spec(w, new_spec);
  commit_op(WalRecord::kOpResize, w.take());
  return ctrl_.resize(id, new_spec);
}

void DurableController::tick() {
  commit_op(WalRecord::kOpTick, std::string());
  ctrl_.tick();
}

void DurableController::inject_pm_crash(PmId pm) {
  BURSTQ_REQUIRE(pm.valid() && pm.value < ctrl_.n_pms(),
                 "inject_pm_crash on an out-of-range PM");
  commit_op(WalRecord::kOpCrash, encode_varint(pm.value));
  ctrl_.inject_pm_crash(pm);
}

void DurableController::inject_pm_recover(PmId pm) {
  BURSTQ_REQUIRE(pm.valid() && pm.value < ctrl_.n_pms(),
                 "inject_pm_recover on an out-of-range PM");
  commit_op(WalRecord::kOpRecover, encode_varint(pm.value));
  ctrl_.inject_pm_recover(pm);
}

void DurableController::replay_op(WalRecord type,
                                  const std::string& payload) {
  StateReader r(payload, "controller wal record");
  switch (type) {
    case WalRecord::kOpAdmit:
      (void)admit(decode_vm_spec(r));
      return;
    case WalRecord::kOpDepart:
      depart(TenantId{static_cast<std::size_t>(r.varint())});
      return;
    case WalRecord::kOpResize: {
      const TenantId id{static_cast<std::size_t>(r.varint())};
      (void)resize(id, decode_vm_spec(r));
      return;
    }
    case WalRecord::kOpTick:
      tick();
      return;
    case WalRecord::kOpCrash:
      inject_pm_crash(PmId{static_cast<std::size_t>(r.varint())});
      return;
    case WalRecord::kOpRecover:
      inject_pm_recover(PmId{static_cast<std::size_t>(r.varint())});
      return;
    default:
      throw CorruptState("controller WAL carries a non-op record (type " +
                         std::to_string(static_cast<int>(type)) + ")");
  }
}

DurableController::RecoverInfo DurableController::recover() {
  BURSTQ_REQUIRE(!journal_.started(),
                 "recover() must run before any op on a fresh controller");
  auto point = durable::recovery_point(journal_.store());
  if (!point)
    throw CorruptState("no snapshot to recover from in " +
                       journal_.store().dir());
  ctrl_.import_state(point->snapshot.blob);
  const std::size_t snapshot_op = point->snapshot.slot;
  op_seq_ = snapshot_op;

  // Re-apply the suffix through the public methods: each op re-journals
  // and the journal byte-verifies it against the pre-crash group, so the
  // WAL stays complete for a repeated crash mid-replay.
  journal_.resume(std::move(*point));
  const std::vector<durable::WalGroup>& suffix = journal_.replay_groups();
  for (const durable::WalGroup& g : suffix) {
    if (g.records.size() != 1)
      throw CorruptState("controller WAL group at op " +
                         std::to_string(g.slot) +
                         " does not hold exactly one op record");
    replay_op(g.records.front().first, g.records.front().second);
  }

  BURSTQ_COUNT("durable.ctrl.restores", 1);
  BURSTQ_COUNT("durable.ctrl.replayed_ops", suffix.size());
  return RecoverInfo{snapshot_op, suffix.size()};
}

}  // namespace burstq

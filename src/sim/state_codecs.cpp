#include "sim/state_codecs.h"

namespace burstq {

void encode_cvr_tracker(durable::StateWriter& w, const CvrTrackerState& s) {
  w.varint(s.pms.size());
  for (const auto& pm : s.pms) {
    w.varint(pm.observed);
    w.varint(pm.violated);
    w.u8_vec(pm.window);
  }
}

CvrTrackerState decode_cvr_tracker(durable::StateReader& r) {
  CvrTrackerState s;
  s.pms.resize(r.count());
  for (auto& pm : s.pms) {
    pm.observed = r.varint();
    pm.violated = r.varint();
    pm.window = r.u8_vec();
  }
  return s;
}

void encode_slo_tracker(durable::StateWriter& w,
                        const obs::SloTrackerState& s) {
  w.varint(s.pms.size());
  for (const auto& pm : s.pms) {
    w.varint(pm.observed);
    w.varint(pm.violated);
    w.u8_vec(pm.ring);
    w.varint(pm.ring_observed);
    w.varint(pm.ring_violated);
  }
  w.u8_vec(s.cur);
  w.varint(s.cluster_ring.size());
  for (const auto& [o, v] : s.cluster_ring) {
    w.u32(o);
    w.u32(v);
  }
  w.varint(s.slots);
  w.varint(s.fast_obs);
  w.varint(s.fast_viol);
  w.varint(s.slow_obs);
  w.varint(s.slow_viol);
  w.varint(s.cum_obs);
  w.varint(s.cum_viol);
  w.varint(s.breaches);
  w.boolean(s.breaching);
}

obs::SloTrackerState decode_slo_tracker(durable::StateReader& r) {
  obs::SloTrackerState s;
  s.pms.resize(r.count());
  for (auto& pm : s.pms) {
    pm.observed = r.varint();
    pm.violated = r.varint();
    pm.ring = r.u8_vec();
    pm.ring_observed = r.varint();
    pm.ring_violated = r.varint();
  }
  s.cur = r.u8_vec();
  s.cluster_ring.resize(r.count(8));
  for (auto& [o, v] : s.cluster_ring) {
    o = r.u32();
    v = r.u32();
  }
  s.slots = r.varint();
  s.fast_obs = r.varint();
  s.fast_viol = r.varint();
  s.slow_obs = r.varint();
  s.slow_viol = r.varint();
  s.cum_obs = r.varint();
  s.cum_viol = r.varint();
  s.breaches = r.varint();
  s.breaching = r.boolean();
  return s;
}

void encode_vm_spec(durable::StateWriter& w, const VmSpec& vm) {
  w.f64(vm.onoff.p_on);
  w.f64(vm.onoff.p_off);
  w.f64(vm.rb);
  w.f64(vm.re);
}

VmSpec decode_vm_spec(durable::StateReader& r) {
  VmSpec vm;
  vm.onoff.p_on = r.f64();
  vm.onoff.p_off = r.f64();
  vm.rb = r.f64();
  vm.re = r.f64();
  return vm;
}

namespace {

// On-disk codes, independent of EventFormat's order.
constexpr std::uint8_t kTraceCodeJsonl = 0;
constexpr std::uint8_t kTraceCodeBtrc = 2;

}  // namespace

void encode_trace_checkpoint(durable::StateWriter& w,
                             const obs::EventLog::Checkpoint& cp) {
  w.boolean(cp.valid);
  if (!cp.valid) return;
  w.u8(cp.format == obs::EventFormat::kBinary ? kTraceCodeBtrc
                                              : kTraceCodeJsonl);
  w.str(cp.path);
  w.varint(cp.bytes);
  w.varint(cp.events);
  w.varint(cp.blocks);
  w.varint(0);
}

obs::EventLog::Checkpoint decode_trace_checkpoint(durable::StateReader& r) {
  obs::EventLog::Checkpoint cp;
  cp.valid = r.boolean();
  if (!cp.valid) return cp;
  const std::uint8_t code = r.u8();
  if (code == kTraceCodeJsonl) {
    cp.format = obs::EventFormat::kJsonl;
  } else if (code == kTraceCodeBtrc) {
    cp.format = obs::EventFormat::kBinary;
  } else {
    r.fail("trace checkpoint format code is neither JSONL (0) nor BTRC (2)");
  }
  cp.path = r.str();
  cp.bytes = r.varint();
  cp.events = r.varint();
  cp.blocks = r.varint();
  if (r.varint() != 0) r.fail("trace checkpoint: nonzero CSV row id");
  return cp;
}

}  // namespace burstq

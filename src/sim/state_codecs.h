// Durable encodings of the state components that both crash-durable
// state owners persist: the simulator's snapshots (sim/cluster_sim.h)
// and the controller's snapshots and op records
// (core/durable_controller.h).
// One encoder and one decoder per component.  The bytes are part of the
// snapshot and WAL formats (docs/RESILIENCE.md): changing them is a
// format change.

#pragma once

#include "durable/state_codec.h"
#include "obs/slo.h"
#include "placement/spec.h"
#include "sim/metrics.h"

namespace burstq {

void encode_cvr_tracker(durable::StateWriter& w, const CvrTrackerState& s);
[[nodiscard]] CvrTrackerState decode_cvr_tracker(durable::StateReader& r);

void encode_slo_tracker(durable::StateWriter& w,
                        const obs::SloTrackerState& s);
[[nodiscard]] obs::SloTrackerState decode_slo_tracker(
    durable::StateReader& r);

/// p_on, p_off, R_b, R_e as four IEEE-754 doubles.
void encode_vm_spec(durable::StateWriter& w, const VmSpec& vm);
[[nodiscard]] VmSpec decode_vm_spec(durable::StateReader& r);

}  // namespace burstq

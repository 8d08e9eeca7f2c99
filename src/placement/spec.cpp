#include "placement/spec.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace burstq {

void VmSpec::validate() const {
  onoff.validate();
  BURSTQ_REQUIRE(rb >= 0.0, "VM normal demand Rb must be non-negative");
  // Re sizes the reservation block and picks the VM's Re cluster, so it
  // must be finite; an infinite Rb is legal (it simply never fits).
  BURSTQ_REQUIRE(re >= 0.0 && std::isfinite(re),
                 "VM spike size Re must be finite and non-negative");
}

void PmSpec::validate() const {
  BURSTQ_REQUIRE(capacity > 0.0, "PM capacity must be positive");
}

void ProblemInstance::validate() const {
  BURSTQ_REQUIRE(!vms.empty(), "instance has no VMs");
  BURSTQ_REQUIRE(!pms.empty(), "instance has no PMs");
  for (const auto& v : vms) v.validate();
  for (const auto& p : pms) p.validate();
}

Resource ProblemInstance::max_re() const {
  Resource m = 0.0;
  for (const auto& v : vms) m = std::max(m, v.re);
  return m;
}

ProblemInstance random_instance(std::size_t n_vms, std::size_t n_pms,
                                const OnOffParams& params,
                                const InstanceRanges& ranges, Rng& rng) {
  BURSTQ_REQUIRE(n_vms > 0 && n_pms > 0, "instance must be non-empty");
  params.validate();
  BURSTQ_REQUIRE(ranges.rb_lo <= ranges.rb_hi && ranges.rb_lo >= 0.0,
                 "invalid Rb range");
  BURSTQ_REQUIRE(ranges.re_lo <= ranges.re_hi && ranges.re_lo >= 0.0,
                 "invalid Re range");
  BURSTQ_REQUIRE(
      ranges.capacity_lo <= ranges.capacity_hi && ranges.capacity_lo > 0.0,
      "invalid capacity range");

  ProblemInstance inst;
  inst.vms.reserve(n_vms);
  for (std::size_t i = 0; i < n_vms; ++i) {
    VmSpec v;
    v.onoff = params;
    v.rb = rng.uniform(ranges.rb_lo, ranges.rb_hi);
    v.re = rng.uniform(ranges.re_lo, ranges.re_hi);
    inst.vms.push_back(v);
  }
  inst.pms.reserve(n_pms);
  for (std::size_t j = 0; j < n_pms; ++j)
    inst.pms.push_back(
        PmSpec{rng.uniform(ranges.capacity_lo, ranges.capacity_hi)});
  return inst;
}

}  // namespace burstq

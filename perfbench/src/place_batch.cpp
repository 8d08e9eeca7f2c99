// place-batch: Algorithm 2 (queuing_ffd) on 10^6 Figure 5 Rb=Re VMs over
// a right-sized fleet of 2x10^5 PMs, one closed-loop call after another,
// each with a cold MapCal cache.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/scenario.h"
#include "harness.h"
#include "placement/cluster.h"
#include "placement/incremental.h"
#include "placement/queuing_ffd.h"
#include "queuing/mapcal.h"

namespace perfbench {

using namespace burstq;

namespace {

constexpr std::size_t kVms = 1'000'000;
constexpr std::size_t kPms = 200'000;

QueuingFfdOptions ffd_options() {
  QueuingFfdOptions opts;  // rho = 0.01, d = 16: the paper's setting
  opts.rho = 0.01;
  opts.max_vms_per_pm = 16;
  return opts;
}

ProblemInstance make_instance(std::uint64_t seed) {
  Rng rng(seed);
  return pattern_instance(SpikePattern::kEqual, kVms, kPms,
                          paper_onoff_params(), rng);
}

// Verifies a result against the walk-based reference aggregates, not the
// placement's cached ones: every VM sits on exactly one PM, and every
// used PM satisfies Eq. 17 and the per-PM cap d.
void verify(Result& r, const ProblemInstance& inst,
            const QueuingFfdOutcome& out) {
  const Placement& p = out.result.placement;
  const MapCalTable& table = out.table;
  std::vector<std::uint8_t> seen(inst.n_vms(), 0);
  std::size_t listed = 0;
  bool once = true;
  bool eq17 = true;
  for (std::size_t j = 0; j < inst.n_pms(); ++j) {
    const PmId pm{j};
    const auto& vms = p.vms_on(pm);
    for (std::size_t vi : vms) {
      once = once && p.pm_of(VmId{vi}) == pm && seen[vi] == 0;
      seen[vi] = 1;
      ++listed;
    }
    const std::size_t k = vms.size();
    if (k == 0) continue;
    if (k > table.max_vms_per_pm()) {
      eq17 = false;
      continue;
    }
    const Resource footprint =
        max_re_on_walk(inst, p, pm) * static_cast<double>(table.blocks(k)) +
        total_rb_on_walk(inst, p, pm);
    eq17 = eq17 &&
           footprint <= inst.pms[j].capacity * (1.0 + kCapacityEpsilon);
  }
  r.check(once && listed == inst.n_vms(),
          "place-batch: every VM is placed on exactly one PM");
  r.check(eq17, "place-batch: every PM satisfies Eq. 17 (walk-based)");
  // Workload-shape guards: the fleet is right-sized, not saturated.
  r.check(out.result.unplaced.empty(), "place-batch: placement.unplaced == 0");
  r.check(static_cast<double>(out.result.pms_used()) <=
              0.95 * static_cast<double>(inst.n_pms()),
          "place-batch: pms_used <= 0.95 m");
}

// Mean analytic Eq. 16 CVR bound over the used PMs.
double analytic_cvr_mean(const QueuingFfdOutcome& out) {
  const Placement& p = out.result.placement;
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t j = 0; j < p.n_pms(); ++j) {
    const std::size_t k = p.count_on(PmId{j});
    if (k == 0) continue;
    sum += out.table.cvr_bound(k);
    ++used;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

QueuingFfdOutcome timed_call(RunContext& ctx, const ProblemInstance& inst,
                             double& seconds) {
  Span span(ctx.spans, "placement.queuing_ffd");
  mapcal_table_cache_clear();
  const double t0 = now_s();
  QueuingFfdOutcome out = queuing_ffd(inst, ffd_options());
  seconds = now_s() - t0;
  return out;
}

void trace_layers(RunContext& ctx, Result& r, const ProblemInstance& inst,
                  const Samples& untraced_calls) {
  add_algorithm2_layers(r, inst);

  // One traced call: library event sink + span events on, registry
  // zeroed so its counters are this call's deltas.
  obs::metrics().reset();
  open_trace_sink(ctx);
  double traced = 0.0;
  const QueuingFfdOutcome out = timed_call(ctx, inst, traced);
  close_trace_sink(ctx);
  const RegistryView reg = scrape_registry();
  verify(r, inst, out);
  r.ops(1);
  r.add("queuing.table_builds", "count", reg.counter("mapcal.table.builds"));
  r.add("queuing.cache_hits", "count", reg.counter("mapcal.table.cache_hits"));
  r.add("queuing.stationary_solves", "count",
        reg.counter("linalg.stationary.solves"));
  r.add("obs.tracing_overhead", "ratio",
        traced / untraced_calls.median() - 1.0);
  add_obs_layer(r, reg);
}

}  // namespace

void add_algorithm2_layers(Result& r, const ProblemInstance& inst) {
  const QueuingFfdOptions opts = ffd_options();
  const OnOffParams params = round_uniform_params(inst.vms, opts.rounding);

  r.add("queuing.table_build_s", "s", median_seconds(3, [&] {
          mapcal_table_cache_clear();
          const MapCalTable table(opts.max_vms_per_pm, params, opts.rho);
        }));
  std::vector<std::size_t> order;
  r.add("placement.order_s", "s", median_seconds(3, [&] {
          order = queuing_ffd_order(inst.vms, opts.cluster_buckets);
        }));
  const MapCalTable table(opts.max_vms_per_pm, params, opts.rho);
  IncrementalStats stats;
  std::size_t placed = 0;
  std::size_t unplaced = 0;
  r.add("placement.first_fit_s", "s", median_seconds(3, [&] {
          stats = IncrementalStats{};
          const PlacementResult res =
              first_fit_place_reservation(inst, order, table, &stats);
          placed = res.placement.vms_assigned();
          unplaced = res.unplaced.size();
        }));
  r.add("placement.tree_descents", "count",
        static_cast<double>(stats.tree_descents));
  r.add("placement.fit_checks", "count",
        static_cast<double>(stats.exact_checks));
  r.add("placement.placed_per_check", "ratio",
        static_cast<double>(placed) /
            static_cast<double>(std::max<std::size_t>(1, stats.exact_checks)));
  r.add("placement.unplaced", "count", static_cast<double>(unplaced));
}

void run_place_batch(RunContext& ctx, Result& r) {
  ProblemInstance inst;
  const double setup = median_seconds(5, [&] {
    inst = make_instance(ctx.seed);
  }, kSetupSeconds);
  const QueuingFfdOptions opts = ffd_options();
  check_mapcal_reference(r, opts.max_vms_per_pm,
                         round_uniform_params(inst.vms, opts.rounding),
                         opts.rho);

  // Closed loop: one call after another until the time is up (at least
  // three, so a repeat can be compared with the first).
  Samples calls;
  std::vector<PmId> first;
  std::size_t pms_used = 0;
  double cvr_mean = 0.0;
  const std::size_t min_calls = ctx.trace ? 2 : 3;
  const double start = now_s();
  while (calls.size() < min_calls ||
         (!ctx.trace && now_s() - start < ctx.seconds)) {
    double secs = 0.0;
    const QueuingFfdOutcome out = timed_call(ctx, inst, secs);
    calls.add(secs);
    r.ops(1);
    verify(r, inst, out);
    std::vector<PmId> assignment(inst.n_vms());
    for (std::size_t i = 0; i < inst.n_vms(); ++i)
      assignment[i] = out.result.placement.pm_of(VmId{i});
    if (first.empty()) {
      first = std::move(assignment);
      pms_used = out.result.pms_used();
      cvr_mean = analytic_cvr_mean(out);
    } else {
      r.check(assignment == first,
              "place-batch: a repeated call returns the same placement");
    }
  }

  if (ctx.trace) {
    trace_layers(ctx, r, inst, calls);
    return;
  }
  r.add("setup_s", "s", setup);
  r.add_timing("op_p50_ms", "ms", calls, 0.5, 1e3);
  r.add_timing("op_p99_ms", "ms", calls, 0.99, 1e3);
  r.add("ns_per_item", "ns",
        calls.median() * 1e9 / static_cast<double>(inst.n_vms()));
  r.add("pms_used", "PMs", static_cast<double>(pms_used));
  r.add("cvr_mean", "ratio", cvr_mean);
}

}  // namespace perfbench

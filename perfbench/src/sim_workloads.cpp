// sim-steady and sim-storm: ClusterSimulator on 2x10^4 Figure 5 Rb=Re VMs
// with the default migration policy, an SloTracker (10/120) and
// durability on (snapshot every 25 slots, no fsync, a fresh directory per
// run).  They differ only in the initial placement: Algorithm 2
// (queuing_ffd) leaves the burst headroom the paper reserves, so the slot
// loop is quiet; FFD by Rb (ffd_by_normal) packs tight, so the scheduler,
// target search and migration journal records dominate.
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "common/rng.h"
#include "core/scenario.h"
#include "durable/durable.h"
#include "harness.h"
#include "obs/slo.h"
#include "placement/baselines.h"
#include "placement/queuing_ffd.h"
#include "queuing/mapcal.h"
#include "sim/cluster_sim.h"
#include "sim/workload_gen.h"

namespace perfbench {

using namespace burstq;

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kVms = 20'000;
constexpr std::size_t kPms = 5'000;
constexpr std::size_t kSlots = 500;
constexpr std::size_t kSnapshotEvery = 25;
constexpr double kRho = 0.01;

enum class Initial { kQueuingFfd, kFfdByNormal };

struct Knobs {
  bool durable{true};
  bool slo{true};
};

struct SimRun {
  SimReport report;
  Samples slots;             ///< every slot's host time, s
  Samples plain_slots;       ///< slots without a checkpoint
  Samples checkpoint_slots;  ///< slots with t % 25 == 0
  double ctor_s{0.0};
  double run_s{0.0};
  std::uint64_t disk_bytes{0};  ///< durable state dir size at the end
};

Placement initial_placement(const ProblemInstance& inst, Initial kind) {
  if (kind == Initial::kFfdByNormal) return ffd_by_normal(inst).placement;
  mapcal_table_cache_clear();
  return queuing_ffd(inst).result.placement;
}

// One simulation from fresh state: cold MapCal cache, new SLO tracker,
// new empty durability directory.
SimRun simulate(RunContext& ctx, const ProblemInstance& inst,
                const Placement& initial, Knobs knobs, std::size_t rep) {
  Span span(ctx.spans, "sim.ClusterSimulator");
  mapcal_table_cache_clear();
  const std::string dir = (fs::path(ctx.out_dir) / "state" /
                           (ctx.workload + "-" + std::to_string(rep)))
                              .string();
  fs::remove_all(dir);

  obs::SloOptions slo_opts;
  slo_opts.rho = kRho;
  slo_opts.fast_window = 10;
  slo_opts.slow_window = 120;
  obs::SloTracker slo(inst.n_pms(), slo_opts);

  SimRun out;
  SimConfig cfg;
  cfg.slots = kSlots;
  cfg.policy.rho = kRho;
  if (knobs.slo) cfg.slo = &slo;
  if (knobs.durable)
    cfg.durability = durable::DurabilityConfig{dir, kSnapshotEvery, false};
  double prev = 0.0;
  cfg.on_slot = [&](const SlotObservation& o) {
    const double now = now_s();
    out.slots.add(now - prev);
    (o.t % kSnapshotEvery == 0 ? out.checkpoint_slots : out.plain_slots)
        .add(now - prev);
    prev = now;
  };

  const double t0 = now_s();
  std::optional<ClusterSimulator> sim;
  {
    Span ctor(ctx.spans, "sim.ClusterSimulator.ctor");
    sim.emplace(inst, initial, cfg, Rng(ctx.seed ^ 0x51a7e5eedULL));
  }
  const double t1 = now_s();
  prev = t1;
  {
    Span run(ctx.spans, "sim.ClusterSimulator.run");
    out.report = sim->run();
  }
  out.run_s = now_s() - t1;
  out.ctor_s = t1 - t0;
  out.disk_bytes = dir_bytes(dir);
  fs::remove_all(dir);
  return out;
}

bool same_report(const SimReport& a, const SimReport& b) {
  const auto same_events = [&] {
    if (a.events.size() != b.events.size()) return false;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      const auto& x = a.events[i];
      const auto& y = b.events[i];
      if (x.slot != y.slot || !(x.vm == y.vm) || !(x.from == y.from) ||
          !(x.to == y.to))
        return false;
    }
    return true;
  };
  const FaultReport& f = a.faults;
  const FaultReport& g = b.faults;
  return a.total_migrations == b.total_migrations &&
         a.failed_migrations == b.failed_migrations &&
         a.pms_used_end == b.pms_used_end && a.pms_used_max == b.pms_used_max &&
         a.pms_used_timeline == b.pms_used_timeline &&
         a.migrations_per_slot == b.migrations_per_slot && same_events() &&
         a.pm_cvr == b.pm_cvr &&
         a.pm_windowed_cvr_end == b.pm_windowed_cvr_end &&
         a.mean_cvr == b.mean_cvr && a.max_cvr == b.max_cvr &&
         a.energy_wh == b.energy_wh && f.pm_crashes == g.pm_crashes &&
         f.pm_recoveries == g.pm_recoveries && f.evacuated == g.evacuated &&
         f.enqueued == g.enqueued && f.queue_end == g.queue_end &&
         f.retries == g.retries && f.migration_aborts == g.migration_aborts &&
         f.migration_stalls == g.migration_stalls &&
         f.solver_degraded == g.solver_degraded && f.lost_vms == g.lost_vms;
}

double mean_pms_used(const SimReport& report) {
  double sum = 0.0;
  for (std::size_t v : report.pms_used_timeline) sum += static_cast<double>(v);
  return sum / static_cast<double>(report.pms_used_timeline.size());
}

void check_run(Result& r, const RunContext& ctx, const SimRun& run,
               const std::optional<SimReport>& first) {
  r.ops(kSlots);
  r.check(run.report.faults.lost_vms == 0,
          ctx.workload + ": FaultReport::lost_vms == 0");
  if (first)
    r.check(same_report(run.report, *first),
            ctx.workload + ": a same-seed repeat returns the same SimReport");
}

void trace_layers(RunContext& ctx, Result& r, const ProblemInstance& inst,
                  const Placement& initial, Initial kind) {
  if (kind == Initial::kQueuingFfd) add_algorithm2_layers(r, inst);
  if (kind == Initial::kFfdByNormal)
    r.add("placement.baseline_ffd_s", "s", median_seconds(3, [&] {
            (void)ffd_by_normal(inst);
          }));
  {
    WorkloadEnsemble ensemble(inst, Rng(ctx.seed));
    constexpr std::size_t kSteps = 200;
    const double t0 = now_s();
    for (std::size_t i = 0; i < kSteps; ++i) ensemble.step();
    r.add("markov.step_ns_per_vm", "ns",
          (now_s() - t0) * 1e9 / static_cast<double>(kSteps * kVms));
  }

  // The full run untraced, then the two knock-outs, then the full run
  // traced; none of them may change the report.
  const SimRun base = simulate(ctx, inst, initial, Knobs{}, 0);
  check_run(r, ctx, base, std::nullopt);
  const SimRun no_durable =
      simulate(ctx, inst, initial, Knobs{false, true}, 1);
  check_run(r, ctx, no_durable, base.report);
  const SimRun no_slo = simulate(ctx, inst, initial, Knobs{true, false}, 2);
  check_run(r, ctx, no_slo, base.report);
  obs::metrics().reset();
  open_trace_sink(ctx);
  const SimRun traced = simulate(ctx, inst, initial, Knobs{}, 3);
  close_trace_sink(ctx);
  const RegistryView reg = scrape_registry();
  check_run(r, ctx, traced, base.report);

  r.add("sim.slot_p50_ms", "ms", base.plain_slots.median() * 1e3);
  r.add("sim.checkpoint_slot_p50_ms", "ms",
        base.checkpoint_slots.median() * 1e3);
  r.add("sim.ctor_s", "s", base.ctor_s);
  r.add("sim.target_searches", "count", reg.counter("sim.target_searches"));
  r.add("sim.victim_selections", "count",
        reg.counter("sim.victim_selections"));
  r.add("sim.slot_violations", "count", reg.counter("sim.slot_violations"));
  r.add("sim.migrations", "count",
        static_cast<double>(base.report.total_migrations));
  r.add("sim.migrations_failed", "count",
        static_cast<double>(base.report.failed_migrations));
  r.add("durable.snapshot_writes", "count",
        reg.counter("durable.snapshot.writes"));
  r.add("durable.wal_commits", "count", reg.counter("durable.wal.commits"));
  r.add("durable.snapshot_bytes", "B", reg.gauge("durable.snapshot.bytes"));
  r.add("durable.disk_bytes", "B", static_cast<double>(base.disk_bytes));
  r.add("durable.share", "ratio", 1.0 - no_durable.run_s / base.run_s);
  r.add("obs.slo_share", "ratio", 1.0 - no_slo.run_s / base.run_s);
  r.add("obs.tracing_overhead", "ratio", traced.run_s / base.run_s - 1.0);
  r.add("queuing.table_builds", "count", reg.counter("mapcal.table.builds"));
  r.add("queuing.cache_hits", "count", reg.counter("mapcal.table.cache_hits"));
  r.add("queuing.stationary_solves", "count",
        reg.counter("linalg.stationary.solves"));
  add_obs_layer(r, reg);
}

// Workload-shape guard: the tight packing must migrate at least 3x as
// often as the paper's placement of the same instance over as many slots.
void check_storm_shape(RunContext& ctx, Result& r,
                       const ProblemInstance& inst,
                       const SimReport& storm) {
  const Placement reference = initial_placement(inst, Initial::kQueuingFfd);
  const SimRun steady =
      simulate(ctx, inst, reference, Knobs{false, false}, 99);
  r.check(storm.total_migrations >= 3 * steady.report.total_migrations,
          "sim-storm: migrations (" + std::to_string(storm.total_migrations) +
              ") >= 3x sim-steady's (" +
              std::to_string(steady.report.total_migrations) + ")");
}

void run_sim(RunContext& ctx, Result& r, Initial kind) {
  ProblemInstance inst;
  std::optional<Placement> initial;
  const double setup = median_seconds(5, [&] {
    initial.reset();
    Rng rng(ctx.seed);
    inst = pattern_instance(SpikePattern::kEqual, kVms, kPms,
                            paper_onoff_params(), rng);
    initial.emplace(initial_placement(inst, kind));
  }, kSetupSeconds);
  check_mapcal_reference(r, 16, round_uniform_params(inst.vms), kRho);

  if (ctx.trace) {
    trace_layers(ctx, r, inst, *initial, kind);
    return;
  }

  // Closed loop: whole simulations from fresh state, one after another,
  // until the time is up (at least two, so a repeat can be compared).
  std::optional<SimReport> first;
  Samples slots;
  Samples ns_per_vm_slot;
  std::size_t rep = 0;
  const double start = now_s();
  while (rep < 2 || now_s() - start < ctx.seconds) {
    const SimRun run = simulate(ctx, inst, *initial, Knobs{}, rep++);
    check_run(r, ctx, run, first);
    slots.append(run.slots);
    ns_per_vm_slot.add((run.ctor_s + run.run_s) * 1e9 /
                       static_cast<double>(kVms * kSlots));
    if (!first) first = run.report;
  }
  if (kind == Initial::kFfdByNormal) check_storm_shape(ctx, r, inst, *first);

  r.add("setup_s", "s", setup);
  r.add_timing("op_p50_ms", "ms", slots, 0.5, 1e3);
  r.add_timing("op_p99_ms", "ms", slots, 0.99, 1e3);
  r.add("ns_per_item", "ns", ns_per_vm_slot.median());
  r.add("pms_used", "PMs", mean_pms_used(*first));
  r.add("cvr_mean", "ratio", first->mean_cvr);
}

}  // namespace

void run_sim_steady(RunContext& ctx, Result& r) {
  run_sim(ctx, r, Initial::kQueuingFfd);
}

void run_sim_storm(RunContext& ctx, Result& r) {
  run_sim(ctx, r, Initial::kFfdByNormal);
}

}  // namespace perfbench

// ctrl-churn: a day of CloudController operation with the traffic shape of
// examples/autopilot.cpp scaled to a 4000-PM fleet: diurnal arrivals
// peaking at 400 per slot, per-tenant heterogeneous ON/OFF drawn from
// autopilot's ranges (so maintenance recalibrates MapCal), exponential
// lifetimes with a mean of 60 slots, maintenance every 360 slots with a
// budget of 25, an SloTracker attached, and one tick() per slot.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "harness.h"
#include "obs/slo.h"
#include "queuing/mapcal.h"

namespace perfbench {

using namespace burstq;

namespace {

constexpr std::size_t kPms = 4000;
constexpr double kCapacity = 90.0;
constexpr std::size_t kSlots = 1440;
constexpr double kSlotsPerHour = 60.0;
constexpr double kPeakArrivals = 400.0;
/// autopilot's night-to-peak arrival ratio (0.05 against 0.6 per slot).
constexpr double kNightShare = 0.05 / 0.6;
constexpr double kMeanLifetime = 60.0;
constexpr double kRho = 0.01;

struct Arrival {
  VmSpec spec;
  std::size_t lifetime{0};
};
using Schedule = std::vector<std::vector<Arrival>>;  ///< arrivals per slot

Schedule make_schedule(std::uint64_t seed) {
  Rng rng(seed);
  Schedule schedule(kSlots);
  for (std::size_t t = 0; t < kSlots; ++t) {
    const double hour = static_cast<double>(t) / kSlotsPerHour;
    const double phase =
        0.5 - 0.5 * std::cos(2.0 * 3.14159265358979 * (hour - 4.0) / 24.0);
    const double rate = kPeakArrivals * (kNightShare + (1.0 - kNightShare) * phase);
    const double whole = std::floor(rate);
    const auto n = static_cast<std::size_t>(whole) +
                   (rng.bernoulli(rate - whole) ? 1U : 0U);
    for (std::size_t i = 0; i < n; ++i) {
      Arrival a;
      a.spec.onoff.p_on = rng.uniform(0.008, 0.02);
      a.spec.onoff.p_off = rng.uniform(0.07, 0.12);
      a.spec.rb = rng.uniform(3, 16);
      a.spec.re = rng.uniform(3, 16);
      a.lifetime =
          static_cast<std::size_t>(std::ceil(rng.exponential(kMeanLifetime)));
      schedule[t].push_back(a);
    }
  }
  return schedule;
}

struct Day {
  ControllerStats stats;
  std::size_t attempts{0};
  Samples admit_s;
  Samples depart_s;
  Samples tick_s;
  Samples maintenance_tick_s;  ///< ticks that opened a maintenance window
  double tenant_slots{0.0};    ///< sum over slots of hosted tenants
  double pms_used_sum{0.0};
  bool invariant{false};
};

ControllerConfig make_config(obs::SloTracker* slo) {
  ControllerConfig cfg;
  cfg.ffd.rho = kRho;
  cfg.ffd.sharded.shards = 1;  // autopilot's default
  cfg.maintenance_every = 360;
  cfg.maintenance_budget = 25;
  cfg.slo = slo;
  return cfg;
}

obs::SloOptions slo_options() {
  obs::SloOptions opts;
  opts.rho = kRho;
  opts.fast_window = 10;
  opts.slow_window = 120;
  return opts;
}

// One day from fresh state (cold MapCal cache, new controller and SLO
// tracker), every public call timed on its own.
Day run_day(RunContext& ctx, const Schedule& schedule, bool with_slo) {
  Span day_span(ctx.spans, "core.day");
  mapcal_table_cache_clear();
  obs::SloTracker slo(kPms, slo_options());
  CloudController cloud(std::vector<PmSpec>(kPms, PmSpec{kCapacity}),
                        make_config(with_slo ? &slo : nullptr),
                        Rng(ctx.seed ^ 0xc0ffeeULL));
  Day day;
  std::vector<std::vector<TenantId>> departing(kSlots);
  // Spans group each slot's admissions and departures: one span per call
  // would put ~6x10^5 records in memory.
  for (std::size_t t = 0; t < kSlots; ++t) {
    Span slot_span(ctx.spans, "core.slot");
    {
      Span span(ctx.spans, "core.admit_batch");
      for (const Arrival& a : schedule[t]) {
        const double t0 = now_s();
        const auto id = cloud.admit(a.spec);
        day.admit_s.add(now_s() - t0);
        ++day.attempts;
        if (id && t + a.lifetime < kSlots)
          departing[t + a.lifetime].push_back(*id);
      }
    }
    {
      Span span(ctx.spans, "core.depart_batch");
      for (const TenantId id : departing[t]) {
        const double t0 = now_s();
        cloud.depart(id);
        day.depart_s.add(now_s() - t0);
      }
    }
    const std::size_t windows = cloud.stats().maintenance_windows;
    {
      Span span(ctx.spans, "core.tick");
      const double t0 = now_s();
      cloud.tick();
      const double dt = now_s() - t0;
      day.tick_s.add(dt);
      if (cloud.stats().maintenance_windows > windows)
        day.maintenance_tick_s.add(dt);
    }
    day.tenant_slots += static_cast<double>(cloud.stats().vms_hosted);
    day.pms_used_sum += static_cast<double>(cloud.stats().pms_used);
  }
  day.invariant = cloud.reservation_invariant_holds();
  day.stats = cloud.stats();
  return day;
}

bool same_stats(const ControllerStats& a, const ControllerStats& b) {
  return a.slots == b.slots && a.vms_hosted == b.vms_hosted &&
         a.pms_used == b.pms_used && a.admissions == b.admissions &&
         a.rejections == b.rejections && a.departures == b.departures &&
         a.runtime_migrations == b.runtime_migrations &&
         a.maintenance_migrations == b.maintenance_migrations &&
         a.failed_migrations == b.failed_migrations &&
         a.maintenance_windows == b.maintenance_windows &&
         a.mean_cvr == b.mean_cvr && a.max_cvr == b.max_cvr &&
         a.energy_wh == b.energy_wh;
}

double reject_ratio(const Day& d) {
  return static_cast<double>(d.stats.rejections) /
         static_cast<double>(d.attempts);
}

void check_day(Result& r, const Day& day, const Day* first) {
  r.ops(day.admit_s.size() + day.depart_s.size() + day.tick_s.size());
  r.check(day.invariant,
          "ctrl-churn: reservation_invariant_holds() after the day");
  const double reject = reject_ratio(day);
  r.check(reject > 0.0 && reject < 0.05,
          "ctrl-churn: reject ratio " + std::to_string(reject) +
              " lies in (0, 0.05)");
  if (first)
    r.check(same_stats(day.stats, first->stats),
            "ctrl-churn: a same-seed repeat returns the same stats");
}

double busy_s(const Day& d) {
  return d.admit_s.sum() + d.depart_s.sum() + d.tick_s.sum();
}

void trace_layers(RunContext& ctx, Result& r, const Schedule& schedule,
                  const Day& base) {
  const OnOffParams mid{0.014, 0.095};  // the middle of autopilot's ranges
  r.add("queuing.table_build_s", "s", median_seconds(3, [&] {
          mapcal_table_cache_clear();
          const MapCalTable table(16, mid, kRho);
        }));

  const Day no_slo = run_day(ctx, schedule, false);
  check_day(r, no_slo, &base);
  obs::metrics().reset();
  open_trace_sink(ctx);
  const Day traced = run_day(ctx, schedule, true);
  close_trace_sink(ctx);
  const RegistryView reg = scrape_registry();
  check_day(r, traced, &base);

  const double busy = busy_s(base);
  r.add_timing("core.admit_p50_us", "us", base.admit_s, 0.5, 1e6);
  r.add_timing("core.admit_p99_us", "us", base.admit_s, 0.99, 1e6);
  r.add_timing("core.admit_p999_us", "us", base.admit_s, 0.999, 1e6);
  r.add_timing("core.depart_p50_us", "us", base.depart_s, 0.5, 1e6);
  r.add_timing("core.depart_p99_us", "us", base.depart_s, 0.99, 1e6);
  r.add("core.tick_ns_per_tenant", "ns",
        base.tick_s.sum() * 1e9 / base.tenant_slots);
  r.add_timing("core.maintenance_tick_ms", "ms", base.maintenance_tick_s, 0.5,
               1e3);
  r.add("core.runtime_migrations", "count",
        static_cast<double>(base.stats.runtime_migrations));
  r.add("core.maintenance_migrations", "count",
        static_cast<double>(base.stats.maintenance_migrations));
  r.add("core.failed_migrations", "count",
        static_cast<double>(base.stats.failed_migrations));
  r.add("core.admit_share", "ratio", base.admit_s.sum() / busy);
  r.add("core.depart_share", "ratio", base.depart_s.sum() / busy);
  r.add("core.tick_share", "ratio", base.tick_s.sum() / busy);
  r.add("core.reject_ratio", "ratio", reject_ratio(base));
  r.add("obs.slo_share", "ratio", 1.0 - busy_s(no_slo) / busy);
  r.add("obs.tracing_overhead", "ratio", busy_s(traced) / busy - 1.0);
  r.add("queuing.table_builds", "count", reg.counter("mapcal.table.builds"));
  r.add("queuing.cache_hits", "count", reg.counter("mapcal.table.cache_hits"));
  r.add("queuing.stationary_solves", "count",
        reg.counter("linalg.stationary.solves"));
  add_obs_layer(r, reg);
}

}  // namespace

void run_ctrl_churn(RunContext& ctx, Result& r) {
  Schedule schedule;
  const double setup = median_seconds(5, [&] {
    schedule = make_schedule(ctx.seed);
    mapcal_table_cache_clear();
    const CloudController cloud(std::vector<PmSpec>(kPms, PmSpec{kCapacity}),
                                make_config(nullptr), Rng(ctx.seed));
  }, kSetupSeconds);
  check_mapcal_reference(r, 16, OnOffParams{0.014, 0.095}, kRho);

  // Closed loop: whole days from fresh state, one after another, until
  // the time is up (at least two, so a repeat can be compared).  Only the
  // first day is kept whole; later ones leave their tick samples and
  // cost, so the benchmark's own memory does not grow with the run.
  const double start = now_s();
  const Day first = run_day(ctx, schedule, true);
  check_day(r, first, nullptr);
  Samples ticks = first.tick_s;
  Samples ns_per_tenant_slot;
  ns_per_tenant_slot.add(busy_s(first) * 1e9 / first.tenant_slots);
  for (std::size_t days = 1;
       days < 2 || (!ctx.trace && now_s() - start < ctx.seconds); ++days) {
    const Day day = run_day(ctx, schedule, true);
    check_day(r, day, &first);
    ticks.append(day.tick_s);
    ns_per_tenant_slot.add(busy_s(day) * 1e9 / day.tenant_slots);
  }

  if (ctx.trace) {
    trace_layers(ctx, r, schedule, first);
    return;
  }
  r.add("setup_s", "s", setup);
  r.add_timing("op_p50_ms", "ms", ticks, 0.5, 1e3);
  r.add_timing("op_p99_ms", "ms", ticks, 0.99, 1e3);
  r.add("ns_per_item", "ns", ns_per_tenant_slot.median());
  r.add("pms_used", "PMs",
        first.pms_used_sum / static_cast<double>(kSlots));
  r.add("cvr_mean", "ratio", first.stats.mean_cvr);
}

}  // namespace perfbench

// Autopilot — a full day of closed-loop operation with CloudController:
// Eq. 17-gated admission, the dynamic scheduler reacting to CVR
// breaches, and nightly budget-bounded maintenance consolidation.
//
// Arrival intensity follows a diurnal curve (quiet night, busy day),
// tenants stay for a random lifetime, and the controller prints an
// hourly ops dashboard.
//
// Chaos knobs: --fault-plan runs a scripted schedule of PM crashes,
// recoveries, and solver outages against the controller (mig-abort and
// mig-stall items are rejected — the controller has no in-flight copy
// model); --fault-p-crash/--fault-p-recover add Markov-drawn PM churn
// from --fault-seed.  Crashed PMs evacuate through Eq. (17); tenants
// that fit nowhere queue and drain with exponential backoff.

#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/controller.h"
#include "fault/injector.h"
#include "obs/exporter.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/summary.h"

int main(int argc, char** argv) {
  using namespace burstq;

  ArgParser args("autopilot", "24h closed-loop operation demo");
  args.add_option("obs-out",
                  "record a structured event log here (.jsonl, or .btrc "
                  "for binary columnar)");
  args.add_option("obs-level", "event level: off | decisions | detail",
                  "decisions");
  args.add_flag("obs-summary", "print a metrics digest on exit");
  args.add_option("fault-plan",
                  "scripted faults, e.g. "
                  "\"crash@600:pm=3;solver@700:slots=100;recover@900:pm=3\"");
  args.add_option("fault-p-crash", "per up-PM per-slot crash probability");
  args.add_option("fault-p-recover",
                  "per down-PM per-slot recovery probability");
  args.add_option("fault-seed", "seed for the Markov fault draws", "1");
  args.add_option("hours", "hours of operation to simulate", "24");
  args.add_option("pace-ms",
                  "sleep this many ms per slot (lets a scraper watch a "
                  "run in flight; 0 = full speed)",
                  "0");
  args.add_option("threads",
                  "worker threads for parallel stages "
                  "(0 = BURSTQ_THREADS or hardware)",
                  "0");
  obs::add_telemetry_options(args);
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage();
    return 2;
  }
  if (const auto t = static_cast<std::size_t>(args.get_int("threads")))
    set_thread_count_override(t);
  if (args.has("obs-out")) {
    const std::string path = args.get("obs-out");
    try {
      obs::events().open(path, obs::event_format_from_path(path),
                         obs::parse_event_level(args.get("obs-level")));
    } catch (const InvalidArgument& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    obs::events().set_run_label("autopilot");
  }

  const auto hours = static_cast<std::size_t>(args.get_int("hours"));
  const auto pace_ms = static_cast<std::size_t>(args.get_int("pace-ms"));
  if (hours == 0) {
    std::cerr << "error: --hours must be > 0\n";
    return 2;
  }

  ControllerConfig cfg;
  cfg.maintenance_every = 360;  // every 3 hours of 30s slots
  cfg.maintenance_budget = 25;
  const std::size_t n_pms = 120;

  // SLO watch: fast = 5 min of 30 s slots, slow = 1 h, against the
  // admission rule's own rho budget.
  obs::SloOptions slo_opts;
  slo_opts.rho = cfg.ffd.rho;
  slo_opts.fast_window = 10;
  slo_opts.slow_window = 120;
  obs::SloTracker slo(n_pms, slo_opts);
  cfg.slo = &slo;

  std::unique_ptr<obs::TelemetryExporter> telemetry;
  try {
    telemetry = obs::start_telemetry_from_args(args, &slo);
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (telemetry)
    std::cerr << "telemetry: serving /metrics /healthz /slo on 127.0.0.1:"
              << telemetry->port() << "\n";

  CloudController cloud(std::vector<PmSpec>(n_pms, PmSpec{90.0}), cfg,
                        Rng(20260704));

  // Optional chaos: a FaultInjector replays the scripted/Markov schedule
  // against the controller.  Its draws come from --fault-seed, so the
  // workload stream below is identical with and without faults.
  std::optional<fault::FaultInjector> chaos;
  {
    fault::FaultPlan plan;
    if (args.has("fault-plan"))
      plan = fault::parse_fault_plan(args.get("fault-plan"));
    for (const auto& e : plan.scripted) {
      if (e.kind == fault::FaultKind::kMigrationAbort ||
          e.kind == fault::FaultKind::kMigrationStall) {
        std::cerr << "error: autopilot supports crash/recover/solver "
                     "fault-plan items only (the controller has no "
                     "in-flight copy model)\n";
        return 2;
      }
    }
    if (args.has("fault-p-crash"))
      plan.markov.p_crash = args.get_double("fault-p-crash");
    if (args.has("fault-p-recover"))
      plan.markov.p_recover = args.get_double("fault-p-recover");
    plan.seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));
    plan.validate(n_pms);
    if (plan.any()) chaos.emplace(plan, n_pms);
  }

  Rng rng(1);
  struct LiveTenant {
    TenantId id;
    std::size_t expires_at_slot;
  };
  std::vector<LiveTenant> tenants;

  const std::size_t slots_per_hour = 120;  // 30s slots
  ConsoleTable dashboard({"hour", "VMs", "PMs", "admit", "reject",
                          "runtime migs", "maint migs", "mean CVR",
                          "energy (kWh)"});

  for (std::size_t hour = 0; hour < hours; ++hour) {
    // Diurnal arrival rate: 0.05/slot at 4am .. 0.6/slot at 2pm.
    const double day_phase =
        0.5 - 0.5 * std::cos(2.0 * 3.14159265358979 *
                             (static_cast<double>(hour) - 4.0) / 24.0);
    const double arrival_rate = 0.05 + 0.55 * day_phase;

    for (std::size_t s = 0; s < slots_per_hour; ++s) {
      const std::size_t now = hour * slots_per_hour + s;
      if (rng.bernoulli(arrival_rate)) {
        VmSpec v;
        v.onoff.p_on = rng.uniform(0.008, 0.02);
        v.onoff.p_off = rng.uniform(0.07, 0.12);
        v.rb = rng.uniform(3, 16);
        v.re = rng.uniform(3, 16);
        if (const auto id = cloud.admit(v)) {
          // Lifetimes: mostly hours, occasionally days (censored at 24h).
          const auto lifetime = static_cast<std::size_t>(
              rng.exponential(6.0 * static_cast<double>(slots_per_hour)));
          tenants.push_back(LiveTenant{*id, now + lifetime});
        }
      }
      // Departures.
      std::erase_if(tenants, [&](const LiveTenant& t) {
        if (t.expires_at_slot > now) return false;
        cloud.depart(t.id);
        return true;
      });
      // Chaos schedule: crashes/recoveries land before the tick so the
      // slot's scheduling and queue drain see the new fleet shape; a
      // solver outage covers the whole tick (maintenance degrades to the
      // stale table instead of aborting).
      std::optional<ScopedSolverFault> solver_guard;
      if (chaos) {
        const fault::SlotFaults sf = chaos->advance(now);
        for (std::size_t pm : sf.crashes) cloud.inject_pm_crash(PmId{pm});
        for (std::size_t pm : sf.recoveries)
          cloud.inject_pm_recover(PmId{pm});
        solver_guard.emplace(sf.solver_fault);
      }
      cloud.tick();
      if (pace_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
    }

    const auto& st = cloud.stats();
    dashboard.add_row(
        {std::to_string(hour), std::to_string(st.vms_hosted),
         std::to_string(st.pms_used), std::to_string(st.admissions),
         std::to_string(st.rejections),
         std::to_string(st.runtime_migrations),
         std::to_string(st.maintenance_migrations),
         ConsoleTable::num(st.mean_cvr, 4),
         ConsoleTable::num(st.energy_wh / 1000.0, 2)});
  }
  dashboard.set_title("autopilot: " + std::to_string(hours) +
                      "h of closed-loop operation");
  dashboard.print(std::cout);

  const auto& st = cloud.stats();
  std::cout << "\nday summary: " << st.admissions << " admissions, "
            << st.rejections << " rejections, " << st.runtime_migrations
            << " runtime migrations (" << st.failed_migrations
            << " failed), " << st.maintenance_migrations
            << " maintenance migrations across " << st.maintenance_windows
            << " windows, mean CVR " << st.mean_cvr << " (budget "
            << cfg.ffd.rho << ").\n";
  if (chaos)
    std::cout << "chaos summary: " << st.pm_crashes << " PM crashes, "
              << st.pm_recoveries << " recoveries, " << st.evacuations
              << " evacuations, " << st.evac_queued << " queued ("
              << cloud.queued_tenants() << " still waiting), "
              << st.retries << " retries, " << st.degraded_maintenance
              << " degraded maintenance windows.\n";
  const obs::SloReport slo_report = slo.report();
  std::cout << "slo: verdict=" << slo_report.verdict()
            << " cvr=" << slo_report.cumulative.cvr << " (budget "
            << slo_opts.rho << "), burn fast=" << slo_report.fast.burn
            << " slow=" << slo_report.slow.burn << ", "
            << slo_report.breaches << " breach episodes.\n";

  if (telemetry) telemetry->stop();
  if (args.has("obs-out")) obs::events().close();
  if (args.flag("obs-summary")) obs::print_summary(std::cout);
  return cloud.reservation_invariant_holds() ? 0 : 1;
}

#include "check/oracles.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "durable/durable.h"
#include "durable/snapshot.h"
#include "durable/state_codec.h"
#include "fault/plan.h"
#include "markov/aggregate_chain.h"
#include "placement/baselines.h"
#include "placement/first_fit.h"
#include "placement/incremental.h"
#include "placement/placement.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"
#include "sim/cluster_sim.h"

namespace burstq::check {

namespace {

/// Backend-agreement tolerances.  Gaussian elimination is accurate to
/// ~1e-11 across the whole valid domain (measured at the 1e-6 and 1 - 1e-6
/// boundaries); the damped power iteration stops on a successive-delta
/// test, whose worst in-budget true error is delta/gap ~ 1e-13 / 4e-5.
constexpr double kGaussianTol = 1e-9;
constexpr double kPowerTol = 1e-8;

/// Mixing gate for the simulation oracle: chains with relaxation time
/// above this many slots cannot produce a meaningful empirical CVR inside
/// a bounded run, so the oracle reports a skip instead of a noisy verdict.
constexpr double kMaxRelaxationSlots = 20.0;

/// Stream-separation constants XORed into the case seed so each oracle
/// draws from an independent deterministic stream.
constexpr std::uint64_t kCvrStream = 0x5bd1e995u;
constexpr std::uint64_t kPlacementStream = 0xc2b2ae3du;
constexpr std::uint64_t kRecoveryStream = 0x27d4eb2fu;
constexpr std::uint64_t kDurabilityStream = 0x165667b1u;

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string describe(const FuzzCase& c) {
  std::ostringstream oss;
  oss << "k=" << c.k << " p_on=" << c.params.p_on
      << " p_off=" << c.params.p_off << " rho=" << c.rho;
  return oss.str();
}

OracleReport compare_results(const FuzzCase& c, const PlacementResult& a,
                             const PlacementResult& b,
                             std::string_view phase) {
  if (a.unplaced != b.unplaced) {
    std::ostringstream oss;
    oss << describe(c) << " [" << phase << "] unplaced lists differ: "
        << a.unplaced.size() << " vs " << b.unplaced.size();
    return OracleReport::fail(oss.str());
  }
  for (std::size_t v = 0; v < a.placement.n_vms(); ++v) {
    if (a.placement.pm_of(VmId{v}) != b.placement.pm_of(VmId{v})) {
      std::ostringstream oss;
      oss << describe(c) << " [" << phase << "] vm " << v
          << " placed on pm " << a.placement.pm_of(VmId{v}).value
          << " (naive) vs " << b.placement.pm_of(VmId{v}).value
          << " (incremental)";
      return OracleReport::fail(oss.str());
    }
  }
  return OracleReport::pass();
}

}  // namespace

std::string_view oracle_name(OracleId id) {
  switch (id) {
    case OracleId::kStationary: return "stationary";
    case OracleId::kCvr: return "cvr";
    case OracleId::kPlacement: return "placement";
    case OracleId::kCache: return "cache";
    case OracleId::kRecovery: return "recovery";
    case OracleId::kDurability: return "durability";
  }
  return "unknown";
}

OracleReport check_stationary_backends(const FuzzCase& c) {
  const auto closed = aggregate_stationary_distribution(
      c.k, c.params, StationaryMethod::kClosedForm);
  const auto gauss = aggregate_stationary_distribution(
      c.k, c.params, StationaryMethod::kGaussian);
  const auto power = aggregate_stationary_distribution(
      c.k, c.params, StationaryMethod::kPower);

  for (const auto* pi : {&closed, &gauss, &power}) {
    if (pi->size() != c.k + 1)
      return OracleReport::fail(describe(c) + " wrong distribution length");
    double sum = 0.0;
    for (double v : *pi) {
      if (v < -1e-12 || !std::isfinite(v))
        return OracleReport::fail(describe(c) +
                                  " non-probability entry in distribution");
      sum += v;
    }
    if (std::abs(sum - 1.0) > 1e-9)
      return OracleReport::fail(describe(c) + " distribution sum off by " +
                                std::to_string(sum - 1.0));
  }

  if (const double d = max_abs_diff(gauss, closed); d > kGaussianTol) {
    std::ostringstream oss;
    oss << describe(c) << " gaussian vs closed-form max diff " << d;
    return OracleReport::fail(oss.str());
  }
  if (const double d = max_abs_diff(power, closed); d > kPowerTol) {
    std::ostringstream oss;
    oss << describe(c) << " power vs closed-form max diff " << d;
    return OracleReport::fail(oss.str());
  }
  return OracleReport::pass();
}

OracleReport check_cvr_bound_vs_simulation(const FuzzCase& c) {
  // Relaxation rate of the aggregate chain: eigenvalue moduli are
  // |1 - s|^j with s = p_on + p_off, so the slowest mode decays at
  // 1 - |1 - s| = min(s, 2 - s) per slot.  Both ends are slow: s -> 0
  // (chains frozen in place) and s -> 2 (near-periodic even/odd classes;
  // exactly 2 is non-ergodic, where a single run's time average
  // legitimately differs from the stationary law).  Beyond the gate the
  // empirical estimate is autocorrelation, not signal.
  const double s = c.params.p_on + c.params.p_off;
  const double rate = std::min(s, 2.0 - s);
  if (rate * kMaxRelaxationSlots < 1.0)
    return OracleReport::skip("chain mixes too slowly for simulation");
  const double tau = 1.0 / rate;

  const MapCalResult mc =
      map_cal(c.k, c.params, c.rho, StationaryMethod::kGaussian);
  if (mc.cvr_bound > c.rho + kCdfTieEpsilon) {
    std::ostringstream oss;
    oss << describe(c) << " cvr_bound " << mc.cvr_bound
        << " exceeds budget rho";
    return OracleReport::fail(oss.str());
  }

  const auto slots = static_cast<std::size_t>(
      std::clamp(3000.0 * tau, 20000.0, 60000.0));
  Rng rng(c.seed ^ kCvrStream);
  const auto freq = simulate_occupancy(c.k, c.params, slots, rng);
  double empirical = 0.0;
  for (std::size_t m = mc.blocks + 1; m <= c.k; ++m) empirical += freq[m];

  // Statistical tolerance: a binary process with autocorrelation time tau
  // has Var[mean] ~ p(1-p) * 2 tau / slots; six sigmas plus an absolute
  // floor keeps the oracle quiet on noise yet loud on real bound bugs
  // (which are off by orders of magnitude, not thousandths).
  const double p = std::max(mc.cvr_bound * (1.0 - mc.cvr_bound), 1e-6);
  const double tol =
      6.0 * std::sqrt(p * 2.0 * tau / static_cast<double>(slots)) + 2e-3;
  if (std::abs(empirical - mc.cvr_bound) > tol) {
    std::ostringstream oss;
    oss << describe(c) << " empirical CVR " << empirical
        << " vs analytic bound " << mc.cvr_bound << " (tol " << tol
        << ", slots " << slots << ")";
    return OracleReport::fail(oss.str());
  }
  return OracleReport::pass();
}

OracleReport check_placement_engines(const FuzzCase& c) {
  Rng rng(c.seed ^ kPlacementStream);
  const ProblemInstance inst =
      random_instance(c.n_vms, c.n_pms, c.params, InstanceRanges{}, rng);
  const MapCalTable table(c.max_vms_per_pm, c.params, c.rho,
                          StationaryMethod::kClosedForm);

  // Random visit order: the engines must agree for any order, not just
  // the Rb-descending one Algorithm 2 uses.
  std::vector<std::size_t> order(c.n_vms);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  const auto naive_fits = [&](const Placement& pl, VmId vm, PmId pm) {
    return fits_with_reservation(inst, pl, vm, pm, table);
  };
  const PlacementResult naive = first_fit_place(inst, order, naive_fits);
  const PlacementResult incr =
      first_fit_place_reservation(inst, order, table);
  if (auto r = compare_results(c, naive, incr, "full"); !r.ok) return r;
  if (!placement_satisfies_reservation(inst, naive.placement, table))
    return OracleReport::fail(describe(c) +
                              " naive placement violates Eq. 17 post-check");

  // Churn: drop a random ~35% of the VMs (the drivers require the order
  // to cover the whole instance, so survivors become a reindexed
  // sub-instance) and require the engines to agree on it too; then mutate
  // a bound placement the same way and require its incremental aggregates
  // to match the walk-based reference.
  ProblemInstance shrunk;
  shrunk.pms = inst.pms;
  std::vector<std::size_t> suborder;
  for (std::size_t vi : order)
    if (!rng.bernoulli(0.35)) {
      suborder.push_back(shrunk.vms.size());
      shrunk.vms.push_back(inst.vms[vi]);
    }
  if (!shrunk.vms.empty()) {
    const auto shrunk_fits = [&](const Placement& pl, VmId vm, PmId pm) {
      return fits_with_reservation(shrunk, pl, vm, pm, table);
    };
    const PlacementResult naive2 =
        first_fit_place(shrunk, suborder, shrunk_fits);
    const PlacementResult incr2 =
        first_fit_place_reservation(shrunk, suborder, table);
    if (auto r = compare_results(c, naive2, incr2, "churn"); !r.ok) return r;
  }

  Placement churned = incr.placement;
  for (std::size_t v = 0; v < churned.n_vms(); ++v)
    if (churned.assigned(VmId{v}) && rng.bernoulli(0.35))
      churned.unassign(VmId{v});
  if (!aggregates_consistent(inst, churned))
    return OracleReport::fail(
        describe(c) + " churned placement aggregates diverge from walk");
  return OracleReport::pass();
}

OracleReport check_mapcal_cache(const FuzzCase& c) {
  const std::size_t d = c.max_vms_per_pm;
  mapcal_table_cache_clear();

  const MapCalTable cold(d, c.params, c.rho);
  for (std::size_t k = 1; k <= d; ++k) {
    const MapCalResult direct = map_cal(k, c.params, c.rho);
    if (cold.blocks(k) != direct.blocks ||
        !bits_equal(cold.cvr_bound(k), direct.cvr_bound)) {
      std::ostringstream oss;
      oss << describe(c) << " cold table k=" << k << " blocks/cvr ("
          << cold.blocks(k) << ", " << cold.cvr_bound(k)
          << ") != direct map_cal (" << direct.blocks << ", "
          << direct.cvr_bound << ")";
      return OracleReport::fail(oss.str());
    }
  }

  const MapCalTable warm(d, c.params, c.rho);
  for (std::size_t k = 1; k <= d; ++k) {
    if (warm.blocks(k) != cold.blocks(k) ||
        !bits_equal(warm.cvr_bound(k), cold.cvr_bound(k)))
      return OracleReport::fail(describe(c) +
                                " cache hit differs from cold solve");
  }
  if (mapcal_table_cache_size() != 1)
    return OracleReport::fail(describe(c) +
                              " re-build duplicated the cache entry");

  // Value-equal keys must share one slot: -0.0 == 0.0, so a signed zero
  // rho (or any double that only differs in bits that == ignores) must
  // hash to the cached entry, not beside it.
  if (c.rho == 0.0) {
    const MapCalTable negzero(d, c.params, -0.0);
    if (mapcal_table_cache_size() != 1)
      return OracleReport::fail(
          describe(c) + " rho=-0.0 duplicated the rho=0.0 cache entry");
    if (negzero.blocks(d) != cold.blocks(d))
      return OracleReport::fail(describe(c) +
                                " rho=-0.0 lookup returned different data");
  }
  return OracleReport::pass();
}

fault::FaultPlan case_fault_plan(const FuzzCase& c, std::size_t n_pms,
                                 const std::vector<fault::FaultEvent>& extra) {
  fault::FaultPlan plan;
  plan.seed = c.fault_seed;
  plan.markov.p_mig_fail = c.fault_p_mig_fail;
  const std::size_t victim_pm = c.fault_seed % n_pms;
  plan.scripted = {
      {c.fault_crash_slot, fault::FaultKind::kPmCrash, victim_pm, 0},
      {c.fault_recover_slot, fault::FaultKind::kPmRecover, victim_pm, 0}};
  plan.scripted.insert(plan.scripted.end(), extra.begin(), extra.end());
  // Sorted by slot as the injector requires; same-slot events keep the
  // order above.
  std::stable_sort(plan.scripted.begin(), plan.scripted.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.slot < b.slot;
                   });
  plan.validate(n_pms, c.fault_slots);
  return plan;
}

OracleReport check_recovery_invariants(const FuzzCase& c) {
  // Clamp to a fleet where a crash leaves at least one survivor PM, and
  // keep the per-case cost bounded (the simulator runs twice below).
  const std::size_t n_pms = std::max<std::size_t>(c.n_pms, 2);
  Rng rng(c.seed ^ kRecoveryStream);
  const ProblemInstance inst =
      random_instance(c.n_vms, n_pms, c.params, InstanceRanges{}, rng);
  const PlacementResult seeded = ffd_by_peak(inst);
  if (!seeded.complete())
    return OracleReport::skip("starved fleet: no complete initial placement");
  const std::uint64_t sim_seed = rng.next_u64();

  // Scripted crash-and-recover of one PM plus one solver outage.
  SimConfig cfg;
  cfg.slots = c.fault_slots;
  cfg.policy.rho = c.rho;
  cfg.faults = case_fault_plan(
      c, n_pms,
      {{c.fault_solver_slot, fault::FaultKind::kSolverOutage, fault::kNoPm,
        c.fault_solver_len}});

  const auto run_once = [&] {
    // The MapCalTable memo cache is process-wide: a first run warming it
    // would change which ladder rung the second run's admissions hit
    // during the solver outage.  Start both runs cold.
    mapcal_table_cache_clear();
    ClusterSimulator sim(inst, seeded.placement, cfg, Rng(sim_seed));
    return std::pair<SimReport, Placement>(sim.run(), sim.placement());
  };
  const auto [rep, final_pl] = run_once();

  std::ostringstream oss;
  oss << describe(c) << " n_vms=" << c.n_vms << " n_pms=" << n_pms
      << " crash@" << c.fault_crash_slot << " recover@"
      << c.fault_recover_slot << " solver@" << c.fault_solver_slot << "+"
      << c.fault_solver_len << " slots=" << c.fault_slots;
  const std::string scenario = oss.str();

  if (rep.faults.lost_vms != 0)
    return OracleReport::fail(scenario + " lost " +
                              std::to_string(rep.faults.lost_vms) + " VMs");
  if (final_pl.vms_assigned() + rep.faults.queue_end != inst.n_vms()) {
    std::ostringstream o2;
    o2 << scenario << " conservation broke: " << final_pl.vms_assigned()
       << " assigned + " << rep.faults.queue_end << " queued != "
       << inst.n_vms() << " VMs";
    return OracleReport::fail(o2.str());
  }
  if (!aggregates_consistent(inst, final_pl))
    return OracleReport::fail(
        scenario + " per-PM aggregates diverge from a fresh walk");
  if (rep.faults.pm_crashes == 0)
    return OracleReport::fail(scenario + " scripted crash never fired");

  // Replay determinism: a second run from the same seed must be
  // bit-identical — report and final placement alike.
  const auto [rep2, final2] = run_once();
  const bool reports_match =
      rep.total_migrations == rep2.total_migrations &&
      rep.failed_migrations == rep2.failed_migrations &&
      rep.pms_used_end == rep2.pms_used_end &&
      rep.pms_used_max == rep2.pms_used_max &&
      bits_equal(rep.mean_cvr, rep2.mean_cvr) &&
      bits_equal(rep.max_cvr, rep2.max_cvr) &&
      bits_equal(rep.energy_wh, rep2.energy_wh) &&
      rep.faults.pm_crashes == rep2.faults.pm_crashes &&
      rep.faults.pm_recoveries == rep2.faults.pm_recoveries &&
      rep.faults.evacuated == rep2.faults.evacuated &&
      rep.faults.enqueued == rep2.faults.enqueued &&
      rep.faults.queue_end == rep2.faults.queue_end &&
      rep.faults.retries == rep2.faults.retries &&
      rep.faults.migration_aborts == rep2.faults.migration_aborts &&
      rep.faults.migration_stalls == rep2.faults.migration_stalls &&
      rep.faults.solver_degraded == rep2.faults.solver_degraded;
  if (!reports_match)
    return OracleReport::fail(scenario +
                              " same-seed replay produced a different report");
  for (std::size_t v = 0; v < inst.n_vms(); ++v)
    if (final_pl.pm_of(VmId{v}) != final2.pm_of(VmId{v}))
      return OracleReport::fail(
          scenario + " same-seed replay placed vm " + std::to_string(v) +
          " differently");
  return OracleReport::pass();
}

namespace {

/// Serializes every SimReport field (scalars, timelines, the migration
/// log, per-PM CVR vectors, fault counters) into a byte string so two
/// reports can be compared bit-exactly with one operator==.
std::string encode_report(const SimReport& r) {
  durable::StateWriter w;
  w.varint(r.total_migrations);
  w.varint(r.failed_migrations);
  w.varint(r.pms_used_end);
  w.varint(r.pms_used_max);
  w.size_vec(r.pms_used_timeline);
  w.size_vec(r.migrations_per_slot);
  w.varint(r.events.size());
  for (const MigrationEvent& e : r.events) {
    w.varint(static_cast<std::size_t>(e.slot));
    w.varint(e.vm.value);
    w.varint(e.from.value + 1);  // invalid (failed migration) wraps to 0
    w.varint(e.to.value + 1);
  }
  w.f64_vec(r.pm_cvr);
  w.f64_vec(r.pm_windowed_cvr_end);
  w.f64(r.mean_cvr);
  w.f64(r.max_cvr);
  w.f64(r.energy_wh);
  w.varint(r.faults.pm_crashes);
  w.varint(r.faults.pm_recoveries);
  w.varint(r.faults.evacuated);
  w.varint(r.faults.enqueued);
  w.varint(r.faults.queue_end);
  w.varint(r.faults.retries);
  w.varint(r.faults.migration_aborts);
  w.varint(r.faults.migration_stalls);
  w.varint(r.faults.solver_degraded);
  w.varint(r.faults.lost_vms);
  return w.take();
}

/// Removes the oracle's per-case state directories on every exit path.
struct ScopedDirs {
  std::vector<std::string> dirs;
  std::string add(std::string d) {
    std::filesystem::remove_all(d);
    dirs.push_back(d);
    return dirs.back();
  }
  ~ScopedDirs() {
    for (const std::string& d : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  }
};

}  // namespace

OracleReport check_durability_contract(const FuzzCase& c) {
  const std::size_t n_pms = std::max<std::size_t>(c.n_pms, 2);
  Rng rng(c.seed ^ kDurabilityStream);
  const ProblemInstance inst =
      random_instance(c.n_vms, n_pms, c.params, InstanceRanges{}, rng);
  const PlacementResult seeded = ffd_by_peak(inst);
  if (!seeded.complete())
    return OracleReport::skip("starved fleet: no complete initial placement");
  const std::uint64_t sim_seed = rng.next_u64();

  const std::size_t slots = std::max<std::size_t>(c.fault_slots, 8);
  const std::size_t kill_slot = 1 + c.fault_seed % (slots - 1);
  const std::size_t cadence = 1 + (c.fault_seed >> 8) % 12;

  std::ostringstream oss;
  oss << describe(c) << " n_vms=" << c.n_vms << " n_pms=" << n_pms
      << " slots=" << slots << " kill@" << kill_slot << " cadence="
      << cadence << " crash@" << c.fault_crash_slot << " recover@"
      << c.fault_recover_slot;
  const std::string scenario = oss.str();

  // PM churn plus a Markov migration-abort stream keeps the state the
  // snapshot must capture non-trivial; no solver outage here because the
  // ladder path depends on the process-wide table cache, which a restore
  // legitimately re-warms.
  const auto make_plan = [&](bool with_kill) {
    if (!with_kill) return case_fault_plan(c, n_pms);
    return case_fault_plan(
        c, n_pms, {{kill_slot, fault::FaultKind::kKill, fault::kNoPm, 0}});
  };

  ScopedDirs tmp;
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("burstq_fuzz_durability_" + std::to_string(c.seed)))
          .string();

  const auto make_cfg = [&](bool with_kill, const std::string& dir) {
    SimConfig cfg;
    cfg.slots = slots;
    cfg.policy.rho = c.rho;
    cfg.faults = make_plan(with_kill);
    durable::DurabilityConfig dur;
    dur.dir = dir;
    dur.snapshot_every = cadence;
    cfg.durability = dur;
    return cfg;
  };

  // `mutate` runs between the kill and the restore (torn-tail /
  // corruption injection); returns the report of the completed run.
  const auto run_with_restores =
      [&](const SimConfig& cfg,
          const std::function<void(const std::string&)>& mutate,
          std::size_t& restores) {
        mapcal_table_cache_clear();
        for (;;) {
          ClusterSimulator sim(inst, seeded.placement, cfg, Rng(sim_seed));
          if (restores > 0) (void)sim.restore_from_durable();
          try {
            SimReport rep = sim.run();
            return std::pair<SimReport, Placement>(std::move(rep),
                                                   sim.placement());
          } catch (const durable::SimKilled&) {
            if (restores == 0 && mutate) mutate(cfg.durability->dir);
            ++restores;
          }
        }
      };

  // Baseline: durability on, no kill.
  const SimConfig base_cfg = make_cfg(false, tmp.add(root + ".base"));
  mapcal_table_cache_clear();
  ClusterSimulator base(inst, seeded.placement, base_cfg, Rng(sim_seed));
  const std::string want = encode_report(base.run());
  const Placement want_pl = base.placement();

  // Kill-restart: the restored run must match the baseline byte for byte.
  const SimConfig kill_cfg = make_cfg(true, tmp.add(root + ".kill"));
  std::size_t restores = 0;
  const auto [rep, pl] = run_with_restores(kill_cfg, nullptr, restores);
  if (restores == 0)
    return OracleReport::fail(scenario + " scripted kill never fired");
  if (encode_report(rep) != want)
    return OracleReport::fail(
        scenario + " kill-restart report differs from uninterrupted run");
  for (std::size_t v = 0; v < inst.n_vms(); ++v)
    if (pl.pm_of(VmId{v}) != want_pl.pm_of(VmId{v}))
      return OracleReport::fail(scenario + " kill-restart placed vm " +
                                std::to_string(v) + " differently");

  // Torn tail: chop the journal mid-frame before restoring.  The torn
  // group is discarded, the slot re-executes, and the run still
  // converges to the baseline.
  const std::string torn_dir = tmp.add(root + ".torn");
  const SimConfig torn_cfg = make_cfg(true, torn_dir);
  const auto tear = [&](const std::string& dir) {
    const durable::SnapshotStore store(dir, false);
    const auto snap_slots = store.snapshot_slots();
    if (snap_slots.empty()) return;
    const std::string wal = store.wal_path(snap_slots.back());
    std::error_code ec;
    const auto size = std::filesystem::file_size(wal, ec);
    // Leave the 12-byte header intact: the scanner treats a torn *group*
    // as recoverable tail damage, but this oracle should not manufacture
    // a torn header.
    if (!ec && size > 16) std::filesystem::resize_file(wal, size - 3, ec);
  };
  std::size_t torn_restores = 0;
  const auto [torn_rep, torn_pl] =
      run_with_restores(torn_cfg, tear, torn_restores);
  if (encode_report(torn_rep) != want)
    return OracleReport::fail(
        scenario + " torn-WAL recovery diverged from the baseline run");

  // Bit-flipped snapshot: the restore must refuse loudly, never resume
  // from garbage.
  const std::string flip_dir = tmp.add(root + ".flip");
  const SimConfig flip_cfg = make_cfg(true, flip_dir);
  mapcal_table_cache_clear();
  try {
    ClusterSimulator sim(inst, seeded.placement, flip_cfg, Rng(sim_seed));
    sim.run();
    return OracleReport::fail(scenario + " scripted kill never fired");
  } catch (const durable::SimKilled&) {
  }
  {
    const durable::SnapshotStore store(flip_dir, false);
    const auto snap_slots = store.snapshot_slots();
    if (!snap_slots.empty()) {
      const std::string snap = store.snapshot_path(snap_slots.back());
      std::fstream f(snap,
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(0, std::ios::end);
      const auto end = static_cast<std::size_t>(f.tellg());
      const std::size_t at = 24 + (end - 24) / 2;  // mid-blob, past header
      f.seekg(static_cast<std::streamoff>(at));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x10);
      f.seekp(static_cast<std::streamoff>(at));
      f.write(&byte, 1);
      f.flush();

      ClusterSimulator sim(inst, seeded.placement, flip_cfg, Rng(sim_seed));
      try {
        (void)sim.restore_from_durable();
        return OracleReport::fail(
            scenario + " bit-flipped snapshot restored without an error");
      } catch (const durable::CorruptState&) {
      }
    }
  }
  return OracleReport::pass();
}

OracleReport run_oracle(OracleId id, const FuzzCase& c) {
  switch (id) {
    case OracleId::kStationary: return check_stationary_backends(c);
    case OracleId::kCvr: return check_cvr_bound_vs_simulation(c);
    case OracleId::kPlacement: return check_placement_engines(c);
    case OracleId::kCache: return check_mapcal_cache(c);
    case OracleId::kRecovery: return check_recovery_invariants(c);
    case OracleId::kDurability: return check_durability_contract(c);
  }
  BURSTQ_ASSERT(false, "unknown OracleId");
  return OracleReport::fail("unknown oracle");
}

}  // namespace burstq::check

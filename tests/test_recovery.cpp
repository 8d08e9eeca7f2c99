// Recovery under PM churn: the RecoveryController's evacuate/queue/drain
// discipline, the degradation ladder under solver outages, and the
// ClusterSimulator's end-to-end fault handling (zero lost VMs, queue
// drain after recovery, same-seed bit-identity).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "fault/degrade.h"
#include "fault/plan.h"
#include "fault/recovery.h"
#include "placement/baselines.h"
#include "placement/queuing_ffd.h"
#include "queuing/mapcal.h"
#include "sim/cluster_sim.h"

namespace burstq {
namespace {

const OnOffParams kBursty{0.05, 0.15};

ProblemInstance tight_instance() {
  // Two PMs of capacity 20 hosting one VM each; rb = 12 means two VMs on
  // one PM need Rb 24 > 20, so *every* ladder rung rejects collocation.
  ProblemInstance inst;
  inst.vms.assign(2, VmSpec{kBursty, 12.0, 6.0});
  inst.pms.assign(2, PmSpec{20.0});
  return inst;
}

std::vector<std::uint8_t> all_up(std::size_t n) {
  return std::vector<std::uint8_t>(n, 1);
}

// --- RecoveryController -----------------------------------------------

TEST(RecoveryController, EvacuatesOntoAnUpPmWhenOneFits) {
  ProblemInstance inst;
  inst.vms.assign(3, VmSpec{kBursty, 4.0, 3.0});
  inst.pms.assign(3, PmSpec{60.0});
  Placement pl(inst.n_vms(), inst.n_pms());
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});
  pl.assign(VmId{2}, PmId{2});

  fault::RecoveryController rc(inst, fault::RecoveryPolicy{}, 16, 0.01,
                               StationaryMethod::kGaussian);
  auto up = all_up(3);
  up[1] = 0;  // PM 1 just crashed
  const OnOffParams rounded = round_uniform_params(inst.vms);
  const std::size_t moved =
      rc.evacuate(pl, PmId{1}, up, rounded, /*slot=*/4);

  EXPECT_EQ(moved, 1u);
  EXPECT_TRUE(rc.queue().empty());
  EXPECT_TRUE(pl.assigned(VmId{1}));
  EXPECT_NE(pl.pm_of(VmId{1}), PmId{1});
  EXPECT_TRUE(rc.invariant_holds(pl, up));
}

TEST(RecoveryController, QueuesWithReasonWhenNothingFitsThenDrains) {
  const ProblemInstance inst = tight_instance();
  Placement pl(2, 2);
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});

  fault::RecoveryPolicy policy;
  policy.backoff_base_slots = 1;
  fault::RecoveryController rc(inst, policy, 16, 0.01,
                               StationaryMethod::kGaussian);
  auto up = all_up(2);
  up[1] = 0;
  const OnOffParams rounded = round_uniform_params(inst.vms);
  EXPECT_EQ(rc.evacuate(pl, PmId{1}, up, rounded, /*slot=*/0), 0u);

  ASSERT_EQ(rc.queue().size(), 1u);
  EXPECT_EQ(rc.queue()[0].vm, 1u);
  EXPECT_EQ(rc.queue()[0].reason, fault::QueueReason::kNoFeasiblePm);
  EXPECT_EQ(rc.enqueued_total(), 1u);
  EXPECT_FALSE(pl.assigned(VmId{1}));
  EXPECT_TRUE(rc.invariant_holds(pl, up));

  // Still down: due attempts fail, retries grow, the VM is never dropped.
  std::size_t slot = 1;
  for (; slot < 10; ++slot) (void)rc.drain(pl, up, rounded, slot);
  EXPECT_EQ(rc.queue().size(), 1u);
  EXPECT_GE(rc.retries_total(), 2u);
  const std::size_t retries_while_down = rc.retries_total();

  // PM 1 recovers; the next due attempt re-places the VM.
  up[1] = 1;
  std::size_t drained = 0;
  for (; slot < 200 && drained == 0; ++slot)
    drained = rc.drain(pl, up, rounded, slot);
  EXPECT_EQ(drained, 1u);
  EXPECT_TRUE(rc.queue().empty());
  EXPECT_TRUE(pl.assigned(VmId{1}));
  EXPECT_GT(rc.retries_total(), retries_while_down);
  EXPECT_TRUE(rc.invariant_holds(pl, up));
}

TEST(RecoveryController, BackoffIsBoundedByTheCap) {
  const ProblemInstance inst = tight_instance();
  Placement pl(2, 2);
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});

  fault::RecoveryPolicy policy;
  policy.backoff_base_slots = 1;
  policy.backoff_cap_slots = 8;
  fault::RecoveryController rc(inst, policy, 16, 0.01,
                               StationaryMethod::kGaussian);
  auto up = all_up(2);
  up[1] = 0;
  const OnOffParams rounded = round_uniform_params(inst.vms);
  (void)rc.evacuate(pl, PmId{1}, up, rounded, 0);

  std::size_t last_attempt = 0;
  std::size_t max_gap = 0;
  for (std::size_t slot = 1; slot < 400; ++slot) {
    const std::size_t before = rc.retries_total();
    (void)rc.drain(pl, up, rounded, slot);
    if (rc.retries_total() > before) {
      if (last_attempt != 0) max_gap = std::max(max_gap, slot - last_attempt);
      last_attempt = slot;
    }
  }
  EXPECT_GE(rc.retries_total(), 10u);  // capped backoff keeps retrying
  EXPECT_LE(max_gap, policy.backoff_cap_slots);
}

TEST(RecoveryPolicy, BackoffDelayDoublesUpToTheCap) {
  // Closed form: base * 2^min(retries, max_retries), capped.  The grid
  // includes caps below the base and a max_retries that stops the
  // doubling before the cap does.
  for (const std::size_t base : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t cap :
         {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      for (const std::size_t max_retries : {std::size_t{2}, std::size_t{8}}) {
        fault::RecoveryPolicy policy;
        policy.backoff_base_slots = base;
        policy.backoff_cap_slots = cap;
        policy.max_retries = max_retries;
        for (std::size_t retries = 0; retries <= 12; ++retries) {
          const std::size_t want =
              std::min(base << std::min(retries, max_retries), cap);
          EXPECT_EQ(fault::backoff_delay(policy, retries), want)
              << "base " << base << " cap " << cap << " max_retries "
              << max_retries << " retries " << retries;
        }
      }
    }
  }
}

// --- degradation ladder -----------------------------------------------

TEST(ReservationLadder, DegradesUnderSolverFaultInsteadOfThrowing) {
  mapcal_table_cache_clear();  // no memoized rung-1 escape hatch
  fault::ReservationLadder ladder(16, 0.01, StationaryMethod::kGaussian);
  const VmSpec vm{kBursty, 4.0, 3.0};
  const std::vector<VmSpec> hosted(3, vm);

  ScopedSolverFault outage;
  bool decided = false;
  EXPECT_NO_THROW(decided = ladder.admits(hosted, vm, Resource{60.0},
                                          kBursty));
  EXPECT_TRUE(decided);  // plenty of room at any rung
  EXPECT_GT(ladder.degraded_decisions(), 0u);
  EXPECT_NE(ladder.last_level(), fault::ReserveLevel::kTable);
  EXPECT_NE(ladder.last_level(), fault::ReserveLevel::kGaussianTable);
}

TEST(ReservationLadder, CacheHitServesRungOneDuringOutage) {
  mapcal_table_cache_clear();
  const OnOffParams rounded = round_uniform_params(
      std::vector<VmSpec>(4, VmSpec{kBursty, 4.0, 3.0}));
  // Warm the memo cache with the exact (d, params, rho) key the ladder
  // will ask for.
  const MapCalTable warm(16, rounded, 0.01, StationaryMethod::kGaussian);
  (void)warm;

  fault::ReservationLadder ladder(16, 0.01, StationaryMethod::kGaussian);
  ScopedSolverFault outage;
  const VmSpec vm{kBursty, 4.0, 3.0};
  (void)ladder.admits(std::vector<VmSpec>(2, vm), vm, Resource{60.0},
                      rounded);
  EXPECT_EQ(ladder.last_level(), fault::ReserveLevel::kTable);
  EXPECT_EQ(ladder.degraded_decisions(), 0u);
}

TEST(ReservationLadder, PeakRungNeverAdmitsAnOverflow) {
  mapcal_table_cache_clear();
  fault::ReservationLadder ladder(16, 0.01, StationaryMethod::kGaussian);
  ScopedSolverFault outage;
  // Two rb = 12 VMs on a 20-capacity PM exceed capacity at every rung.
  const VmSpec vm{kBursty, 12.0, 6.0};
  EXPECT_FALSE(ladder.admits(std::vector<VmSpec>(1, vm), vm,
                             Resource{20.0}, kBursty));
}

// --- ClusterSimulator under churn -------------------------------------

SimConfig chaos_config(std::string_view plan_text, std::size_t slots) {
  SimConfig cfg;
  cfg.slots = slots;
  cfg.policy.rho = 0.05;
  cfg.policy.cost_slots = 4;  // long copies: crashes land mid-flight
  cfg.faults = fault::parse_fault_plan(std::string(plan_text));
  return cfg;
}

/// Overcommitted fleet (Rb-based packing) that migrates under load, so
/// crashes interleave with in-flight copies.
ProblemInstance busy_instance(Rng& rng, std::size_t n_vms,
                              std::size_t n_pms) {
  ProblemInstance inst;
  for (std::size_t i = 0; i < n_vms; ++i) {
    OnOffParams p{rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.3)};
    inst.vms.push_back(VmSpec{p, rng.uniform(4.0, 10.0),
                              rng.uniform(4.0, 12.0)});
  }
  inst.pms.assign(n_pms, PmSpec{40.0});
  return inst;
}

TEST(ClusterSimChaos, CrashStormConservesEveryVm) {
  Rng rng(2024);
  const ProblemInstance inst = busy_instance(rng, 30, 10);
  const auto placed = ffd_by_normal(inst);
  ASSERT_TRUE(placed.complete());

  // Crashes at 10 and 25 (the second while slot-10 evacuations and
  // scheduler moves are still in flight), aborts and stalls on top, and
  // staggered recoveries.
  SimConfig cfg = chaos_config(
      "crash@10:pm=0;mig-stall@12:slots=3;mig-abort@14;crash@25:pm=3;"
      "recover@40:pm=0;recover@55:pm=3",
      80);
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(77));
  const SimReport rep = sim.run();

  EXPECT_EQ(rep.faults.pm_crashes, 2u);
  EXPECT_EQ(rep.faults.pm_recoveries, 2u);
  EXPECT_EQ(rep.faults.lost_vms, 0u);
  EXPECT_EQ(sim.placement().vms_assigned() + rep.faults.queue_end,
            inst.n_vms());
  EXPECT_GT(rep.faults.evacuated + rep.faults.enqueued, 0u);
}

TEST(ClusterSimChaos, CrashOfMigrationTargetNeverLosesTheVm) {
  // A markov migration-abort stream plus a crash directly after the
  // scheduler's busiest phase: whatever PM a copy targets may die before
  // the copy lands.  The conservation and liveness invariants must hold
  // regardless of which interleaving the seed produces.
  Rng rng(5150);
  const ProblemInstance inst = busy_instance(rng, 24, 8);
  const auto placed = ffd_by_normal(inst);
  ASSERT_TRUE(placed.complete());

  SimConfig cfg = chaos_config(
      "crash@8:pm=1;crash@9:pm=2;recover@30:pm=1;recover@31:pm=2", 60);
  cfg.faults->markov.p_mig_fail = 0.3;
  cfg.faults->seed = 9;
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(31));
  const SimReport rep = sim.run();

  EXPECT_EQ(rep.faults.lost_vms, 0u);
  EXPECT_EQ(sim.placement().vms_assigned() + rep.faults.queue_end,
            inst.n_vms());
  for (std::size_t v = 0; v < inst.n_vms(); ++v) {
    if (sim.placement().assigned(VmId{v})) {
      EXPECT_LT(sim.placement().pm_of(VmId{v}).value, inst.n_pms());
    }
  }
}

TEST(ClusterSimChaos, ZeroFeasiblePmsQueuesThenDrainsAfterRecovery) {
  const ProblemInstance inst = tight_instance();
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());

  SimConfig cfg;
  cfg.slots = 60;
  cfg.policy.rho = 0.01;
  cfg.faults = fault::parse_fault_plan("crash@5:pm=1;recover@20:pm=1");
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(11));
  const SimReport rep = sim.run();

  EXPECT_EQ(rep.faults.enqueued, 1u);   // nothing fit while PM 1 was down
  EXPECT_GE(rep.faults.retries, 1u);    // backoff attempts were counted
  EXPECT_EQ(rep.faults.queue_end, 0u);  // drained once PM 1 came back
  EXPECT_EQ(rep.faults.lost_vms, 0u);
  EXPECT_EQ(sim.placement().vms_assigned(), inst.n_vms());
}

TEST(ClusterSimChaos, SolverOutageDegradesInsteadOfAborting) {
  Rng rng(404);
  const ProblemInstance inst = busy_instance(rng, 20, 8);
  const auto placed = ffd_by_peak(inst);  // builds no MapCal table
  ASSERT_TRUE(placed.complete());

  mapcal_table_cache_clear();  // evacuation must hit the outage cold
  SimConfig cfg;
  cfg.slots = 40;
  cfg.policy.rho = 0.05;
  cfg.faults =
      fault::parse_fault_plan("solver@2:slots=30;crash@5:pm=0;"
                              "recover@35:pm=0");
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(8));
  SimReport rep;
  ASSERT_NO_THROW(rep = sim.run());
  EXPECT_GT(rep.faults.solver_degraded, 0u);
  EXPECT_EQ(rep.faults.lost_vms, 0u);
}

TEST(ClusterSimChaos, SameSeedRunsAreBitIdentical) {
  Rng rng(1234);
  const ProblemInstance inst = busy_instance(rng, 25, 9);
  const auto placed = ffd_by_normal(inst);
  ASSERT_TRUE(placed.complete());

  const SimConfig cfg = chaos_config(
      "crash@6:pm=2;solver@10:slots=15;mig-abort@12;recover@30:pm=2", 70);
  const auto run = [&] {
    mapcal_table_cache_clear();  // cache warmth must not leak between runs
    ClusterSimulator sim(inst, placed.placement, cfg, Rng(55));
    const SimReport rep = sim.run();
    std::vector<std::size_t> fp;
    fp.push_back(rep.total_migrations);
    fp.push_back(rep.failed_migrations);
    fp.push_back(rep.faults.evacuated);
    fp.push_back(rep.faults.enqueued);
    fp.push_back(rep.faults.retries);
    fp.push_back(rep.faults.migration_aborts);
    fp.push_back(rep.faults.migration_stalls);
    fp.push_back(rep.faults.solver_degraded);
    for (std::size_t v = 0; v < inst.n_vms(); ++v)
      fp.push_back(sim.placement().assigned(VmId{v})
                       ? sim.placement().pm_of(VmId{v}).value
                       : static_cast<std::size_t>(-1));
    return fp;
  };
  EXPECT_EQ(run(), run());
}

// --- CloudController under churn --------------------------------------

TEST(ControllerChurn, CrashEvacuatesOrQueuesAndRecoveryDrains) {
  ControllerConfig cfg;
  CloudController cloud(std::vector<PmSpec>(6, PmSpec{60.0}), cfg,
                        Rng(99));

  Rng rng(3);
  std::vector<TenantId> ids;
  for (int i = 0; i < 30; ++i) {
    VmSpec v{OnOffParams{rng.uniform(0.01, 0.05), rng.uniform(0.05, 0.2)},
             rng.uniform(2.0, 8.0), rng.uniform(2.0, 8.0)};
    if (const auto id = cloud.admit(v)) ids.push_back(*id);
    cloud.tick();
  }
  ASSERT_FALSE(ids.empty());
  ASSERT_TRUE(cloud.reservation_invariant_holds());
  const std::size_t hosted_before = cloud.stats().vms_hosted;

  // Crash every PM but one: most tenants cannot fit and must queue.
  for (std::size_t j = 1; j < 6; ++j) cloud.inject_pm_crash(PmId{j});
  EXPECT_TRUE(cloud.reservation_invariant_holds());
  for (int t = 0; t < 5; ++t) cloud.tick();
  EXPECT_TRUE(cloud.reservation_invariant_holds());
  // No tenant is dropped: queued ones stay live (parked), so the live
  // count is conserved and the overflow shows up in the queue.
  EXPECT_EQ(cloud.stats().vms_hosted, hosted_before);
  EXPECT_GT(cloud.queued_tenants(), 0u);
  EXPECT_GT(cloud.stats().evac_queued, 0u);

  // Recovery: the queue must fully drain once capacity returns.
  for (std::size_t j = 1; j < 6; ++j) cloud.inject_pm_recover(PmId{j});
  for (int t = 0; t < 200 && cloud.queued_tenants() > 0; ++t) cloud.tick();
  EXPECT_EQ(cloud.queued_tenants(), 0u);
  EXPECT_EQ(cloud.stats().vms_hosted, hosted_before);
  EXPECT_GT(cloud.stats().retries, 0u);
  EXPECT_TRUE(cloud.reservation_invariant_holds());

  // Queued-then-drained tenants must be addressable again.
  for (TenantId id : ids) EXPECT_TRUE(cloud.pm_of(id).valid());
}

TEST(ControllerChurn, DepartWhileQueuedIsClean) {
  ControllerConfig cfg;
  CloudController cloud(std::vector<PmSpec>(2, PmSpec{20.0}), cfg, Rng(1));
  const VmSpec big{kBursty, 12.0, 6.0};
  const auto a = cloud.admit(big);
  const auto b = cloud.admit(big);
  ASSERT_TRUE(a && b);
  ASSERT_NE(cloud.pm_of(*a), cloud.pm_of(*b));

  cloud.inject_pm_crash(cloud.pm_of(*b));
  EXPECT_EQ(cloud.queued_tenants(), 1u);
  EXPECT_FALSE(cloud.pm_of(*b).valid());

  cloud.depart(*b);  // leaves the queue, not a dangling entry
  EXPECT_EQ(cloud.queued_tenants(), 0u);
  cloud.tick();
  EXPECT_TRUE(cloud.reservation_invariant_holds());
  EXPECT_THROW((void)cloud.pm_of(*b), InvalidArgument);
}

}  // namespace
}  // namespace burstq

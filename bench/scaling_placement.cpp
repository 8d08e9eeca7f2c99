// Scaling study for the placement engines (see docs/PERFORMANCE.md):
// first-fit under Eq. (17) with the O(log m) slack-tree descent vs the
// O(m) linear scan vs the sharded parallel engine, at 10^4-10^6 VMs.
//
// Four drivers are compared on identical instances and visit orders:
//
//   naive-walk    unbound Placement: every Eq. (17) check walks the
//                 hosted list (the pre-aggregate seed behaviour, O(k)
//                 per check).  Skipped above --walk-cap VMs by default
//                 because it is quadratic-ish and exists only as the
//                 historical baseline.
//   naive         generic first_fit_place driver with a bound Placement:
//                 O(1) checks, O(m) scan per VM.  Skipped above
//                 --naive-cap VMs (n * m checks is infeasible at 10^6).
//   incremental   first_fit_place_reservation: slack-tree descent,
//                 O(log m) per VM, single-threaded.
//   sharded       sharded_place_reservation: per-shard slack trees with
//                 a parallel local phase and deterministic cross-shard
//                 reconciliation (placement/sharded.h).
//
// naive/naive-walk must be bit-identical to incremental.  The sharded
// engine is bit-identical to incremental when it resolves to one shard;
// with S > 1 its placement legitimately differs (home-shard first fit),
// so the harness instead pins its *thread determinism*: the same run at
// 1, 3, and the requested thread count must agree bit-for-bit.
//
// It also times QueuingFFD end-to-end (naive vs incremental vs sharded
// engine, MapCal cache cleared before each run) and verifies the MapCal
// memoization: a second identical run must perform zero new stationary
// solves (`mapcal.table.builds` delta == 0).
//
// Output: console table, scaling_placement.csv, and a machine-readable
// BENCH_placement.json in the output directory (bench_out/ or
// BURSTQ_OUT_DIR).  The JSON is written BEFORE any divergence aborts the
// process, so CI artifacts capture failing runs too.
//
// Usage: scaling_placement [--n N] [--large] [--smoke] [--walk-cap N]
//                          [--naive-cap N] [--threads T] [--shards S]

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/args.h"
#include "common/error.h"
#include "common/parallel.h"
#include "core/scenario.h"
#include "placement/cluster.h"
#include "placement/first_fit.h"
#include "placement/incremental.h"
#include "placement/queuing_ffd.h"
#include "placement/sharded.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace {

using namespace burstq;

template <typename F>
double time_s(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The pre-aggregate seed driver: unbound placement, so every Eq. (17)
/// check re-walks the PM's hosted list.
PlacementResult first_fit_walk(const ProblemInstance& inst,
                               const std::vector<std::size_t>& order,
                               const MapCalTable& table) {
  PlacementResult result{Placement(inst.n_vms(), inst.n_pms()), {}};
  for (const std::size_t vi : order) {
    const VmId vm{vi};
    bool placed = false;
    for (std::size_t j = 0; j < inst.n_pms() && !placed; ++j) {
      const PmId pm{j};
      if (fits_with_reservation(inst, result.placement, vm, pm, table)) {
        result.placement.assign(vm, pm);
        placed = true;
      }
    }
    if (!placed) result.unplaced.push_back(vm);
  }
  return result;
}

bool same_placement(const ProblemInstance& inst, const PlacementResult& a,
                    const PlacementResult& b) {
  if (a.unplaced != b.unplaced) return false;
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    if (a.placement.pm_of(VmId{i}) != b.placement.pm_of(VmId{i}))
      return false;
  return true;
}

std::uint64_t counter_value(const char* name) {
  const auto snap = obs::metrics().scrape();
  const auto* sample = snap.counter(name);
  return sample != nullptr ? sample->value : 0;
}

struct Row {
  std::size_t n{0}, m{0};
  std::string engine;
  double seconds{0.0};
  std::size_t pms_used{0};
  bool identical{true};  ///< vs incremental; for S>1 sharded rows, the
                         ///< thread-determinism verdict instead
  /// Incremental rows only: the Algorithm-2 visit order's time, and the
  /// engine's deterministic work counts (gated exactly in CI).
  std::optional<double> order_seconds;
  IncrementalStats stats;
};

/// Per-size sharded-engine record for the JSON summary.
struct ShardedRun {
  std::size_t n{0}, m{0};
  ShardedStats stats;
  double seconds{0.0};
  double speedup_vs_incremental{0.0};
  bool thread_deterministic{true};
};

}  // namespace

int main(int argc, char** argv) {
  using burstq::bench::banner;
  using burstq::bench::open_csv;

  ArgParser args("scaling_placement",
                 "incremental vs naive vs sharded first-fit scaling study");
  args.add_option("n", "run a single problem size instead of the sweep");
  args.add_flag("large", "add n = 10^6, m = 10^5 to the sweep");
  args.add_flag("smoke", "tiny run (n = 5000) for CI smoke tests");
  args.add_option("walk-cap",
                  "largest n for the quadratic naive-walk baseline", "20000");
  args.add_option("naive-cap",
                  "largest n for the O(n*m) naive linear-scan driver",
                  "200000");
  args.add_option("threads",
                  "worker threads (0 = BURSTQ_THREADS or hardware)", "0");
  args.add_option("shards",
                  "PM shards for the sharded engine (0 = auto from m)", "1");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage();
    return 2;
  }

  std::vector<std::size_t> sizes{10'000, 100'000};
  if (args.flag("large")) sizes.push_back(1'000'000);
  if (args.flag("smoke")) sizes = {5'000};
  if (args.has("n"))
    sizes = {static_cast<std::size_t>(args.get_int("n"))};
  const auto walk_cap = static_cast<std::size_t>(args.get_int("walk-cap"));
  const auto naive_cap = static_cast<std::size_t>(args.get_int("naive-cap"));
  const auto threads_arg =
      static_cast<std::size_t>(args.get_int("threads"));
  const auto shards_arg = static_cast<std::size_t>(args.get_int("shards"));
  if (threads_arg > 0) set_thread_count_override(threads_arg);

  const OnOffParams params = paper_onoff_params();
  QueuingFfdOptions naive_opt;
  naive_opt.engine = PlacementEngine::kNaive;
  QueuingFfdOptions incr_opt;
  incr_opt.engine = PlacementEngine::kIncremental;
  QueuingFfdOptions shard_opt;
  shard_opt.engine = PlacementEngine::kSharded;
  shard_opt.sharded.shards = shards_arg;

  std::vector<Row> rows;
  std::vector<ShardedRun> sharded_runs;
  std::vector<std::string> failures;  ///< reported AFTER the JSON lands
  struct EndToEnd {
    std::size_t n{0};
    double naive_s{0.0}, incremental_s{0.0}, sharded_s{0.0};
    double speedup{0.0};          ///< naive / incremental (0 when skipped)
    double sharded_speedup{0.0};  ///< incremental / sharded
  };
  std::vector<EndToEnd> e2e;

  for (const std::size_t n : sizes) {
    // The acceptance-scale point is the paper-sized 10^6 VMs on 10^5 PMs;
    // smaller sweep points keep the historical n/8 fleet.
    const std::size_t m = n >= 1'000'000 ? n / 10 : n / 8;
    Rng rng(4242 + n);
    const auto inst = random_instance(n, m, params, InstanceRanges{}, rng);
    std::vector<std::size_t> order;
    const double order_s = time_s([&] {
      order = queuing_ffd_order(inst.vms, naive_opt.cluster_buckets);
    });
    const MapCalTable table(naive_opt.max_vms_per_pm, params, naive_opt.rho,
                            naive_opt.method);
    const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
      return fits_with_reservation(inst, p, vm, pm, table);
    };

    banner("first-fit drivers, n = " + std::to_string(n) +
           " VMs, m = " + std::to_string(m) + " PMs");
    ConsoleTable out({"engine", "seconds", "PMs used", "identical/det"});
    const std::size_t row_base = rows.size();

    PlacementResult incr{Placement(1, 1), {}};
    IncrementalStats stats;
    const double incr_s = time_s([&] {
      incr = first_fit_place_reservation(inst, order, table, &stats);
    });
    rows.push_back(
        {n, m, "incremental", incr_s, incr.pms_used(), true, order_s, stats});

    // Sharded engine at the requested shard count, then the thread-
    // determinism pin: 1 and 3 workers must reproduce it bit-for-bit.
    ShardedRun srun{n, m, {}, 0.0, 0.0, true};
    ShardedOptions sopt = shard_opt.sharded;
    sopt.threads = threads_arg;
    PlacementResult shard{Placement(1, 1), {}};
    srun.seconds = time_s([&] {
      shard = sharded_place_reservation(inst, order, table, sopt,
                                        &srun.stats);
    });
    srun.speedup_vs_incremental = incr_s / srun.seconds;
    for (const std::size_t t : {std::size_t{1}, std::size_t{3}}) {
      ShardedOptions repeat = sopt;
      repeat.threads = t;
      const auto again = sharded_place_reservation(inst, order, table, repeat);
      if (!same_placement(inst, shard, again)) {
        srun.thread_deterministic = false;
        failures.push_back("sharded engine diverged between thread counts "
                           "at n = " + std::to_string(n));
      }
    }
    const bool shard_vs_incr =
        srun.stats.shards == 1 ? same_placement(inst, shard, incr)
                               : srun.thread_deterministic;
    if (srun.stats.shards == 1 && !shard_vs_incr)
      failures.push_back("single-shard engine diverged from incremental at "
                         "n = " + std::to_string(n));
    rows.push_back({n, m,
                    "sharded[S=" + std::to_string(srun.stats.shards) + "]",
                    srun.seconds, shard.pms_used(), shard_vs_incr,
                    std::nullopt, {}});
    sharded_runs.push_back(srun);

    if (n <= naive_cap) {
      PlacementResult naive{Placement(1, 1), {}};
      const double naive_s =
          time_s([&] { naive = first_fit_place(inst, order, fits); });
      const bool naive_same = same_placement(inst, naive, incr);
      rows.push_back({n, m, "naive", naive_s, naive.pms_used(), naive_same,
                      std::nullopt, {}});
      if (!naive_same)
        failures.push_back("incremental placement diverged from the naive "
                           "driver at n = " + std::to_string(n));
    }

    if (n <= walk_cap) {
      PlacementResult walk{Placement(1, 1), {}};
      const double walk_s =
          time_s([&] { walk = first_fit_walk(inst, order, table); });
      const bool walk_same = same_placement(inst, walk, incr);
      rows.push_back({n, m, "naive-walk", walk_s, walk.pms_used(), walk_same,
                      std::nullopt, {}});
      if (!walk_same)
        failures.push_back("incremental placement diverged from the walk "
                           "baseline at n = " + std::to_string(n));
    }

    for (auto it = rows.begin() + static_cast<std::ptrdiff_t>(row_base);
         it != rows.end(); ++it)
      out.add_row({it->engine, ConsoleTable::num(it->seconds, 4),
                   std::to_string(it->pms_used),
                   it->identical ? "yes" : "NO"});
    out.add_row({"(tree descents)", std::to_string(stats.tree_descents),
                 "exact checks", std::to_string(stats.exact_checks)});
    out.add_row({"(visit order)", ConsoleTable::num(order_s, 4), "", ""});
    out.print(std::cout);
    std::cout << "sharded: " << srun.stats.shards << " shards, "
              << srun.stats.threads << " threads, " << srun.stats.spills
              << " spills (" << srun.stats.reconcile_placed
              << " reconciled), " << srun.stats.steals << " steals\n";

    // End-to-end Algorithm 2, cold MapCal cache for every engine.
    EndToEnd e{n, 0.0, 0.0, 0.0, 0.0, 0.0};
    QueuingFfdOutcome b{{Placement(1, 1), {}},
                        MapCalTable(1, params, naive_opt.rho),
                        params};
    QueuingFfdOutcome c = b;
    mapcal_table_cache_clear();
    e.incremental_s = time_s([&] { b = queuing_ffd(inst, incr_opt); });
    mapcal_table_cache_clear();
    e.sharded_s = time_s([&] { c = queuing_ffd(inst, shard_opt); });
    e.sharded_speedup = e.incremental_s / e.sharded_s;
    if (n <= naive_cap) {
      QueuingFfdOutcome a = b;
      mapcal_table_cache_clear();
      e.naive_s = time_s([&] { a = queuing_ffd(inst, naive_opt); });
      if (!same_placement(inst, a.result, b.result))
        failures.push_back("QueuingFFD naive/incremental engines disagree "
                           "at n = " + std::to_string(n));
      e.speedup = e.naive_s / e.incremental_s;
    }
    e2e.push_back(e);
    std::cout << "QueuingFFD end-to-end: naive "
              << (e.naive_s > 0.0 ? ConsoleTable::num(e.naive_s, 4)
                                  : std::string("(skipped)"))
              << " s, incremental " << ConsoleTable::num(e.incremental_s, 4)
              << " s, sharded " << ConsoleTable::num(e.sharded_s, 4)
              << " s  ->  sharded " << ConsoleTable::num(e.sharded_speedup, 2)
              << "x vs incremental\n";
  }

  // MapCal memoization: a second run with identical (params, rho, d,
  // method) must not rebuild the table.
  banner("MapCal table cache");
  bool cache_ok = true;
  std::uint64_t builds_delta = 0, hits_delta = 0;
  {
    const std::size_t n = sizes.front();
    Rng rng(991);
    const auto inst =
        random_instance(n, n / 8, params, InstanceRanges{}, rng);
    mapcal_table_cache_clear();
    (void)queuing_ffd(inst, incr_opt);
    const std::uint64_t builds0 = counter_value("mapcal.table.builds");
    const std::uint64_t hits0 = counter_value("mapcal.table.cache_hits");
    (void)queuing_ffd(inst, incr_opt);
    builds_delta = counter_value("mapcal.table.builds") - builds0;
    hits_delta = counter_value("mapcal.table.cache_hits") - hits0;
    if (obs::kEnabled) {
      cache_ok = builds_delta == 0 && hits_delta >= 1;
      if (!cache_ok)
        failures.push_back("second identical QueuingFFD run rebuilt the "
                           "MapCal table instead of hitting the cache");
    }
    std::cout << "second run: " << builds_delta << " new table builds, "
              << hits_delta << " cache hits (cache size "
              << mapcal_table_cache_size() << ")\n";
  }

  auto csv = open_csv("scaling_placement.csv");
  csv.row({"n", "m", "engine", "seconds", "pms_used", "identical"});
  for (const auto& r : rows) {
    csv.begin_row();
    csv.field(r.n).field(r.m).field(r.engine).field(r.seconds);
    csv.field(r.pms_used).field(r.identical ? "yes" : "no");
    csv.end_row();
  }
  csv.flush();

  // Machine-readable summary for CI artifact collection.  Written before
  // the divergence checks below abort, so failing runs still ship data.
  const std::string json_path =
      burstq::bench::out_dir() + "/BENCH_placement.json";
  {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"scaling_placement\",\n  \"hardware\": {"
         << "\"hardware_concurrency\": "
         << std::thread::hardware_concurrency()
         << ", \"threads\": " << default_thread_count()
         << ", \"requested_shards\": " << shards_arg << "},\n"
         << "  \"drivers\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      json << "    {\"n\": " << r.n << ", \"m\": " << r.m
           << ", \"engine\": \"" << r.engine
           << "\", \"seconds\": " << r.seconds
           << ", \"pms_used\": " << r.pms_used << ", \"identical\": "
           << (r.identical ? "true" : "false");
      if (r.order_seconds)
        json << ", \"order_seconds\": " << *r.order_seconds
             << ", \"tree_descents\": " << r.stats.tree_descents
             << ", \"exact_checks\": " << r.stats.exact_checks;
      json << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"sharded\": [\n";
    for (std::size_t i = 0; i < sharded_runs.size(); ++i) {
      const auto& s = sharded_runs[i];
      json << "    {\"n\": " << s.n << ", \"m\": " << s.m
           << ", \"shards\": " << s.stats.shards
           << ", \"threads\": " << s.stats.threads
           << ", \"seconds\": " << s.seconds
           << ", \"speedup_vs_incremental\": " << s.speedup_vs_incremental
           << ", \"local_placed\": " << s.stats.local_placed
           << ", \"spills\": " << s.stats.spills
           << ", \"reconcile_placed\": " << s.stats.reconcile_placed
           << ", \"steals\": " << s.stats.steals
           << ", \"budget_exhausted\": " << s.stats.budget_exhausted
           << ", \"thread_deterministic\": "
           << (s.thread_deterministic ? "true" : "false") << "}"
           << (i + 1 < sharded_runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"queuing_ffd_end_to_end\": [\n";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      const auto& e = e2e[i];
      json << "    {\"n\": " << e.n << ", \"naive_seconds\": " << e.naive_s
           << ", \"incremental_seconds\": " << e.incremental_s
           << ", \"sharded_seconds\": " << e.sharded_s
           << ", \"speedup\": " << e.speedup
           << ", \"sharded_speedup\": " << e.sharded_speedup << "}"
           << (i + 1 < e2e.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"mapcal_cache\": {\"second_run_builds\": "
         << builds_delta << ", \"second_run_hits\": " << hits_delta
         << ", \"zero_rebuild_confirmed\": " << (cache_ok ? "true" : "false")
         << "},\n  \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
      json << "\"" << failures[i] << "\""
           << (i + 1 < failures.size() ? ", " : "");
    json << "]\n}\n";
  }
  std::cout << "\nwrote " << json_path << "\n";

  burstq::bench::emit_obs_summary("scaling_placement");

  for (const auto& f : failures) std::cerr << "FAILURE: " << f << "\n";
  BURSTQ_REQUIRE(failures.empty(), "placement scaling study found "
                                   "divergences (see BENCH_placement.json)");
  return 0;
}

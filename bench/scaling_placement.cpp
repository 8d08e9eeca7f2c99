// Scaling study for the placement engines (see docs/PERFORMANCE.md):
// first-fit under Eq. (17) with the O(log m) slack-tree descent vs the
// O(m) linear scan, at 10^4-10^6 VMs.
//
// Three drivers are compared on identical instances and visit orders:
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
//                 O(log m) per VM.
//
// naive/naive-walk must be bit-identical to incremental.
//
// Each size runs on two fleets.  The "stress" fleet is the historical
// saturated one (m = n/8, n/10 at 10^6): most VMs end up unplaced and
// every unplaced VM descends the whole tree.  The "right-sized" fleet is
// the incremental engine's own pms_used on an ample fleet (n/4 PMs) plus
// 10% headroom, the shape a user would run.  Every row reports its
// unplaced count.  The stress rows come first, so drivers[0] is the
// stress incremental row of the first size.
//
// It also times QueuingFFD end-to-end on the stress fleet (naive vs
// incremental engine, MapCal cache cleared before each run) and verifies
// the MapCal memoization: a second identical run must perform zero new
// stationary solves (`mapcal.table.builds` delta == 0).
//
// Output: console table, scaling_placement.csv, and a machine-readable
// BENCH_placement.json in the output directory (bench_out/ or
// BURSTQ_OUT_DIR).  The JSON is written BEFORE any divergence aborts the
// process, so CI artifacts capture failing runs too.
//
// Usage: scaling_placement [--n N] [--large] [--smoke] [--walk-cap N]
//                          [--naive-cap N] [--threads T]

#include <algorithm>
#include <chrono>
#include <cmath>
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
  std::string fleet;  ///< "stress" or "right-sized"
  std::string engine;
  double seconds{0.0};
  std::size_t pms_used{0};
  std::size_t unplaced{0};
  bool identical{true};  ///< vs incremental
  /// Incremental rows only: the Algorithm-2 visit order's time, and the
  /// engine's deterministic work counts (gated exactly in CI).
  std::optional<double> order_seconds;
  IncrementalStats stats;
};

/// Fleet headroom over the incremental engine's own pms_used.
constexpr double kHeadroom = 0.10;

/// `inst`'s VMs on a right-sized fleet: the PMs first-fit uses on an
/// ample fleet of n/4 PMs (the stress PMs, then fresh draws from `rng`),
/// plus kHeadroom.  First-fit only looks past a PM that refused a VM, so
/// while the kept prefix holds every PM it used, the placement is the
/// same.
ProblemInstance right_sized(const ProblemInstance& inst,
                            const std::vector<std::size_t>& order,
                            const MapCalTable& table, Rng& rng) {
  const InstanceRanges ranges{};
  ProblemInstance sized = inst;
  while (sized.pms.size() < std::max<std::size_t>(inst.n_vms() / 4, 1))
    sized.pms.push_back(
        PmSpec{rng.uniform(ranges.capacity_lo, ranges.capacity_hi)});
  const std::size_t used =
      first_fit_place_reservation(sized, order, table).pms_used();
  const auto m = static_cast<std::size_t>(
      std::ceil(static_cast<double>(used) * (1.0 + kHeadroom)));
  sized.pms.resize(std::clamp<std::size_t>(m, 1, sized.pms.size()));
  return sized;
}

}  // namespace

int main(int argc, char** argv) {
  using burstq::bench::banner;
  using burstq::bench::open_csv;

  ArgParser args("scaling_placement",
                 "incremental vs naive first-fit scaling study");
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
  if (threads_arg > 0) set_thread_count_override(threads_arg);

  const OnOffParams params = paper_onoff_params();
  QueuingFfdOptions naive_opt;
  naive_opt.engine = PlacementEngine::kNaive;
  QueuingFfdOptions incr_opt;
  incr_opt.engine = PlacementEngine::kIncremental;

  std::vector<Row> rows;
  std::vector<std::string> failures;  ///< reported AFTER the JSON lands
  struct EndToEnd {
    std::size_t n{0};
    double naive_s{0.0}, incremental_s{0.0};
    double speedup{0.0};  ///< naive / incremental (0 when skipped)
  };
  std::vector<EndToEnd> e2e;

  // Times every driver on one fleet, checks naive/naive-walk against
  // incremental, and prints the size's table.
  const auto run_drivers = [&](const std::string& fleet,
                               const ProblemInstance& inst,
                               const std::vector<std::size_t>& order,
                               const MapCalTable& table, double order_s) {
    const std::size_t n = inst.n_vms();
    const std::size_t m = inst.n_pms();
    const auto fits = [&](const Placement& p, VmId vm, PmId pm) {
      return fits_with_reservation(inst, p, vm, pm, table);
    };
    banner("first-fit drivers, " + fleet + " fleet, n = " +
           std::to_string(n) + " VMs, m = " + std::to_string(m) + " PMs");
    ConsoleTable out({"engine", "seconds", "PMs used", "unplaced",
                      "identical"});
    const std::size_t row_base = rows.size();
    const auto add_row = [&](const std::string& engine, double seconds,
                             const PlacementResult& r, bool identical) {
      rows.push_back({n, m, fleet, engine, seconds, r.pms_used(),
                      r.unplaced.size(), identical, std::nullopt, {}});
      if (!identical)
        failures.push_back("incremental placement diverged from " + engine +
                           " on the " + fleet + " fleet at n = " +
                           std::to_string(n));
    };

    PlacementResult incr{Placement(1, 1), {}};
    IncrementalStats stats;
    const double incr_s = time_s([&] {
      incr = first_fit_place_reservation(inst, order, table, &stats);
    });
    add_row("incremental", incr_s, incr, true);
    rows.back().order_seconds = order_s;
    rows.back().stats = stats;

    if (n <= naive_cap) {
      PlacementResult naive{Placement(1, 1), {}};
      const double naive_s =
          time_s([&] { naive = first_fit_place(inst, order, fits); });
      add_row("naive", naive_s, naive, same_placement(inst, naive, incr));
    }
    if (n <= walk_cap) {
      PlacementResult walk{Placement(1, 1), {}};
      const double walk_s =
          time_s([&] { walk = first_fit_walk(inst, order, table); });
      add_row("naive-walk", walk_s, walk, same_placement(inst, walk, incr));
    }

    for (auto it = rows.begin() + static_cast<std::ptrdiff_t>(row_base);
         it != rows.end(); ++it)
      out.add_row({it->engine, ConsoleTable::num(it->seconds, 4),
                   std::to_string(it->pms_used), std::to_string(it->unplaced),
                   it->identical ? "yes" : "NO"});
    out.add_row({"(tree descents)", std::to_string(stats.tree_descents),
                 "exact checks", std::to_string(stats.exact_checks), ""});
    out.add_row({"(visit order)", ConsoleTable::num(order_s, 4), "", "", ""});
    out.print(std::cout);
  };

  for (const std::size_t n : sizes) {
    // The stress fleet: the paper-sized 10^6 VMs on 10^5 PMs at the
    // acceptance scale, the historical n/8 below it.
    const std::size_t m = n >= 1'000'000 ? n / 10 : n / 8;
    Rng rng(4242 + n);
    const auto inst = random_instance(n, m, params, InstanceRanges{}, rng);
    std::vector<std::size_t> order;
    const double order_s = time_s([&] {
      order = queuing_ffd_order(inst.vms, naive_opt.cluster_buckets);
    });
    const MapCalTable table(naive_opt.max_vms_per_pm, params, naive_opt.rho,
                            naive_opt.method);
    run_drivers("stress", inst, order, table, order_s);

    // End-to-end Algorithm 2 on the stress fleet, cold MapCal cache for
    // every engine.
    EndToEnd e{n, 0.0, 0.0, 0.0};
    QueuingFfdOutcome b{{Placement(1, 1), {}},
                        MapCalTable(1, params, naive_opt.rho),
                        params};
    mapcal_table_cache_clear();
    e.incremental_s = time_s([&] { b = queuing_ffd(inst, incr_opt); });
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
              << " s\n";

    // The same VMs and visit order on the right-sized fleet.
    run_drivers("right-sized", right_sized(inst, order, table, rng), order,
                table, order_s);
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
  csv.row({"n", "m", "fleet", "engine", "seconds", "pms_used", "unplaced",
           "identical"});
  for (const auto& r : rows) {
    csv.begin_row();
    csv.field(r.n).field(r.m).field(r.fleet).field(r.engine).field(r.seconds);
    csv.field(r.pms_used).field(r.unplaced).field(r.identical ? "yes" : "no");
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
         << ", \"threads\": " << default_thread_count() << "},\n"
         << "  \"drivers\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      json << "    {\"n\": " << r.n << ", \"m\": " << r.m
           << ", \"fleet\": \"" << r.fleet << "\", \"engine\": \""
           << r.engine << "\", \"seconds\": " << r.seconds
           << ", \"pms_used\": " << r.pms_used
           << ", \"unplaced\": " << r.unplaced << ", \"identical\": "
           << (r.identical ? "true" : "false");
      if (r.order_seconds)
        json << ", \"order_seconds\": " << *r.order_seconds
             << ", \"tree_descents\": " << r.stats.tree_descents
             << ", \"exact_checks\": " << r.stats.exact_checks;
      json << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"queuing_ffd_end_to_end\": [\n";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      const auto& e = e2e[i];
      json << "    {\"n\": " << e.n << ", \"naive_seconds\": " << e.naive_s
           << ", \"incremental_seconds\": " << e.incremental_s
           << ", \"speedup\": " << e.speedup << "}"
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

// burstq_cli — command-line multi-tool.
//
//   burstq_cli place   --vms specs.csv [--strategy ...] [...]
//       consolidate a fleet; VM->PM mapping CSV on stdout
//   burstq_cli analyze --vms specs.csv --mapping map.csv [...]
//       per-PM reservation report for an existing mapping
//   burstq_cli fit     --trace demands.csv
//       estimate (p_on,p_off,rb,re) per VM from a demand trace;
//       VM spec CSV on stdout (feed it back into `place`)
//   burstq_cli replay  --log flight.jsonl|flight.btrc
//       re-derive CVR totals from a recorded flight log
//   burstq_cli sim     --vms specs.csv [--slots N] [--fault-plan ...]
//       place then run the dynamic cluster simulator, optionally with
//       deterministic fault injection (PM crashes, migration faults,
//       solver outages); key=value report on stdout
//   burstq_cli trace   <header|head|tail|tocsv|query|profile|flame>
//       inspect and analyze a recorded flight log without a custom
//       reader: header prints the BTRC schema, head/tail/tocsv print
//       events as pipe-friendly id,kind,key,value CSV (any recorded
//       format); head/tail --at-offset N resolve a harness or `slo
//       explain` trace pointer (read from byte N instead of the file
//       start); query filters events with a small expression language
//       ("kind=slot.obs, t>=57, t<=70"); profile reconstructs the
//       sampled span tree (inclusive/exclusive time, per-slot critical
//       paths); flame emits collapsed stacks for flamegraph.pl and,
//       with --svg, a self-contained SVG flame graph
//   burstq_cli slo     explain --log FILE
//       re-derive SLO breach episodes from a recorded trace (flight
//       replay) and explain each one: window, dominant events/spans,
//       top violating PMs, byte-offset trace pointers
//   burstq_cli harness <run|list|report> ...
//       the scenario + invariants harness ("physics CI"): run executes
//       scenario files and writes per-invariant JSON reports plus
//       flight-recorder traces, list inventories scenarios or the
//       invariant catalog, report re-renders written reports
//   burstq_cli state   <inspect|restore|snapshot> --dir DIR
//       tooling over a crash-durable state directory (src/durable):
//       inspect inventories snapshots and journals (including torn
//       tails), restore dry-runs a recovery and prints where it would
//       resume, snapshot exports a verified snapshot blob to a file
//
// Subcommands that do real work accept --obs-out FILE (record a
// structured event log: JSONL, or with a .btrc extension the binary
// columnar flight-recorder format),
// --obs-level off|decisions|detail, --obs-fsync (fsync the sink on
// every flush), --obs-span-sample N (emit one span in N as
// span.begin/span.end events; 0 = off), --obs-span-clock wall|virtual
// (virtual = deterministic tick timestamps for byte-identical
// profiles), and --obs-summary (print a metrics digest to stderr on
// exit).
//
// Exit codes: 0 success, 1 bad usage/input/abort, 2 some VMs could not
// be placed (place subcommand only), 3 a harness invariant failed.

#include <algorithm>
#include <charconv>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/args.h"
#include "common/csv.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/consolidator.h"
#include "durable/durable.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "durable/wal.h"
#include "fault/plan.h"
#include "fit/estimator.h"
#include "fit/instance_io.h"
#include "fit/trace_io.h"
#include "harness/runner.h"
#include "obs/exporter.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/query.h"
#include "obs/slo.h"
#include "obs/summary.h"
#include "obs/trace.h"
#include "placement/hetero_ffd.h"
#include "placement/quantile_ffd.h"
#include "placement/sbp.h"
#include "sim/cluster_sim.h"
#include "sim/flight.h"

namespace {

using namespace burstq;

int usage_all() {
  std::cerr
      << "usage: burstq_cli "
         "<place|analyze|fit|replay|sim|trace|slo|harness|state> "
         "[options]\n"
         "  place    consolidate VM specs onto a PM fleet\n"
         "  analyze  report per-PM reservations of an existing mapping\n"
         "  fit      estimate ON-OFF specs from a demand trace CSV\n"
         "  replay   re-derive CVR totals from a recorded flight log\n"
         "  sim      place + dynamic simulation with optional fault "
         "injection\n"
         "  trace    inspect/analyze a recorded flight log "
         "(header|head|tail|tocsv|query|profile|flame)\n"
         "  slo      explain SLO breach episodes from a recorded trace "
         "(explain)\n"
         "  harness  scenario + invariants harness (run|list|report)\n"
         "  state    inspect/fsck/export a crash-durable state dir "
         "(inspect|restore|snapshot)\n"
         "run 'burstq_cli <subcommand> --help-usage x' for options\n";
  return 1;
}

ArgParser& add_obs_options(ArgParser& args) {
  args.add_option("obs-out",
                  "record a structured event log here (.jsonl, or .btrc for "
                  "the binary columnar format; export CSV with trace "
                  "tocsv)");
  args.add_option("obs-level", "event level: off | decisions | detail",
                  "decisions");
  args.add_flag("obs-compress",
                "LZ-compress BTRC blocks (.btrc sinks only)");
  args.add_flag("obs-fsync",
                "fsync the event sink on every flush (durability for the "
                "trace itself; counted as obs.trace.fsyncs)");
  args.add_option("obs-span-sample",
                  "emit one span in N as span.begin/span.end events "
                  "(0 = off; needs a detail-level sink)",
                  "0");
  args.add_option("obs-span-clock",
                  "span event timestamps: wall | virtual (virtual = "
                  "deterministic tick, for byte-identical profiles)",
                  "wall");
  args.add_flag("obs-summary", "print a metrics digest to stderr on exit");
  return args;
}

/// Opens the global event log per --obs-out/--obs-level/--obs-fsync and
/// configures span-event sampling.
void open_obs(const ArgParser& args) {
  obs::SpanEventOptions span_opt;
  span_opt.sample_every =
      static_cast<std::uint32_t>(args.get_int("obs-span-sample"));
  const std::string clock = args.get("obs-span-clock");
  if (clock == "virtual") {
    span_opt.virtual_clock = true;
  } else if (clock != "wall") {
    throw InvalidArgument("--obs-span-clock must be wall or virtual, got '" +
                          clock + "'");
  }
  obs::set_span_events(span_opt);
  if (!args.has("obs-out")) return;
  const std::string path = args.get("obs-out");
  obs::events().open(path, obs::event_format_from_path(path),
                     obs::parse_event_level(args.get("obs-level")),
                     args.flag("obs-compress"));
  if (args.flag("obs-fsync")) obs::events().set_fsync(true);
}

/// Closes the event log and honours --obs-summary.
void finish_obs(const ArgParser& args) {
  if (args.has("obs-out")) obs::events().close();
  if (args.flag("obs-summary")) obs::print_summary(std::cerr);
}

ArgParser& add_thread_option(ArgParser& args) {
  args.add_option("threads",
                  "worker threads for parallel stages "
                  "(0 = BURSTQ_THREADS or hardware)",
                  "0");
  return args;
}

/// Applies --threads via the process-wide override (common/parallel.h).
void apply_thread_option(const ArgParser& args) {
  const auto t = static_cast<std::size_t>(args.get_int("threads"));
  if (t > 0) set_thread_count_override(t);
}

ProblemInstance load_instance(const ArgParser& args) {
  ProblemInstance inst;
  inst.vms = read_vm_specs_csv(args.get("vms"));
  if (args.has("pms-file")) {
    inst.pms = read_pm_specs_csv(args.get("pms-file"));
  } else {
    const auto m = args.has("pms")
                       ? static_cast<std::size_t>(args.get_int("pms"))
                       : inst.vms.size();
    inst.pms.assign(m, PmSpec{args.get_double("capacity")});
  }
  return inst;
}

QueuingFfdOptions load_options(const ArgParser& args) {
  QueuingFfdOptions opt;
  opt.rho = args.get_double("rho");
  opt.max_vms_per_pm = static_cast<std::size_t>(args.get_int("d"));
  // --engine is only declared by `place`; has() is false for subcommands
  // that never registered it.
  if (args.has("engine")) {
    const std::string engine = args.get("engine");
    if (engine == "incremental") {
      opt.engine = PlacementEngine::kIncremental;
    } else if (engine == "naive") {
      opt.engine = PlacementEngine::kNaive;
    } else {
      throw InvalidArgument("unknown engine: " + engine);
    }
  }
  return opt;
}

int cmd_place(int argc, const char* const* argv) {
  ArgParser args("burstq_cli place", "consolidate a fleet");
  args.add_option("vms", "CSV of VM specs (p_on,p_off,rb,re)");
  args.add_option("strategy",
                  "queue | rp | rb | rbex | sbp | hetero | quantile",
                  "queue");
  args.add_option("capacity", "uniform PM capacity", "96");
  args.add_option("pms", "PM pool size (default: one per VM)");
  args.add_option("pms-file", "CSV of PM capacities");
  args.add_option("rho", "CVR budget", "0.01");
  args.add_option("d", "max VMs per PM", "16");
  args.add_option("engine",
                  "queue-strategy driver: incremental | naive",
                  "incremental");
  args.add_flag("quiet", "suppress the stderr summary");
  add_thread_option(args);
  add_obs_options(args);
  if (!args.parse(argc, argv) || !args.has("vms")) {
    std::cerr << (args.error().empty() ? "--vms is required" : args.error())
              << "\n\n"
              << args.usage();
    return 1;
  }
  apply_thread_option(args);
  open_obs(args);

  const auto inst = load_instance(args);
  const auto opt = load_options(args);
  const std::string strategy = args.get("strategy");
  obs::events().set_run_label("place/" + strategy);

  const PlacementResult placed = [&]() -> PlacementResult {
    if (strategy == "queue") return queuing_ffd(inst, opt).result;
    if (strategy == "rp") return ffd_by_peak(inst, opt.max_vms_per_pm);
    if (strategy == "rb") return ffd_by_normal(inst, opt.max_vms_per_pm);
    if (strategy == "rbex")
      return ffd_reserved(inst, 0.3, opt.max_vms_per_pm);
    if (strategy == "sbp")
      return sbp_normal(inst, opt.rho, opt.max_vms_per_pm);
    if (strategy == "hetero") {
      HeteroFfdOptions hopt;
      hopt.rho = opt.rho;
      hopt.max_vms_per_pm = opt.max_vms_per_pm;
      return queuing_ffd_hetero(inst, hopt);
    }
    if (strategy == "quantile") {
      QuantileFfdOptions qopt;
      qopt.reservation.rho = opt.rho;
      qopt.max_vms_per_pm = opt.max_vms_per_pm;
      return queuing_ffd_quantile(inst, qopt);
    }
    throw InvalidArgument("unknown strategy: " + strategy);
  }();

  std::cout << "vm,pm\n";
  for (std::size_t i = 0; i < inst.n_vms(); ++i) {
    const PmId pm = placed.placement.pm_of(VmId{i});
    std::cout << i << "," << (pm.valid() ? std::to_string(pm.value) : "-")
              << "\n";
  }
  if (!args.flag("quiet")) {
    const Consolidator consolidator(opt);
    const auto analysis = consolidator.analyze(inst, placed.placement);
    std::cerr << "strategy=" << strategy << " vms=" << inst.n_vms()
              << " pms_used=" << placed.pms_used()
              << " unplaced=" << placed.unplaced.size()
              << " worst_cvr_bound=" << analysis.worst_cvr_bound
              << " total_reserved=" << analysis.total_reserved << "\n";
  }
  finish_obs(args);
  return placed.complete() ? 0 : 2;
}

int cmd_analyze(int argc, const char* const* argv) {
  ArgParser args("burstq_cli analyze",
                 "per-PM reservation report for an existing mapping");
  args.add_option("vms", "CSV of VM specs");
  args.add_option("mapping", "CSV with header vm,pm (as `place` emits)");
  args.add_option("capacity", "uniform PM capacity", "96");
  args.add_option("pms", "PM pool size (default: one per VM)");
  args.add_option("pms-file", "CSV of PM capacities");
  args.add_option("rho", "CVR budget", "0.01");
  args.add_option("d", "max VMs per PM", "16");
  add_obs_options(args);
  if (!args.parse(argc, argv) || !args.has("vms") || !args.has("mapping")) {
    std::cerr << (args.error().empty() ? "--vms and --mapping are required"
                                       : args.error())
              << "\n\n"
              << args.usage();
    return 1;
  }
  open_obs(args);

  const auto inst = load_instance(args);
  Placement placement(inst.n_vms(), inst.n_pms());
  {
    std::ifstream in(args.get("mapping"));
    if (!in.is_open()) {
      std::cerr << "cannot open mapping: " << args.get("mapping") << "\n";
      return 1;
    }
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::stringstream ss(line);
      std::string vm_s;
      std::string pm_s;
      std::getline(ss, vm_s, ',');
      std::getline(ss, pm_s, ',');
      if (pm_s == "-" || pm_s.empty()) continue;
      placement.assign(VmId{std::stoul(vm_s)}, PmId{std::stoul(pm_s)});
    }
  }

  const Consolidator consolidator(load_options(args));
  const auto analysis = consolidator.analyze(inst, placement);
  std::cout << "pm,vms,blocks,block_size,reserved,rb_sum,capacity,"
               "cvr_bound\n";
  for (const auto& pm : analysis.pms) {
    std::cout << pm.pm << "," << pm.vms << "," << pm.blocks << ","
              << pm.block_size << "," << pm.reserved << "," << pm.rb_sum
              << "," << pm.capacity << "," << pm.cvr_bound << "\n";
  }
  std::cerr << "pms_used=" << analysis.pms_used
            << " worst_cvr_bound=" << analysis.worst_cvr_bound << "\n";
  finish_obs(args);
  return 0;
}

int cmd_replay(int argc, const char* const* argv) {
  ArgParser args("burstq_cli replay",
                 "re-derive CVR totals from a recorded flight log "
                 "(JSONL or BTRC, recorded at --obs-level detail)");
  args.add_option("log", "flight-recorder file (.jsonl or .btrc)");
  args.add_flag("per-pm", "also emit per-PM CVR CSV on stdout");
  args.add_option("slo-fast", "fast SLO window in slots", "10");
  args.add_option("slo-slow", "slow SLO window in slots", "120");
  if (!args.parse(argc, argv) || !args.has("log")) {
    std::cerr << (args.error().empty() ? "--log is required" : args.error())
              << "\n\n"
              << args.usage();
    return 1;
  }

  obs::SloOptions slo_opts;  // rho is taken from each recorded header
  slo_opts.fast_window = static_cast<std::size_t>(args.get_int("slo-fast"));
  slo_opts.slow_window = static_cast<std::size_t>(args.get_int("slo-slow"));
  const auto segments = replay_flight_log(args.get("log"), &slo_opts);
  if (segments.empty()) {
    std::cerr << "no sim.config segments in " << args.get("log")
              << " (was the run recorded at --obs-level detail?)\n";
    return 1;
  }

  ConsoleTable table({"run", "PMs", "slots", "mean CVR", "max CVR",
                      "migrations", "failed", "window resets"});
  for (const auto& seg : segments) {
    table.add_row({seg.label, std::to_string(seg.n_pms),
                   std::to_string(seg.slots_seen),
                   ConsoleTable::num(seg.tracker.mean_cvr(), 4),
                   ConsoleTable::num(seg.tracker.max_cvr(), 4),
                   std::to_string(seg.migrations),
                   std::to_string(seg.failed_migrations),
                   std::to_string(seg.window_resets)});
  }
  table.print(std::cerr);

  // SLO audit: observed CVR vs the run's recorded rho budget, per window.
  ConsoleTable slo_table({"run", "rho", "cum CVR", "fast burn", "slow burn",
                          "breaches", "PMs > rho", "verdict"});
  bool slo_ok = true;
  for (const auto& seg : segments) {
    if (!seg.slo) continue;
    const obs::SloReport r = seg.slo->report();
    std::size_t pms_above = 0;
    for (const auto& pm : r.pms) pms_above += pm.above_rho ? 1 : 0;
    slo_table.add_row({seg.label, ConsoleTable::num(r.rho, 4),
                       ConsoleTable::num(r.cumulative.cvr, 4),
                       ConsoleTable::num(r.fast.burn, 2),
                       ConsoleTable::num(r.slow.burn, 2),
                       std::to_string(r.breaches),
                       std::to_string(pms_above), r.verdict()});
    if (!r.ok()) slo_ok = false;
  }
  slo_table.set_title("SLO audit (observed CVR vs recorded rho)");
  slo_table.print(std::cerr);
  std::cerr << "slo.verdict=" << (slo_ok ? "PASS" : "FAIL") << "\n";

  if (args.flag("per-pm")) {
    std::cout << "run,pm,observed_slots,violations,cvr,windowed_cvr\n";
    for (const auto& seg : segments)
      for (std::size_t j = 0; j < seg.n_pms; ++j) {
        const PmId pm{j};
        if (seg.tracker.observed_slots(pm) == 0) continue;
        std::cout << seg.label << "," << j << ","
                  << seg.tracker.observed_slots(pm) << ","
                  << seg.tracker.violations(pm) << ","
                  << seg.tracker.cvr(pm) << ","
                  << seg.tracker.windowed_cvr(pm) << "\n";
      }
  }
  return 0;
}

int cmd_trace(int argc, const char* const* argv) {
  const std::string verb = argc >= 2 ? argv[1] : "";
  const bool known_verb = verb == "header" || verb == "head" ||
                          verb == "tail" || verb == "tocsv" ||
                          verb == "query" || verb == "profile" ||
                          verb == "flame";
  ArgParser args("burstq_cli trace " + (known_verb ? verb : "<verb>"),
                 "inspect or analyze a recorded flight log; header shows "
                 "the BTRC schema, head/tail/tocsv/query emit "
                 "id,kind,key,value CSV, profile/flame aggregate span "
                 "events");
  args.add_option("log", "recorded flight log (.btrc or .jsonl)");
  args.add_option("n", "events for head/tail", "10");
  args.add_alias('n', "n");
  args.add_option("at-offset",
                  "head/tail: start at this byte offset (a harness report "
                  "trace_pointer; BTRC block boundary or JSONL line start)");
  args.add_option("where",
                  "query: filter expression, comma = AND; clauses "
                  "key<op>value with op in = != < <= > >=; 'kind' matches "
                  "the event kind (e.g. \"kind=slot.obs,viol>0\")");
  args.add_option("limit", "query: stop after N matching events", "0");
  args.add_flag("count", "query: print only the match count");
  args.add_option("top", "profile: rows per table", "24");
  args.add_flag("collapsed",
                "profile: print collapsed stacks (flamegraph input) "
                "instead of the report");
  args.add_option("svg", "flame: also write a self-contained SVG here");
  args.add_option("title", "flame: SVG title (default: trace stem)");
  if (!known_verb) {
    std::cerr << "usage: burstq_cli trace "
                 "<header|head|tail|tocsv|query|profile|flame> "
                 "--log FILE [-n N] [--where EXPR] [--svg FILE]\n";
    return 1;
  }
  if (!args.parse(argc - 1, argv + 1) || !args.has("log")) {
    std::cerr << (args.error().empty() ? "--log is required" : args.error())
              << "\n\n"
              << args.usage();
    return 1;
  }
  if (!obs::kEnabled) {
    std::cerr << "error: 'trace' is unavailable in this binary: it was "
                 "built with -DBURSTQ_NO_OBS, which strips the flight "
                 "recorder; rebuild without BURSTQ_NO_OBS\n";
    return 2;
  }
  const std::string path = args.get("log");
  const auto n = static_cast<std::size_t>(args.get_int("n"));

  if (verb == "header") {
    const obs::EventFormat format = obs::sniff_event_format(path);
    if (format != obs::EventFormat::kBinary) {
      std::cerr << "error: " << path << " is "
                << obs::format_name(format)
                << ", not BTRC; 'trace header' reads the binary schema "
                   "(use head/tocsv for text logs)\n";
      return 1;
    }
    const obs::TraceFileInfo info = obs::read_trace_info(path);
    std::cout << "version=" << static_cast<int>(info.version) << "\n"
              << "compressed=" << (info.compressed ? "true" : "false")
              << "\n"
              << "events=" << info.events << "\n"
              << "data_blocks=" << info.data_blocks << "\n"
              << "schema_blocks=" << info.schema_blocks << "\n"
              << "kinds=" << info.kinds.size() << "\n"
              << "kind_id,kind,rows,column,type\n";
    for (const auto& kind : info.kinds)
      for (const auto& col : kind.columns)
        std::cout << kind.id << ',' << csv_escape(kind.name) << ','
                  << kind.rows << ',' << csv_escape(col.name) << ','
                  << col.type_name() << '\n';
    return 0;
  }

  if (verb == "profile" || verb == "flame") {
    const obs::SpanProfile prof = obs::profile_trace(path);
    if (verb == "profile") {
      if (args.flag("collapsed")) {
        std::cout << prof.render_collapsed();
      } else {
        obs::SpanProfileOptions popt;
        popt.top = static_cast<std::size_t>(args.get_int("top"));
        std::cout << prof.render(popt);
      }
      return 0;
    }
    // flame: collapsed stacks on stdout, optional SVG on the side.
    std::cout << prof.render_collapsed();
    if (args.has("svg")) {
      const std::string title =
          args.has("title")
              ? args.get("title")
              : std::filesystem::path(path).stem().string();
      const std::string svg = obs::render_flame_svg(prof.collapsed, title);
      std::ofstream out(args.get("svg"), std::ios::binary);
      BURSTQ_REQUIRE(out.good(),
                     "cannot open --svg output: " + args.get("svg"));
      out << svg;
      std::cerr << "flame.svg=" << args.get("svg")
                << " stacks=" << prof.collapsed.size() << "\n";
    }
    return 0;
  }

  if (verb == "query") {
    const obs::Query query = obs::Query::parse(args.get("where"));
    const auto limit = static_cast<std::uint64_t>(args.get_int("limit"));
    const bool count_only = args.flag("count");
    if (!count_only) std::cout << obs::kEventCsvHeader;
    std::uint64_t matched = 0;
    obs::scan_events(path, [&](const obs::RecordedEvent& ev,
                               std::uint64_t /*offset*/,
                               std::uint64_t index) {
      if (!query.matches(ev)) return true;
      ++matched;
      if (!count_only) obs::print_event_csv(std::cout, ev, index);
      return limit == 0 || matched < limit;
    });
    if (count_only) std::cout << "matches=" << matched << "\n";
    return 0;
  }

  // head, tail and tocsv stream the trace once.  --at-offset resolves a
  // harness or `slo explain` trace pointer: the walk starts at that byte
  // and ids count from it.
  std::optional<std::uint64_t> start;
  if (verb != "tocsv" && args.has("at-offset"))
    start = static_cast<std::uint64_t>(args.get_int("at-offset"));
  std::cout << obs::kEventCsvHeader;
  if (verb == "tocsv" || verb == "head") {
    const std::uint64_t limit =
        verb == "head" ? n : std::numeric_limits<std::uint64_t>::max();
    obs::scan_events(
        path,
        [&](const obs::RecordedEvent& ev, std::uint64_t,
            std::uint64_t index) {
          if (index >= limit) return false;
          obs::print_event_csv(std::cout, ev, index);
          return index + 1 < limit;
        },
        start);
    return 0;
  }
  // tail: keep a bounded window of the last n events.
  std::deque<obs::RecordedEvent> window;
  const std::uint64_t total = obs::scan_events(
      path,
      [&](const obs::RecordedEvent& ev, std::uint64_t, std::uint64_t) {
        window.push_back(ev);
        if (window.size() > n) window.pop_front();
        return true;
      },
      start);
  for (std::size_t i = 0; i < window.size(); ++i)
    obs::print_event_csv(std::cout, window[i], total - window.size() + i);
  return 0;
}

int cmd_slo(int argc, const char* const* argv) {
  const std::string verb = argc >= 2 ? argv[1] : "";
  const bool known_verb = verb == "explain";
  ArgParser args("burstq_cli slo " + (known_verb ? verb : "<verb>"),
                 "re-derive SLO breach episodes from a recorded flight "
                 "log and explain each one (dominant events/spans, top "
                 "violating PMs, trace pointers)");
  args.add_option("log", "recorded flight log (.btrc or .jsonl)");
  args.add_option("slo-fast", "fast burn-rate window in slots", "10");
  args.add_option("slo-slow", "slow burn-rate window in slots", "120");
  args.add_option("slo-burn",
                  "burn-rate threshold that opens a breach episode",
                  "1.0");
  args.add_option("top", "events/spans/PMs listed per episode", "8");
  args.add_flag("no-pointers",
                "omit 'pointer trace_offset=' lines (reports become "
                "comparable across trace formats)");
  if (!known_verb) {
    std::cerr << "usage: burstq_cli slo explain --log FILE [--top N]\n";
    return 1;
  }
  if (!args.parse(argc - 1, argv + 1) || !args.has("log")) {
    std::cerr << (args.error().empty() ? "--log is required" : args.error())
              << "\n\n"
              << args.usage();
    return 1;
  }
  SloExplainOptions opt;
  opt.slo.fast_window =
      static_cast<std::size_t>(args.get_int("slo-fast"));
  opt.slo.slow_window =
      static_cast<std::size_t>(args.get_int("slo-slow"));
  opt.slo.breach_burn = args.get_double("slo-burn");
  opt.top = static_cast<std::size_t>(args.get_int("top"));
  opt.pointers = !args.flag("no-pointers");
  std::cout << explain_slo_breaches(args.get("log"), opt);
  return 0;
}

int cmd_fit(int argc, const char* const* argv) {
  ArgParser args("burstq_cli fit",
                 "estimate ON-OFF specs from a demand-trace CSV "
                 "(header slot,vm0,vm1,...)");
  args.add_option("trace", "demand trace CSV (fit/trace_io format)");
  if (!args.parse(argc, argv) || !args.has("trace")) {
    std::cerr << (args.error().empty() ? "--trace is required" : args.error())
              << "\n\n"
              << args.usage();
    return 1;
  }
  const auto trace = read_demand_trace_csv(args.get("trace"));
  const std::size_t n_vms = trace.front().size();
  std::cout << "p_on,p_off,rb,re\n";
  std::vector<double> series(trace.size());
  for (std::size_t i = 0; i < n_vms; ++i) {
    for (std::size_t t = 0; t < trace.size(); ++t) series[t] = trace[t][i];
    const auto fit = fit_onoff_from_trace(series);
    std::cout << fit.spec.onoff.p_on << "," << fit.spec.onoff.p_off << ","
              << fit.spec.rb << "," << fit.spec.re << "\n";
    if (!fit.bursty)
      std::cerr << "vm" << i << ": trace never switches level (treated as "
                << "non-bursty)\n";
  }
  return 0;
}

}  // namespace

/// Assembles a FaultPlan from --fault-plan / --fault-p-* / --fault-seed.
/// Returns nullopt when no fault knob was given.
std::optional<fault::FaultPlan> load_fault_plan(const ArgParser& args) {
  fault::FaultPlan plan;
  if (args.has("fault-plan"))
    plan = fault::parse_fault_plan(args.get("fault-plan"));
  if (args.has("fault-p-crash"))
    plan.markov.p_crash = args.get_double("fault-p-crash");
  if (args.has("fault-p-recover"))
    plan.markov.p_recover = args.get_double("fault-p-recover");
  if (args.has("fault-p-mig-fail"))
    plan.markov.p_mig_fail = args.get_double("fault-p-mig-fail");
  if (args.has("fault-p-kill"))
    plan.markov.p_kill = args.get_double("fault-p-kill");
  plan.seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));
  plan.validate();
  if (!plan.any()) return std::nullopt;
  return plan;
}

ArgParser& add_fault_options(ArgParser& args) {
  args.add_option("fault-plan",
                  "scripted faults, e.g. "
                  "\"crash@10:pm=2;solver@15:slots=20;recover@40:pm=2\"");
  args.add_option("fault-p-crash", "per up-PM per-slot crash probability");
  args.add_option("fault-p-recover",
                  "per down-PM per-slot recovery probability");
  args.add_option("fault-p-mig-fail",
                  "per in-flight migration per-slot abort probability");
  args.add_option("fault-p-kill",
                  "per-slot process-kill probability (requires "
                  "--durable-dir)");
  args.add_option("fault-seed", "seed for the Markov fault draws", "1");
  return args;
}

ArgParser& add_durability_options(ArgParser& args) {
  args.add_option("durable-dir",
                  "crash-durable state directory (snapshots + WAL); "
                  "required for kill faults, wiped at start of run");
  args.add_option("durable-every", "snapshot cadence in slots", "25");
  args.add_flag("durable-fsync", "fsync snapshot and WAL writes");
  return args;
}

int cmd_sim(int argc, const char* const* argv) {
  ArgParser args("burstq_cli sim",
                 "place a fleet, then run the dynamic cluster simulator "
                 "with optional deterministic fault injection");
  args.add_option("vms", "CSV of VM specs (p_on,p_off,rb,re)");
  args.add_option("strategy", "queue | rp | rb | quantile", "queue");
  args.add_option("capacity", "uniform PM capacity", "96");
  args.add_option("pms", "PM pool size (default: one per VM)");
  args.add_option("pms-file", "CSV of PM capacities");
  args.add_option("rho", "CVR budget", "0.01");
  args.add_option("d", "max VMs per PM", "16");
  args.add_option("slots", "simulated slots", "100");
  args.add_option("seed", "workload RNG seed", "42");
  args.add_option("cost-slots", "live-migration copy cost in slots", "1");
  args.add_option("cvr-window", "migration-trigger window in slots", "10");
  args.add_option("slo-fast", "fast SLO window in slots", "10");
  args.add_option("slo-slow", "slow SLO window in slots", "120");
  add_thread_option(args);
  add_fault_options(args);
  add_durability_options(args);
  add_obs_options(args);
  obs::add_telemetry_options(args);
  if (!args.parse(argc, argv) || !args.has("vms")) {
    std::cerr << (args.error().empty() ? "--vms is required" : args.error())
              << "\n\n"
              << args.usage();
    return 1;
  }
  apply_thread_option(args);
  open_obs(args);
  obs::events().set_run_label("sim");

  const auto inst = load_instance(args);
  const auto opt = load_options(args);
  const std::string strategy = args.get("strategy");
  const PlacementResult placed = [&]() -> PlacementResult {
    if (strategy == "queue") return queuing_ffd(inst, opt).result;
    if (strategy == "rp") return ffd_by_peak(inst, opt.max_vms_per_pm);
    if (strategy == "rb") return ffd_by_normal(inst, opt.max_vms_per_pm);
    if (strategy == "quantile") {
      QuantileFfdOptions qopt;
      qopt.reservation.rho = opt.rho;
      qopt.max_vms_per_pm = opt.max_vms_per_pm;
      return queuing_ffd_quantile(inst, qopt);
    }
    throw InvalidArgument("unknown strategy: " + strategy);
  }();
  if (!placed.complete()) {
    std::cerr << "error: " << placed.unplaced.size()
              << " VMs could not be placed; grow the fleet (--pms) or "
                 "capacity\n";
    return 2;
  }

  SimConfig cfg;
  cfg.slots = static_cast<std::size_t>(args.get_int("slots"));
  cfg.policy.rho = opt.rho;
  cfg.policy.max_vms_per_pm = opt.max_vms_per_pm;
  cfg.policy.cost_slots =
      static_cast<std::size_t>(args.get_int("cost-slots"));
  cfg.policy.cvr_window =
      static_cast<std::size_t>(args.get_int("cvr-window"));
  cfg.faults = load_fault_plan(args);

  const bool has_kills = cfg.faults && cfg.faults->has_kills();
  if (has_kills && !args.has("durable-dir"))
    throw InvalidArgument(
        "kill faults need a restore path: pass --durable-dir DIR");
  if (args.has("durable-dir")) {
    durable::DurabilityConfig dur;
    dur.dir = args.get("durable-dir");
    dur.snapshot_every =
        static_cast<std::size_t>(args.get_int("durable-every"));
    dur.fsync = args.flag("durable-fsync");
    dur.validate();
    // Stale state from an earlier run must never leak into a restore.
    std::filesystem::remove_all(dur.dir);
    cfg.durability = dur;
  }

  obs::SloOptions slo_opts;
  slo_opts.rho = opt.rho;
  slo_opts.fast_window = static_cast<std::size_t>(args.get_int("slo-fast"));
  slo_opts.slow_window = static_cast<std::size_t>(args.get_int("slo-slow"));
  obs::SloTracker slo(inst.n_pms(), slo_opts);
  cfg.slo = &slo;

  std::unique_ptr<obs::TelemetryExporter> telemetry =
      obs::start_telemetry_from_args(args, &slo);
  if (telemetry)
    std::cerr << "telemetry: serving /metrics /healthz /slo on 127.0.0.1:"
              << telemetry->port() << "\n";

  // Kill-restore loop: a fired kill point throws SimKilled; restore from
  // the durable directory and resume until the run completes.  The final
  // report is byte-identical to an uninterrupted run (the durability
  // contract), so the key=value output below stays deterministic.
  const Rng sim_rng(static_cast<std::uint64_t>(args.get_int("seed")));
  std::size_t restores = 0;
  std::size_t worst_replay = 0;
  const SimReport rep = [&] {
    for (;;) {
      ClusterSimulator sim(inst, placed.placement, cfg, sim_rng);
      if (restores > 0) {
        const ClusterSimulator::RestoreInfo info =
            sim.restore_from_durable();
        worst_replay = std::max(worst_replay, info.replay_slots);
      }
      try {
        return sim.run();
      } catch (const durable::SimKilled& k) {
        ++restores;
        std::cerr << "kill point fired at slot " << k.slot
                  << "; restoring from " << cfg.durability->dir << "\n";
      }
    }
  }();
  if (telemetry) telemetry->stop();
  const obs::SloReport slo_rep = slo.report();

  // key=value lines: stable field order, deterministic values — two runs
  // with identical seeds must produce byte-identical output.
  std::cout << "strategy=" << strategy << "\n"
            << "vms=" << inst.n_vms() << "\n"
            << "slots=" << cfg.slots << "\n"
            << "migrations=" << rep.total_migrations << "\n"
            << "failed_migrations=" << rep.failed_migrations << "\n"
            << "pms_used_end=" << rep.pms_used_end << "\n"
            << "pms_used_max=" << rep.pms_used_max << "\n"
            << "mean_cvr=" << rep.mean_cvr << "\n"
            << "max_cvr=" << rep.max_cvr << "\n"
            << "energy_wh=" << rep.energy_wh << "\n"
            << "fault.pm_crashes=" << rep.faults.pm_crashes << "\n"
            << "fault.pm_recoveries=" << rep.faults.pm_recoveries << "\n"
            << "fault.evacuated=" << rep.faults.evacuated << "\n"
            << "fault.enqueued=" << rep.faults.enqueued << "\n"
            << "fault.queue_end=" << rep.faults.queue_end << "\n"
            << "fault.retries=" << rep.faults.retries << "\n"
            << "fault.migration_aborts=" << rep.faults.migration_aborts
            << "\n"
            << "fault.migration_stalls=" << rep.faults.migration_stalls
            << "\n"
            << "fault.solver_degraded=" << rep.faults.solver_degraded
            << "\n"
            << "fault.lost_vms=" << rep.faults.lost_vms << "\n";
  if (cfg.durability)
    std::cout << "durable.restores=" << restores << "\n"
              << "durable.replay_slots=" << worst_replay << "\n";
  std::cout << slo_rep.render();
  finish_obs(args);
  return rep.faults.lost_vms == 0 ? 0 : 1;
}

/// Walks a durable state dir and prints one line per snapshot/WAL pair.
/// Integrity problems are *reported*, not thrown — inspect is the tool
/// you reach for when something is already wrong.
int state_inspect(const durable::SnapshotStore& store) {
  const auto slots = store.snapshot_slots();
  if (slots.empty()) {
    std::cerr << "no snapshots in " << store.dir() << "\n";
    return 1;
  }
  std::cout << "slot,snapshot_bytes,blob_bytes,snapshot_status,"
               "wal_groups,wal_records,wal_valid_bytes,wal_status\n";
  for (const std::size_t slot : slots) {
    const std::string snap = store.snapshot_path(slot);
    std::uintmax_t snap_bytes = 0;
    {
      std::error_code ec;
      snap_bytes = std::filesystem::file_size(snap, ec);
    }
    std::size_t blob_bytes = 0;
    std::string status = "ok";
    try {
      blob_bytes = durable::SnapshotStore::load_file(snap).blob.size();
    } catch (const durable::CorruptState& e) {
      status = std::string("corrupt: ") + e.what();
    }
    const durable::WalScan scan = durable::scan_wal(store.wal_path(slot));
    std::size_t records = 0;
    for (const auto& g : scan.groups) records += g.records.size();
    const std::string wal_status = !scan.present
                                       ? (scan.torn ? "bad-header" : "absent")
                                       : (scan.torn ? "torn-tail" : "ok");
    std::cout << slot << ',' << snap_bytes << ',' << blob_bytes << ','
              << csv_escape(status) << ',' << scan.groups.size() << ','
              << records << ',' << scan.valid_bytes << ',' << wal_status
              << '\n';
  }
  return 0;
}

/// Dry-runs a recovery: verifies the newest snapshot loads and reports
/// the slot a restore would resume at.  This is the fsck you run before
/// trusting a state directory.
int state_restore(const durable::SnapshotStore& store) {
  std::optional<durable::RecoveryPoint> point;
  try {
    point = durable::recovery_point(store);
  } catch (const durable::CorruptState& e) {
    std::cerr << "restore would FAIL: " << e.what() << "\n";
    return 1;
  }
  if (!point) {
    std::cerr << "restore would FAIL: no snapshot in " << store.dir()
              << "\n";
    return 1;
  }
  std::cout << "snapshot=" << point->snapshot.path << "\n"
            << "snapshot_slot=" << point->snapshot.slot << "\n"
            << "blob_bytes=" << point->snapshot.blob.size() << "\n"
            << "replay_slots=" << point->suffix.size() << "\n"
            << "resume_slot=" << point->snapshot.slot + point->suffix.size()
            << "\n"
            << "wal_torn=" << (point->wal_torn ? "true" : "false") << "\n"
            << "verdict=OK\n";
  return 0;
}

int cmd_state(int argc, const char* const* argv) {
  const std::string verb = argc >= 2 ? argv[1] : "";
  const bool known_verb =
      verb == "inspect" || verb == "restore" || verb == "snapshot";
  ArgParser args("burstq_cli state " + (known_verb ? verb : "<verb>"),
                 "tooling over a crash-durable state directory: inspect "
                 "inventories snapshots and journals, restore dry-runs a "
                 "recovery, snapshot exports a verified blob");
  args.add_option("dir", "durable state directory (snap-*.bqss, wal-*.bqwl)");
  args.add_option("out", "snapshot verb: write the blob to this file");
  args.add_option("slot",
                  "snapshot verb: export this slot (default: newest)");
  if (!known_verb) {
    std::cerr << "usage: burstq_cli state <inspect|restore|snapshot> "
                 "--dir DIR [--out FILE] [--slot N]\n";
    return 1;
  }
  if (!args.parse(argc - 1, argv + 1) || !args.has("dir")) {
    std::cerr << (args.error().empty() ? "--dir is required" : args.error())
              << "\n\n"
              << args.usage();
    return 1;
  }
  const std::string dir = args.get("dir");
  if (!std::filesystem::is_directory(dir)) {
    std::cerr << "--dir " << dir << " is not a directory\n";
    return 1;
  }
  const durable::SnapshotStore store(dir, false);

  if (verb == "inspect") return state_inspect(store);
  if (verb == "restore") return state_restore(store);

  // snapshot: export one verified blob.
  if (!args.has("out")) {
    std::cerr << "state snapshot needs --out FILE\n";
    return 1;
  }
  durable::SnapshotStore::Loaded loaded;
  if (args.has("slot")) {
    const auto slot = static_cast<std::size_t>(args.get_int("slot"));
    loaded = durable::SnapshotStore::load_file(store.snapshot_path(slot));
  } else {
    auto newest = store.load_newest();
    if (!newest) {
      std::cerr << "no snapshot in " << dir << "\n";
      return 1;
    }
    loaded = std::move(*newest);
  }
  std::ofstream out(args.get("out"), std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "cannot open --out " << args.get("out") << "\n";
    return 1;
  }
  out.write(loaded.blob.data(),
            static_cast<std::streamsize>(loaded.blob.size()));
  out.close();
  std::cerr << "exported slot " << loaded.slot << " (" << loaded.blob.size()
            << " bytes) from " << loaded.path << "\n";
  return 0;
}

/// One line per scenario plus one per invariant, key=value formatted and
/// deterministic (shared by `harness run` and `harness report`).
void print_report_summary(const harness::ScenarioReport& rep) {
  std::cout << "scenario=" << rep.scenario << " status=" << rep.status
            << " slots=" << rep.slots_completed << "/" << rep.slots
            << " trace=" << rep.trace_file << " events=" << rep.trace_events
            << "\n";
  if (rep.status == "abort")
    std::cout << "  abort_reason=" << rep.abort_reason << "\n";
  for (const auto& inv : rep.invariants) {
    std::cout << "  invariant=" << harness::invariant_name(inv.kind)
              << " verdict=" << (inv.pass ? "PASS" : "FAIL")
              << " worst=" << csv_format(inv.worst) << " threshold="
              << harness::invariant_op_name(inv.op)
              << csv_format(inv.threshold);
    if (inv.window)
      std::cout << " window=" << inv.window->first << ".."
                << inv.window->second;
    if (inv.trace)
      std::cout << " trace_offset=" << inv.trace->offset
                << " event_index=" << inv.trace->event_index;
    std::cout << "\n";
  }
}

/// Collects the input files of a harness verb: --scenario/--report FILE
/// plus every `*.ext` under --dir, sorted by name for deterministic
/// ordering.
std::vector<std::string> harness_inputs(const ArgParser& args,
                                        const std::string& file_key,
                                        std::string_view ext) {
  std::vector<std::string> files;
  if (args.has(file_key)) files.push_back(args.get(file_key));
  if (args.has("dir")) {
    const std::string dir = args.get("dir");
    if (!std::filesystem::is_directory(dir))
      throw InvalidArgument("--dir " + dir + " is not a directory");
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > ext.size() &&
          name.compare(name.size() - ext.size(), ext.size(), ext) == 0)
        files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int cmd_harness(int argc, const char* const* argv) {
  const std::string verb = argc >= 2 ? argv[1] : "";
  const bool known_verb = verb == "run" || verb == "list" ||
                          verb == "report";
  ArgParser args("burstq_cli harness " + (known_verb ? verb : "<verb>"),
                 "scenario + invariants harness: run executes scenario "
                 "files and writes one JSON verdict per invariant next to "
                 "the flight-recorder trace; list inventories scenarios "
                 "(--catalog: the invariant catalog); report re-renders "
                 "written reports");
  args.add_option("scenario", "one scenario file (run/list)");
  args.add_option("dir",
                  "directory of inputs (run/list: *.scn; report: "
                  "*.report.json)");
  args.add_option("out", "output directory for reports and traces", ".");
  args.add_option("trace-format", "trace sink: jsonl | btrc", "jsonl");
  args.add_flag("compress", "LZ-compress BTRC trace blocks");
  args.add_flag("catalog", "list: print the invariant catalog instead");
  args.add_option("report", "one report file (report verb)");
  if (!known_verb) {
    std::cerr << "usage: burstq_cli harness <run|list|report> "
                 "[--scenario FILE | --dir DIR] [--out DIR] [options]\n";
    return 1;
  }
  if (!args.parse(argc - 1, argv + 1)) {
    std::cerr << args.error() << "\n\n" << args.usage();
    return 1;
  }

  if (verb == "list") {
    if (args.flag("catalog")) {
      std::cout << "name,description\n";
      for (const auto& info : harness::invariant_catalog())
        std::cout << info.name << "," << csv_escape(info.description)
                  << "\n";
      return 0;
    }
    const auto files = harness_inputs(args, "scenario", ".scn");
    if (files.empty()) {
      std::cerr << "nothing to list: pass --scenario FILE or --dir DIR "
                   "(or --catalog)\n";
      return 1;
    }
    std::cout << "name,slots,vms,pms,strategy,phases,faults,invariants,"
                 "file\n";
    for (const auto& file : files) {
      const harness::Scenario sc = harness::parse_scenario_file(file);
      std::cout << sc.name << "," << sc.slots << "," << sc.n_vms << ","
                << sc.n_pms << "," << sc.strategy << "," << sc.phases.size()
                << "," << sc.faults.scripted.size() << ","
                << sc.invariants.size() << "," << csv_escape(file) << "\n";
    }
    return 0;
  }

  if (verb == "report") {
    const auto files = harness_inputs(args, "report", ".report.json");
    if (files.empty()) {
      std::cerr << "nothing to report: pass --report FILE or --dir DIR\n";
      return 1;
    }
    bool any_fail = false;
    bool any_abort = false;
    for (const auto& file : files) {
      const harness::ScenarioReport rep = harness::load_report(file);
      print_report_summary(rep);
      if (rep.status == "abort") any_abort = true;
      if (!rep.all_pass() && rep.status != "abort") any_fail = true;
    }
    return any_abort ? 1 : any_fail ? 3 : 0;
  }

  // run
  const auto files = harness_inputs(args, "scenario", ".scn");
  if (files.empty()) {
    std::cerr << "nothing to run: pass --scenario FILE or --dir DIR\n";
    return 1;
  }
  harness::HarnessOptions opt;
  opt.out_dir = args.get("out");
  const std::string tf = args.get("trace-format");
  if (tf == "btrc") {
    opt.trace_format = obs::EventFormat::kBinary;
  } else if (tf == "jsonl") {
    opt.trace_format = obs::EventFormat::kJsonl;
  } else {
    throw InvalidArgument("unknown --trace-format '" + tf +
                          "' (jsonl | btrc)");
  }
  opt.compress = args.flag("compress");
  if (!std::filesystem::is_directory(opt.out_dir))
    throw InvalidArgument("--out " + opt.out_dir +
                          " is not a directory (create it first)");
  bool any_fail = false;
  bool any_abort = false;
  for (const auto& file : files) {
    const harness::Scenario sc = harness::parse_scenario_file(file);
    const harness::RunSummary run = harness::run_scenario(sc, opt);
    print_report_summary(run.report);
    std::cerr << "report: " << run.report_path << "\n";
    if (run.report.status == "abort") {
      any_abort = true;
    } else if (!run.report.all_pass()) {
      any_fail = true;
    }
  }
  return any_abort ? 1 : any_fail ? 3 : 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage_all();
  const std::string sub = argv[1];
  try {
    if (sub == "place") return cmd_place(argc - 1, argv + 1);
    if (sub == "analyze") return cmd_analyze(argc - 1, argv + 1);
    if (sub == "fit") return cmd_fit(argc - 1, argv + 1);
    if (sub == "replay") return cmd_replay(argc - 1, argv + 1);
    if (sub == "sim") return cmd_sim(argc - 1, argv + 1);
    if (sub == "trace") return cmd_trace(argc - 1, argv + 1);
    if (sub == "slo") return cmd_slo(argc - 1, argv + 1);
    if (sub == "harness") return cmd_harness(argc - 1, argv + 1);
    if (sub == "state") return cmd_state(argc - 1, argv + 1);
  } catch (const InvalidArgument& e) {
    // Finalize any open event sink so an aborted command never leaves a
    // truncated trace behind (the BTRC writer buffers partial blocks).
    obs::events().close();
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    obs::events().close();
    std::cerr << "internal error: " << e.what() << "\n";
    return 1;
  }
  return usage_all();
}

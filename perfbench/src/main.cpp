// burstq_perfbench — runs one benchmark workload and prints its result as
// one JSON object on stdout.  perfbench/run.py builds this binary, checks
// its metrics against BENCHMARK.json and prints the table; it is the
// command to use (see perfbench/README.md).
//
//   burstq_perfbench --workload place-batch|sim-steady|sim-storm|ctrl-churn
//                    --seed N --seconds S --trace 0|1 --out DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run and reports the per-layer metrics.  Exit 0 when every correctness
// check passed, 1 when one failed, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common/args.h"
#include "common/parallel.h"
#include "harness.h"
#include "obs/build_info.h"
#include "obs/event_log.h"

namespace {

using perfbench::Result;
using perfbench::RunContext;

/// A seed kept out of every tuning run, for confirming a claimed gain
/// on inputs its author never saw.
constexpr std::uint64_t kHeldOutSeed = 104729;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  burstq::ArgParser args("burstq_perfbench", "burstq benchmark workload");
  args.add_option("workload",
                  "place-batch | sim-steady | sim-storm | ctrl-churn");
  args.add_option("seed", "workload seed", "1");
  args.add_option("seconds", "how long the closed loop measures", "10");
  args.add_option("trace", "1 = traced run with per-layer metrics", "0");
  args.add_option("out", "directory for traces and durable state",
                  ".bench_build/out");
  args.add_option("commit", "commit id to record", "unknown");
  args.add_option("source-digest", "digest of the sources to record",
                  "unknown");
  if (!args.parse(argc, argv) || !args.has("workload")) {
    std::cerr << args.error() << "\n" << args.usage();
    return 2;
  }

  RunContext ctx;
  ctx.workload = args.get("workload");
  ctx.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  ctx.seconds = args.get_double("seconds");
  ctx.trace = args.get_int("trace") != 0;
  ctx.out_dir = args.get("out");

  const std::map<std::string, void (*)(RunContext&, Result&)> workloads = {
      {"place-batch", perfbench::run_place_batch},
      {"sim-steady", perfbench::run_sim_steady},
      {"sim-storm", perfbench::run_sim_storm},
      {"ctrl-churn", perfbench::run_ctrl_churn},
  };
  const auto it = workloads.find(ctx.workload);
  if (it == workloads.end()) {
    std::cerr << "unknown workload: " << ctx.workload << "\n";
    return 2;
  }

  // Pin the worker count (MapCal's parallel table build is the only
  // parallel stage the workloads reach) to at most 4, and never more
  // than the host has.
  const std::size_t hw = std::max(1U, std::thread::hardware_concurrency());
  burstq::set_thread_count_override(std::min<std::size_t>(4, hw));
  burstq::obs::events().close();

  Result r;
  try {
    it->second(ctx, r);
  } catch (const std::exception& e) {
    r.fail(std::string("threw: ") + e.what());
  }
  if (!ctx.trace && r.attempted() > 0) {
    r.add("peak_rss_mb", "MiB", perfbench::peak_rss_mb());
    r.add("ok_ratio", "ratio",
          1.0 - std::min(1.0, static_cast<double>(r.failed()) /
                                  static_cast<double>(r.attempted())));
  }
  if (ctx.trace && ctx.spans.size() > 0) {
    const std::filesystem::path dir =
        std::filesystem::path(ctx.out_dir) / "traces";
    std::filesystem::create_directories(dir);
    ctx.spans.write_jsonl(
        (dir / (ctx.workload + "-seed" + std::to_string(ctx.seed) +
                ".spans.jsonl"))
            .string());
  }

  const bool correct = r.failed() == 0 && r.attempted() > 0;
  std::ostringstream out;
  out << "{\"workload\":" << json_string(ctx.workload)
      << ",\"seed\":" << ctx.seed << ",\"trace\":" << (ctx.trace ? 1 : 0)
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted() << ",\"failed\":" << r.failed()
      << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures().size(); ++i)
    out << (i ? "," : "") << json_string(r.failures()[i]);
  out << "],\"env\":{\"hardware_concurrency\":" << hw
      << ",\"burstq_threads\":" << burstq::default_thread_count()
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"obs_compiled_in\":"
      << (burstq::obs::build_obs_enabled() ? "true" : "false")
      << ",\"commit\":" << json_string(args.get("commit"))
      << ",\"source_digest\":" << json_string(args.get("source-digest"))
      << ",\"seed\":" << ctx.seed << ",\"held_out_seed\":" << kHeldOutSeed
      << ",\"seconds\":" << json_number(ctx.seconds) << "},\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics().size(); ++i) {
    const auto& m = r.metrics()[i];
    out << (i ? "," : "") << json_string(m.name)
        << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit);
    if (m.timing)
      out << ",\"samples\":" << m.samples << ",\"beyond\":" << m.beyond;
    out << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

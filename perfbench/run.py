#!/usr/bin/env python3
"""The burstq benchmark: build from source, run a workload, check, report.

    python3 perfbench/run.py --workload <name>|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first run builds the burstq
libraries (with the repository's own CMakeLists.txt) and the benchmark
binary under .bench_build/; later runs only check that build is current.
`--trace 0` measures the end-to-end metrics, `--trace 1` makes the traced
run and reports the per-layer metrics.  The metric names, units and
directions are those of BENCHMARK.json; a workload that does not exercise
a layer reports 0 for that layer's metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit 0 when every correctness check
passed; 1 when a check failed, the build or a run broke, or the binary's
metrics disagree with BENCHMARK.json; 2 on a usage error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "burstq"
BINARY_BUILD = BUILD / "perfbench"
BINARY = BINARY_BUILD / "burstq_perfbench"
RUN_TIMEOUT_S = 175
BUILD_TYPE = "Release"


class BenchError(Exception):
    """A build or run failure; the message goes to stderr."""


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def run_checked(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {proc.returncode}")


def build():
    """Configures (once) and builds the libraries, then the benchmark binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (LIB_BUILD / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                     "-DBURSTQ_BUILD_TESTS=OFF", "-DBURSTQ_BUILD_BENCH=OFF",
                     "-DBURSTQ_BUILD_EXAMPLES=OFF"])
    run_checked(["cmake", "--build", LIB_BUILD, "-j", jobs])
    if not (BINARY_BUILD / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", HERE, "-B", BINARY_BUILD,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                     f"-DBURSTQ_ROOT={ROOT}", f"-DBURSTQ_LIB_BUILD={LIB_BUILD}"])
    run_checked(["cmake", "--build", BINARY_BUILD, "-j", jobs])


def source_digest():
    """sha256 over the library sources and build files (16 hex digits)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(spec, workload, seed, seconds, trace, env_args):
    """Runs the binary once; returns (exit code, detail, result line)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", BUILD / "out"] + env_args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} exited {proc.returncode} without a result")
    detail = json.loads(lines[-1])

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = detail["metrics"]
    unknown = sorted(set(got) - set(units))
    wrong_unit = sorted(n for n in got if n in units and got[n]["unit"] != units[n])
    missing = sorted(set(units) - set(got))
    if unknown or wrong_unit or (missing and not trace):
        raise BenchError(f"{workload}: metrics disagree with BENCHMARK.json: "
                         f"unknown {unknown}, wrong unit {wrong_unit}, "
                         f"missing {missing}")
    metrics = {}
    for m in declared:
        # A per-layer metric the workload does not exercise reads 0.
        value = got[m["name"]]["value"] if m["name"] in got else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    line = {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    return proc.returncode, detail, line


def print_table(spec, workload, detail, trace):
    declared = spec["per_layer" if trace else "end_to_end"]
    log(f"{workload} (seed {detail['seed']}, trace {trace}): "
        f"correct={detail['correct']} attempted={detail['attempted']} "
        f"failed={detail['failed']}")
    for m in declared:
        got = detail["metrics"].get(m["name"])
        value = got["value"] if got else 0.0
        extra = ""
        if got and "samples" in got:
            extra = f"  (n={got['samples']}, {got['beyond']} beyond)"
        print(f"  {m['name']:<40} {value:>16.6g} {m['unit']:<6} "
              f"{m['better']}{extra}", file=sys.stderr)


def main():
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        env_args = ["--commit", commit_id(), "--source-digest", source_digest()]
        workloads = names if args.workload == "all" else [args.workload]
        outcomes = {}
        for w in workloads:
            code, detail, line = run_workload(
                spec, w, args.seed, args.seconds, args.trace, env_args)
            print_table(spec, w, detail, args.trace)
            outcomes[w] = (code, detail, line)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 1

    if args.workload != "all":
        code, detail, line = outcomes[args.workload]
        print(json.dumps(detail))
        print(json.dumps(line))
        return code
    summary = {
        "correct": all(c["correct"] for _, _, c in outcomes.values()),
        "attempted": sum(c["attempted"] for _, _, c in outcomes.values()),
        "failed": sum(c["failed"] for _, _, c in outcomes.values()),
        "workloads": {w: c["metrics"] for w, (_, _, c) in outcomes.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

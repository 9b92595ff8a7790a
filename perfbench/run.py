#!/usr/bin/env python3
"""Entry point of the full-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark and the library sources
it links into .bench_build/ (the first run compiles; later runs only check
that the build is current), runs one workload, passes its report through
to stdout, and prints as the last line one JSON object with the keys
correct, attempted, failed and metrics. The metric names and units are the
ones BENCHMARK.json lists: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A per-layer metric of a layer the
workload does not exercise (NOT_EXERCISED) reads 0; any other declared
metric the run does not report is an error. Exits non-zero when the build
fails, when an output check fails, when a metric is missing, or when the
run does not finish in time.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170

# Per-layer metric name prefixes of the layers each workload does not
# exercise: the fast-pay workloads never reach the dispute engine, only
# fastpay_hot_mixed sends reads, and dispute_storm has no sockets, gateway,
# store or follower.
_FASTPAY_LAYERS = ("loadgen.", "net.", "gateway.", "crypto.", "store.", "replication.",
                   "accept_", "read_", "budget.", "trace.")
NOT_EXERCISED = {
    "fastpay_cold": ("dispute.", "psc.", "read_"),
    "fastpay_hot_mixed": ("dispute.", "psc."),
    "dispute_storm": _FASTPAY_LAYERS,
}


def build() -> Path:
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return BUILD / "perfbench"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    work_dir = BUILD / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"no result line (exit {proc.returncode})", file=sys.stderr)
        return 1

    # Emit exactly the metrics BENCHMARK.json declares for this mode.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = raw["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        idle = args.trace and m["name"].startswith(NOT_EXERCISED[args.workload])
        if got is None and not idle:
            print(f"metric {m['name']} not measured", file=sys.stderr)
            return 1
        if got is not None and got["unit"] != m["unit"]:
            print(f"{m['name']}: unit {got['unit']} != declared {m['unit']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"] if got else 0, "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if proc.returncode == 0 and raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

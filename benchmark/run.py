#!/usr/bin/env python3
"""Builds fi_bench from source and runs one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
The build goes to $CARGO_TARGET_DIR/fi_bench (default .bench_build/fi_bench)
and fi_bench's own reports to .bench_out/, both under the repository root.
All build and benchmark output goes to stderr; the last line of stdout is
one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

with every metric BENCHMARK.json lists for the mode. Exits non-zero, without
a result, when the build or the run fails or the metrics disagree with
BENCHMARK.json.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# fi_bench's own limit is 30 s per invocation; this only guards a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "fi_bench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    build_cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(build_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "fi_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, f"{args.workload}.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", report_path]
    if args.trace:
        trace_dir = os.path.join(out_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fi_bench ran longer than {RUN_TIMEOUT_S} s")
    # Exit 1 means a correctness check failed: the report is still written
    # and the result says correct: false. Anything else is a crash.
    if proc.returncode not in (0, 1) or not os.path.exists(report_path):
        fail(f"fi_bench exited with {proc.returncode} and no report")
    with open(report_path) as f:
        report = json.load(f)

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail(f"fi_bench did not report {m['name']}")
        if got["unit"] != m["unit"] or got["better"] != m["better"] or \
                ("bound" in m and got.get("bound") != m["bound"]):
            fail(f"{m['name']}: fi_bench's catalogue disagrees with BENCHMARK.json")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{m['name']}: value {value!r} is not a finite number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    result = {
        "correct": proc.returncode == 0 and report["checks_failed"] == 0,
        "attempted": report["sent"] + report["checks"],
        "failed": report["failed"] + report["checks_failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

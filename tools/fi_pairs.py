#!/usr/bin/env python3
"""Runs alternating parent/change pairs of the serving benchmark.

Usage (from anywhere inside the repository):

    python3 tools/fi_pairs.py --parent <rev> --change <rev> --seeds <a-b>
        [--workloads <name> ...] [--seconds <s>] [--workdir <dir>] [--json <path>]

Both revisions are checked out as detached git worktrees under --workdir
(default: .fi_pairs/ at the repository root), and each tree builds and runs
its own benchmark: for every (workload, seed) the driver runs

    python3 benchmark/run.py --workload <W> --seed <S> --seconds <s> --trace 0

once in each tree, and the side that runs first alternates from seed to
seed. Before the pairs, each tree runs once with --seconds 0 on the first
workload, untimed, so its fi_bench build and cold caches stay out of the
pairs. The worktrees are removed at the end, also after a failure.

Per workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the change's median gap, the pairs the change won
(ties count for neither side) and a verdict:

    identical   a simulated metric with the same value in every pair
    better      over at least 10 pairs, the change won at least 9/10 of them
                and its median is better than the parent's by more than the
                parent's IQR width
    worse       the same rule the other way round
    unresolved  neither holds

Every verdict on a host-measured metric also says whether the change's
median is within the metric's BENCHMARK.json bound of the parent's.
sim_wall_s, setup_s and peak_rss_mb are measured on the host; the others are
simulated and seed-deterministic, so a pair whose simulated metrics differ
means the change moved the model.

--json writes the summary and every pair's metrics as one JSON object.
Exit status: 0; 1 when a run fails or reports correct: false, or when a
simulated metric differs within any pair; 2 on bad arguments.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HOST_METRICS = ("sim_wall_s", "setup_s", "peak_rss_mb")


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"--seeds takes a or a-b with a <= b, not {text!r}")
    return seeds


def run_bench(tree, workload, seed, seconds):
    """One run.py invocation in `tree`; returns its result object."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # run.py builds into $CARGO_TARGET_DIR/fi_bench: keep each tree's build in
    # the tree, whatever the caller's environment holds.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(spec, parent, change):
    """The choosing-metrics section 8 verdict over paired runs, with the bound."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cmed = quartiles(change)[1]
    gain = sign * (pmed - cmed)  # > 0: the change's median is better.
    n = len(parent)
    if n >= 10 and gain > pq3 - pq1 and won >= 0.9 * n:
        text = "better"
    elif n >= 10 and -gain > pq3 - pq1 and lost >= 0.9 * n:
        text = "worse"
    else:
        text = "unresolved"
    worse_frac = -gain / abs(pmed) if pmed else 0.0
    within = worse_frac <= spec["bound"]
    text += f", {'within' if within else 'PAST'} the {spec['bound']:.0%} bound"
    return won, text


def summarize(specs, workloads, pairs):
    """Per workload: attempted/failed per side, identical pairs, metric rows."""
    simulated = [m["name"] for m in specs if m["name"] not in HOST_METRICS]
    out = {}
    for w in workloads:
        rows = [p for p in pairs if p["workload"] == w]
        identical = sum(all(p["parent"]["metrics"][m]["value"] == p["change"]["metrics"][m]["value"]
                            for m in simulated) for p in rows)
        summary = {
            "attempted": {s: sum(p[s]["attempted"] for p in rows) for s in ("parent", "change")},
            "failed": {s: sum(p[s]["failed"] for p in rows) for s in ("parent", "change")},
            "simulated_metrics_identical_pairs": identical,
            "metrics": {},
        }
        for spec in specs:
            name = spec["name"]
            parent = [p["parent"]["metrics"][name]["value"] for p in rows]
            change = [p["change"]["metrics"][name]["value"] for p in rows]
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            row = {"unit": spec["unit"], "parent_median": pmed, "parent_iqr": [pq1, pq3],
                   "change_median": cmed, "change_iqr": [cq1, cq3]}
            if name not in HOST_METRICS and parent == change:
                row["verdict"] = "identical"
            else:
                row["change_better_pairs"], row["verdict"] = verdict(spec, parent, change)
            summary["metrics"][name] = row
        out[w] = summary
    return out


def print_summary(summary, pairs_per_workload):
    for w, s in summary.items():
        n = pairs_per_workload
        print(f"\n== {w}: {n} pairs; simulated metrics identical on "
              f"{s['simulated_metrics_identical_pairs']}/{n}; attempted "
              f"{s['attempted']['parent']} / {s['attempted']['change']}, failed "
              f"{s['failed']['parent']} / {s['failed']['change']} (parent / change)")
        print(f"{'metric':<13} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
              f"{'gap':>8} {'won':>6}  verdict")
        for name, r in s["metrics"].items():
            fmt = lambda med, iqr: f"{med:.6g} [{iqr[0]:.6g}, {iqr[1]:.6g}]"
            gap = (r["change_median"] / r["parent_median"] - 1.0) if r["parent_median"] else 0.0
            won = f"{r['change_better_pairs']}/{n}" if "change_better_pairs" in r else "-"
            print(f"{name:<13} {fmt(r['parent_median'], r['parent_iqr']):<34} "
                  f"{fmt(r['change_median'], r['change_iqr']):<34} {gap:>+8.1%} {won:>6}  "
                  f"{r['verdict']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workdir")
    parser.add_argument("--json")
    args = parser.parse_args()

    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    revs = {side: git(root, "rev-parse", "--verify", getattr(args, side) + "^{commit}")
            for side in ("parent", "change")}
    workdir = os.path.abspath(args.workdir or os.path.join(root, ".fi_pairs"))
    trees = {side: os.path.join(workdir, side) for side in revs}
    for tree in trees.values():
        if os.path.exists(tree):
            parser.error(f"{tree} exists; remove it or pass another --workdir")

    pairs = []
    added = []
    try:
        for side, tree in trees.items():
            git(root, "worktree", "add", "--detach", tree, revs[side])
            added.append(tree)
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        specs = bench["end_to_end"]
        names = [w["name"] for w in bench["workloads"]]
        workloads = args.workloads or names
        unknown = [w for w in workloads if w not in names]
        if unknown:
            parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {names}")
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        print(f"parent {revs['parent'][:12]}, change {revs['change'][:12]}; seeds "
              f"{args.seeds[0]}-{args.seeds[-1]}; --seconds {seconds:g}", flush=True)

        for side, tree in trees.items():
            print(f"warm-up: {side} builds and runs {workloads[0]} once, untimed", flush=True)
            run_bench(tree, workloads[0], args.seeds[0], 0)
        for w in workloads:
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"workload": w, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], w, seed, seconds)
                pairs.append(pair)
                wall = {s: pair[s]["metrics"]["sim_wall_s"]["value"] for s in order}
                print(f"{w} seed {seed}: sim_wall_s parent {wall['parent']:.4g}, "
                      f"change {wall['change']:.4g}", flush=True)
    except RuntimeError as e:
        print(f"FAILED: {e}")
        return 1
    finally:
        for tree in added:
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", tree],
                           capture_output=True)
            shutil.rmtree(tree, ignore_errors=True)
        subprocess.run(["git", "-C", root, "worktree", "prune"], capture_output=True)
        if os.path.isdir(workdir) and not os.listdir(workdir):
            os.rmdir(workdir)

    summary = summarize(specs, workloads, pairs)
    print_summary(summary, len(args.seeds))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"parent": revs["parent"], "change": revs["change"], "seeds": args.seeds,
                       "seconds": seconds, "workloads": summary, "pairs": pairs}, f, indent=1)
    bad_runs = [p for p in pairs for s in ("parent", "change")
                if not p[s]["correct"] or p[s]["failed"]]
    moved = [w for w, s in summary.items()
             if s["simulated_metrics_identical_pairs"] != len(args.seeds)]
    if bad_runs:
        print(f"\nFAILED: {len(bad_runs)} runs reported failures or correct: false")
    if moved:
        print(f"\nFAILED: simulated metrics differ within a pair on {', '.join(moved)}")
    return 1 if bad_runs or moved else 0


if __name__ == "__main__":
    sys.exit(main())

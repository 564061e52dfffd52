#!/usr/bin/env python3
"""A/A steadiness check: two interleaved sets of runs of one build.

    python3 perfbench/aa.py [--workloads cold-query,serve-churn,ingest]
        [--runs 10] [--seconds 20]

Run from the repository root. For every workload, set A and set B each run
`--runs` times, every run with a seed of its own (run i: seed 100 + i in
set A, 10100 + i in set B), interleaved A, B, B, A, ... so slow drift of
the machine lands on both sets. For every end-to-end metric of
BENCHMARK.json it prints each set's median and quartiles, the spread
(q3 - q1) / median, and whether the two sets agree within the metric's
bound (`all` is the spread of both sets pooled):

  * each set's spread is within the bound, and
  * neither set's median is worse than the other's by more than the bound.

`steady` marks metrics whose spreads are also below a third of the bound.
Exits 0 when every metric of every workload agrees. Raw results go to
.bench_build/aa-results.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "exit %d" % proc.returncode}
    result = json.loads(lines[-1])
    if not result.get("correct"):
        result["error"] = "incorrect"
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(metric, base, other):
    """Relative amount by which `other` is worse than `base`."""
    if base == 0:
        return 0.0
    delta = (other - base) / base
    return delta if metric["better"] == "lower" else -delta


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                seed = (100 if side == "A" else 10100) + i
                result = run_once(w, seed, seconds)
                result["seed"] = seed
                runs[w][side].append(result)
                status = result.get("error", "ok")
                print("run %2d %-12s set %s seed %d: %s" % (i, w, side, seed, status),
                      flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "aa-results.json"), "w") as f:
        json.dump(runs, f, indent=1)

    all_agree = True
    for w in workloads:
        print("\n== %s (%d runs per set, %g s)" % (w, args.runs, seconds))
        print("%-18s %-34s %-34s %-6s %s" % (
            "metric", "set A median [q1, q3] spread", "set B median [q1, q3] spread",
            "all", "verdict"))
        failed = [r for side in "AB" for r in runs[w][side] if "error" in r]
        if failed:
            print("  %d runs failed; no verdict" % len(failed))
            all_agree = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for side in "AB":
                values = [r["metrics"][name]["value"] for r in runs[w][side]]
                stats[side] = summarize(values)
            spread_ok = all(stats[s][3] <= bound for s in "AB")
            median_ok = (worse_by(metric, stats["A"][0], stats["B"][0]) <= bound and
                         worse_by(metric, stats["B"][0], stats["A"][0]) <= bound)
            steady = all(stats[s][3] < bound / 3 for s in "AB")
            agree = spread_ok and median_ok
            all_agree &= agree
            pooled = summarize([r["metrics"][name]["value"]
                                for side in "AB" for r in runs[w][side]])
            cells = ["%.4g [%.4g, %.4g] %.3f" % stats[s] for s in "AB"]
            print("%-18s %-34s %-34s %.3f  %s%s (bound %.2f)" % (
                name, cells[0], cells[1], pooled[3],
                "agree" if agree else "DISAGREE", ", steady" if steady else "",
                bound))
    sys.exit(0 if all_agree else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""NetClus benchmark: one run of one workload.

    python3 perfbench/run.py --workload cold-query|serve-churn|ingest \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/ (a CMake
package that compiles the library from ../src) into .bench_build/, pins
every NETCLUS_* environment variable, runs the workload, prints every
metric by name with its unit and sample count, the correctness gates and
the run environment, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. Exit codes: 0 ok; 1 a correctness gate
failed or the workload failed (the JSON line is still printed, with
"correct": false); 2 bad arguments or missing sources or build failure;
3 the run is invalid (its request generator ran late) and is not
measured; 4 the program did not produce every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "netclus_perfbench")
WORKLOADS = ("cold-query", "serve-churn", "ingest")
RUN_TIMEOUT_S = 170

# Every NETCLUS_* variable the library reads, pinned. Anything else with
# the prefix is removed from the environment.
PINNED_ENV = {
    "NETCLUS_THREADS": "1",          # library default; workloads set their own
    "NETCLUS_SPF": "dijkstra",
    "NETCLUS_SIMD": "auto",
    "NETCLUS_PAGE_BUDGET": "unlimited",
    "NETCLUS_COVER_CACHE": "1",
    "NETCLUS_CARRYOVER": "1",
    "NETCLUS_TRACE_SAMPLE": "0.01",  # server default
    "NETCLUS_TRACE_SEED": "0",
    "NETCLUS_TRACE_RING": "8192",
    "NETCLUS_SLOW_QUERY_MS": "0",    # slow-query log off
    "NETCLUS_INDEX_MMAP": "1",
    "NETCLUS_LOG": "warning",
}
# Cleared so the library takes its own default.
CLEARED_ENV = ("NETCLUS_SCHED_WORKERS", "NETCLUS_SCALE")


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def failed_run(message):
    """The workload itself failed (an exception, a crash, a hang): a failed
    run, reported as incorrect, not as an error of the harness."""
    print("perfbench: " + message, file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    sys.exit(1)


def load_benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read %s: %s" % (path, e))


def build():
    """Configures once and builds the benchmark binary (incremental)."""
    for needed in ("CMakeLists.txt", os.path.join("src", "api", "engine.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, "NetClus sources not found (%s missing); nothing to build"
                 % needed)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(2, "%s not found" % tool)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "netclus_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(2, "build failed: " + " ".join(cmd))


def pinned_environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NETCLUS_")}
    env.update(PINNED_ENV)
    for name in CLEARED_ENV:
        env.pop(name, None)
    return env


def source_digest():
    """sha256 over the library and benchmark sources; identifies the code
    where no git sha is available (a checkout without git history)."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run(args):
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.rate:
        cmd += ["--rate", str(args.rate)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=pinned_environment(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failed_run("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failed_run("workload exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=0.0,
                        help="serve-churn offered rate override, for the knee "
                             "sweep in NOTES.md (default: the fixed rate)")
    args = parser.parse_args()
    if not args.seconds > 0:
        fail(2, "--seconds must be positive")

    spec = load_benchmark_spec()
    build()
    result = run(args)

    env = dict(result["env"])
    env.update({"git_sha": git_sha(), "src_digest": source_digest(),
                "workload": args.workload, "seconds": str(args.seconds),
                "trace": str(args.trace), "python": platform.python_version()})
    env.update(PINNED_ENV)
    for name in CLEARED_ENV:
        env[name] = "(unset)"
    result["env"] = env
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1)

    print("# netclus perfbench  workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# env " + json.dumps(env, sort_keys=True))
    if not result["valid"]:
        fail(3, "run invalid, not measured: " + result["invalid_reason"])

    gates = result["gates"]
    for gate in gates:
        print("gate %-36s %s  %s" % (gate["name"], "PASS" if gate["pass"] else
                                    "FAIL", gate["detail"]))
    wanted_kind = "per_layer" if args.trace else "end_to_end"
    for m in result["metrics"]:
        if m["kind"] in (wanted_kind, "info"):
            print("metric %-34s = %.6g %s  (n=%d) [%s]"
                  % (m["name"], m["value"], m["unit"], m["samples"], m["kind"]))

    measured = {m["name"]: m for m in result["metrics"]}
    metrics = {}
    for entry in spec[wanted_kind]:
        m = measured.get(entry["name"])
        if (m is None or m["kind"] != wanted_kind or m["unit"] != entry["unit"]
                or m["value"] is None):
            fail(4, "workload %s did not report %s in %s" % (
                args.workload, entry["name"], entry["unit"]))
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    correct = bool(gates) and all(g["pass"] for g in gates)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

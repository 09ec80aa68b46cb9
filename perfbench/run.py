#!/usr/bin/env python3
"""Build and run the proxy-planes benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload workqueue --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload once
    python3 perfbench/run.py --steady 10           # steadiness report

The first form runs one workload and passes the program's output through;
its last line is the JSON result. --workload all runs workqueue, fanout and
tasks in turn and fails if any output check fails. --steady N runs each
workload N times with seeds --seed..--seed+N-1 and prints, for every
metric, the median, the quartiles and the interquartile range as a share
of the median.

The Go program is built from the checkout into .bench_build/, with the Go
build cache there too, so nothing outside the checkout is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["workqueue", "fanout", "tasks"]
# A run is allowed 180 s; the program's own watchdog fires earlier.
RUN_TIMEOUT = 175


def build():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "modcache"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    except OSError as err:
        print(f"run.py: cannot run go: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def command(workload, seed, seconds, trace):
    return [
        BINARY,
        "-workload", workload,
        "-seed", str(seed),
        "-seconds", str(seconds),
        "-trace", str(trace),
        "-spans", os.path.join(BUILD, "spans"),
    ]


def run(workload, seed, seconds, trace):
    """Runs one workload with its output passed through; returns the exit code."""
    try:
        return subprocess.run(command(workload, seed, seconds, trace), cwd=ROOT, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT} s", file=sys.stderr)
        return 1


def run_report(workload, seed, seconds, trace):
    """Runs one workload quietly; returns its JSON result, or None on failure."""
    try:
        done = subprocess.run(command(workload, seed, seconds, trace), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    report = json.loads(lines[-1])
    return report if report["correct"] else None


def steady(n, first_seed, seconds, trace, workloads):
    ok = True
    for workload in workloads:
        values, units = {}, {}
        for seed in range(first_seed, first_seed + n):
            report = run_report(workload, seed, seconds, trace)
            if report is None:
                print(f"{workload} seed {seed}: FAILED", file=sys.stderr)
                ok = False
                continue
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {n} runs of {seconds} s, seeds {first_seed}..{first_seed + n - 1}")
        print(f"  {'metric':<34} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<34} {units[name]:<10} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:10.3f}")
        sys.stdout.flush()
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="workqueue, fanout, tasks or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat each workload N times and report medians and spreads")
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.steady > 0:
        return 0 if steady(args.steady, args.seed, args.seconds, args.trace, workloads) else 1
    if len(workloads) == 1:
        return run(workloads[0], args.seed, args.seconds, args.trace)
    failed = [w for w in workloads if run(w, args.seed, args.seconds, args.trace) != 0]
    if failed:
        print(f"run.py: failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

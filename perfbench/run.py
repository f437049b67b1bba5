#!/usr/bin/env python3
"""Build and run the rlim end-to-end benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0

builds the `perfbench` binary (Release, into .bench_build/ at the source
root) on first use, then runs the workload. Its standard output ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, and the
spans are written as Chrome trace-event JSON under .bench_out/.

Spread report (is the benchmark steady enough for its bounds?):

    python3 perfbench/run.py --spread 10 --workload all --seconds 30

runs each workload N times with seeds seed, seed+1, ... and prints, per
metric, the median, the quartiles (statistics.quantiles(n=4)) and the
inter-quartile range as a share of the median, next to the metric's bound in
BENCHMARK.json.

Gate self-test: --corrupt-result damages one collected result after the
timed window; the run must then print "correct": false and exit non-zero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["paper_cold", "serve_cluster", "fault_mc"]
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark binary; quiet on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def git_sha():
    """HEAD of the source tree, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def command(workload, seed, seconds, trace, corrupt):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha(), "--out-dir", OUT]
    if corrupt:
        cmd.append("--corrupt-result")
    return cmd


def run_once(args):
    try:
        return subprocess.run(command(args.workload, args.seed, args.seconds,
                                      args.trace, args.corrupt_result),
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        return {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def spread(args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    limits = bounds() if args.trace == 0 else {}
    status = 0
    for workload in workloads:
        values = {}
        units = {}
        digests = []
        for i in range(args.spread):
            seed = args.seed + i
            try:
                done = subprocess.run(
                    command(workload, seed, args.seconds, args.trace, False),
                    cwd=ROOT, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True,
                    timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print("%s seed %d: exceeded %d s" % (workload, seed,
                                                     RUN_TIMEOUT_S))
                status = 1
                continue
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed, done.returncode))
                status = 1
                continue
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"] if len(lines) > 1 else {}
            digests.append(context.get("hw_digest", "?"))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items()
                if n in limits or args.trace)), flush=True)
        print("\n%s: %d runs, digests %s" % (workload, len(digests),
                                               " ".join(digests)))
        print("%-30s %-6s %14s %14s %14s %8s %6s" % (
            "metric", "unit", "median", "q1", "q3", "iqr/med", "bound"))
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            rel = (q3 - q1) / med if med else 0.0
            bound = limits.get(name)
            print("%-30s %-6s %14.6g %14.6g %14.6g %8.4f %6s" % (
                name, units[name], med, q1, q3, rel,
                "" if bound is None else "%.2f" % bound))
        print()
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="paper_cold, serve_cluster, fault_mc"
                             " (or all with --spread)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="repeat N times with consecutive seeds and"
                             " report each metric's median and spread")
    parser.add_argument("--corrupt-result", action="store_true",
                        help="damage one result to prove the gate rejects it")
    args = parser.parse_args()
    if args.workload not in WORKLOADS and not (
            args.spread and args.workload == "all"):
        parser.error("unknown workload %s" % args.workload)
    if not build():
        return 1
    if args.spread:
        return spread(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())

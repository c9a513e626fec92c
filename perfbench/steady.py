#!/usr/bin/env python3
"""Steadiness of the benchmark: run it k times per workload and report spreads.

    python3 perfbench/steady.py [-k 10] [--workloads a,b] [--seconds 20]
                                [--seed-base 1]
                                [--checkout DIR [--checkout DIR2]] [--json OUT]

Each run uses another seed (seed-base, seed-base+1, ...).  Given two
checkouts, the runs alternate between them (the side that goes first
alternates too), so both builds see the same host conditions.  For every
workload, metric and checkout it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, plus the failed share, with host fields (nproc,
compiler, build type).  These spreads set the bounds in BENCHMARK.json.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ["consensus-perlink", "cohort-scale", "sec5-stack", "live-mixed"]


def build_dir(checkout):
    """Each checkout builds into its own .bench_build, so an A/B pair never
    shares (and silently reuses) one build."""
    return os.path.join(os.path.abspath(checkout), ".bench_build")


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir(checkout))
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def host_fields(checkout):
    compiler = ""
    cache = os.path.join(build_dir(checkout), "CMakeCache.txt")
    build_type = ""
    if os.path.isfile(cache):
        for line in open(cache, encoding="utf-8", errors="replace"):
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if compiler:
        try:
            compiler = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                      check=True).stdout.decode().splitlines()[0]
        except (OSError, subprocess.CalledProcessError, IndexError):
            pass
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "compiler": compiler, "build_type": build_type}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=10, help="runs per workload and checkout")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--checkout", action="append",
                    help="checkout to run in (repeat for an A/B pair; default .)")
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()
    checkouts = args.checkout or ["."]
    if len(checkouts) > 2:
        sys.exit("steady.py: at most two checkouts")

    results = {c: {} for c in checkouts}
    for workload in args.workloads.split(","):
        for i in range(args.k):
            seed = args.seed_base + i
            order = checkouts if i % 2 == 0 else list(reversed(checkouts))
            for c in order:
                out = run_once(c, workload, seed, args.seconds)
                results[c].setdefault(workload, []).append(out)
                print(f"{workload} seed={seed} {c}: correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']}", file=sys.stderr)

    summary = {"host": host_fields(checkouts[0]), "k": args.k,
               "seconds": args.seconds, "checkouts": {}}
    for c in checkouts:
        per = {}
        for workload, outs in results[c].items():
            metrics = {}
            for name in sorted(outs[0]["metrics"]):
                vals = [o["metrics"][name]["value"] for o in outs]
                metrics[name] = dict(summarize(vals), unit=outs[0]["metrics"][name]["unit"])
            shares = sorted({o["failed"] / o["attempted"] for o in outs})
            per[workload] = {"metrics": metrics, "failed_shares": shares,
                             "all_correct": all(o["correct"] for o in outs)}
        summary["checkouts"][c] = per

    h = summary["host"]
    print(f"host: nproc={h['nproc']} {h['machine']} compiler={h['compiler']!r} "
          f"build={h['build_type']}  k={args.k} seconds={args.seconds}")
    for c, per in summary["checkouts"].items():
        print(f"== checkout {c}")
        for workload, s in per.items():
            print(f"  {workload}: all correct={s['all_correct']} "
                  f"failed shares={s['failed_shares']}")
            for name, m in s["metrics"].items():
                print(f"    {name:28s} median {m['median']:14.6g} {m['unit']:13s} "
                      f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {100 * m['spread']:6.2f}%")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the benchmark (anonbench) in Release and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  anonbench is built from perfbench/
against the repository's library sources in src/, into the directory named
by $CARGO_TARGET_DIR (default .bench_build).  Build output and the
anonbench's diagnostics go to standard error; the last line of standard output
is the run's JSON result.

An untraced run is made of PARTS anonbench processes run one after another,
each doing 1/PARTS of the rounds on the same inputs (from --seed), so every
operation of the workload's round is repeated across the whole run.  The
run's metrics pool them: run_s is the summed wall time of the timed
batches; op_p50_ms / op_p90_ms are percentiles of all repetitions, where a
repetition of a deterministic (simulated) operation counts as that
operation's mean over the run; setup_s is the median set-up time over the
parts and peak_rss_mb the largest peak.  The host's speed changes in spells
of seconds, and a simulated operation's repetitions differ by nothing else:
their mean moves smoothly with the share of slow spells in the run, where a
percentile over them jumps between a fast and a slow spell.  A traced run is
one process doing a third of the rounds, since it runs each of them three
times (registry path, then the decomposed path untraced and traced).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["consensus-perlink", "cohort-scale", "sec5-stack", "live-mixed"]
PARTS = 3
RUN_TIMEOUT_S = 170


def configured_source(build_dir):
    """The source directory an existing CMake cache was configured for."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8",
                  errors="replace") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "scenario", "registry.hpp")):
        sys.exit("run.py: no library sources under ./src; run from the root "
                 "of a repository checkout")
    source = configured_source(build_dir)
    if source != os.path.realpath("perfbench"):
        if source is not None:
            # The cache belongs to another checkout's sources: start afresh,
            # or the build would compile those sources instead of these.
            os.remove(os.path.join(build_dir, "CMakeCache.txt"))
            shutil.rmtree(os.path.join(build_dir, "CMakeFiles"), ignore_errors=True)
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "anonbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "anonbench")


def percentile(xs, q):
    """Linear-interpolated percentile, as anonbench computes it."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_part(cmd, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        sys.exit("run.py: out of time before the run ended")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=left)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {cmd[2]} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        sys.exit(f"run.py: anonbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def pooled_latencies(parts):
    """The latencies the percentiles are taken of, as anonbench pools them
    (pooled_latencies_ms in src/stats.cpp), over all parts: each repetition
    of a deterministic operation counts as the operation's mean over the
    run, each repetition of a live one as measured."""
    out = []
    deterministic = parts[0]["op_deterministic"]
    for i, reps in enumerate(zip(*(p["op_samples_ms"] for p in parts))):
        xs = [x for r in reps for x in r]
        out += [statistics.mean(xs)] * len(xs) if deterministic[i] else xs
    return out


def pool(parts):
    op_ms = pooled_latencies(parts)
    metric = lambda name: [p["metrics"][name]["value"] for p in parts]
    return {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {
            "setup_s": {"value": statistics.median(metric("setup_s")), "unit": "s"},
            "run_s": {"value": sum(metric("run_s")), "unit": "s"},
            "op_p50_ms": {"value": percentile(op_ms, 0.5), "unit": "ms"},
            "op_p90_ms": {"value": percentile(op_ms, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": max(metric("peak_rss_mb")), "unit": "MB"},
        },
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    # The measured parts get their own time limit, so that a cold build
    # does not eat into it.
    deadline = time.monotonic() + RUN_TIMEOUT_S

    base = [binary, "--workload", args.workload, "--trace", args.trace,
            "--trace-dir", build_dir]
    if args.trace == "1":
        part = run_part(base + ["--seed", str(args.seed),
                                "--seconds", str(args.seconds / 3)], deadline)
        out = {key: part[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        parts = [run_part(base + ["--seed", str(args.seed),
                                  "--seconds", str(args.seconds / PARTS)],
                          deadline)
                 for _ in range(PARTS)]
        out = pool(parts)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repo benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload mixed-mo --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds the driver (perfbench/
CMakeLists.txt, into .bench_build/perfbench) from the checkout's src/, runs
the workload, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 makes
an untraced run first (for its scores and capacity), then a separate traced
run that replays the same consumed prefix, and reports the per-layer
metrics; a readable table of both sets goes to stderr. `failed` counts
refused submits, writer/drain errors and exactness mismatches, so
failed / attempted is the run's error rate. Exits non-zero when a check
fails or the build is impossible.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sobc_perfbench")
WORKLOADS = ("mixed-mo", "churn-do-durable", "cluster-4")
# Wall-clock budget of one invocation after the build.
BUDGET_SECONDS = 170.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def run_driver(args, deadline):
    """Runs the driver binary; returns (exit code, parsed last JSON line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise subprocess.TimeoutExpired(args, 0)
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        return proc.returncode, None
    return proc.returncode, json.loads(lines[-1])


def print_table(title, metrics):
    log(title)
    for name, metric in metrics.items():
        log(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    deadline = time.monotonic() + BUDGET_SECONDS
    tag = f"{opts.workload}-{opts.seed}-{os.getpid()}"
    work = os.path.join(BUILD, "runs", tag)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds)]
    try:
        scores = os.path.join(work, "untraced.scores")
        code, untraced = run_driver(
            common + ["--work-dir", os.path.join(work, "untraced"),
                      "--scores-out", scores], deadline)
        if untraced is None:
            log(f"untraced run failed (exit {code})")
            return 1
        e2e = untraced["metrics"]
        attempted = int(untraced["attempted"])
        failed = int(untraced["failed"])
        correct = bool(untraced["correct"]) and code == 0
        metrics = e2e
        if opts.trace == 1 and correct:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            code, traced = run_driver(
                common + ["--trace", "--reference", scores,
                          "--work-dir", os.path.join(work, "traced"),
                          "--trace-out",
                          os.path.join(traces, f"{opts.workload}-"
                                       f"{opts.seed}.tsv")], deadline)
            if traced is None:
                log(f"traced run failed (exit {code})")
                return 1
            correct = bool(traced["correct"]) and code == 0
            failed += int(traced["failed"])
            metrics = dict(traced["metrics"])
            # Measured by the untraced run; see README.md for why they are
            # not end-to-end metrics.
            for name in ("lat_p50_ms", "lat_p99_ms"):
                metrics[name] = {"value": untraced[name], "unit": "ms"}
            metrics["loadgen.late_p99_ms"] = {
                "value": untraced["late_p99_ms"], "unit": "ms"}
            metrics["trace.overhead_frac"] = {
                "value": 1.0 - traced["traced_capacity_ups"]
                / e2e["capacity_ups"]["value"], "unit": "frac"}
            metrics["error_rate"] = {"value": failed / attempted,
                                     "unit": "frac"}
            print_table(f"{opts.workload} seed {opts.seed}: end-to-end "
                        "(untraced run)", e2e)
            print_table("per-layer (traced run)", metrics)
        result = {"correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        print(json.dumps(result), flush=True)
        return 0 if correct and failed == 0 else 1
    except subprocess.TimeoutExpired:
        log(f"run exceeded {BUDGET_SECONDS:.0f} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

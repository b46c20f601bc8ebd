#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--inject-wrong]

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build (Release). Each run uses two processes: a prepare phase
that generates the seeded inputs and reference answers, and a measured run
phase. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1); a
per-layer metric the workload does not exercise reads 0. The exit code is
nonzero when the build fails, any operation fails, or any answer differs
from the reference.
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
WORKLOADS = ("build_dense", "serve_light", "serve_heavy", "serve_update")
# Whole-run limit (the build of a fresh checkout gets its own).
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 880


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_LIMIT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        stdout=sys.stderr, check=True, timeout=BUILD_LIMIT_S)
    return os.path.join(build_dir, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-wrong", action="store_true")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed:", e)
        return 1
    expected = metric_names(args.trace)

    work_dir = os.path.join(
        build_dir, "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--work-dir", work_dir, "--commit", commit()]
    if args.smoke:
        common.append("--smoke")
    if args.inject_wrong:
        common.append("--inject-wrong")
    start = time.monotonic()
    try:
        prep = subprocess.run([binary, "--phase", "prepare"] + common,
                              stdout=sys.stderr, timeout=RUN_LIMIT_S)
        if prep.returncode != 0:
            log("perfbench: prepare phase failed")
            return 1
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        run = subprocess.run([binary, "--phase", "run"] + common,
                             stdout=subprocess.PIPE, text=True,
                             timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_LIMIT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: no result from the run phase (exit %d)" %
            run.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in expected}
    if unknown:
        log("perfbench: metrics missing from BENCHMARK.json: %s" %
            ", ".join(sorted(unknown)))
        return 1
    metrics = {}
    for m in expected:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                log("perfbench: %s has unit %s, BENCHMARK.json says %s" %
                    (m["name"], got[m["name"]]["unit"], m["unit"]))
                return 1
            metrics[m["name"]] = got[m["name"]]
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            log("perfbench: end-to-end metric %s missing" % m["name"])
            return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

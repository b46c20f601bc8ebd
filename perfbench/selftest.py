#!/usr/bin/env python3
"""Self-test of the repo benchmark at smoke size.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that a smoke
run (same phases, checks and metric names as a full run, smaller counts)
succeeds with 0 failed operations and prints exactly the metrics of
BENCHMARK.json, with and without spans; that a run whose expected answer
was deliberately corrupted (--inject-wrong) fails with a nonzero exit code;
and that the benchmark fails without a result when the sources under test
are missing. Exits nonzero on the first violated expectation.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build_dense", "serve_light", "serve_heavy", "serve_update")


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def fail(msg, proc=None):
    print("FAIL:", msg)
    if proc is not None:
        print(proc.stdout[-2000:])
        print(proc.stderr[-2000:])
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "3", "--seconds", "1",
                "--smoke"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(base + ["--trace", str(trace)])
            if proc.returncode != 0:
                fail("%s --trace %d exited %d" % (workload, trace,
                                                  proc.returncode), proc)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (workload, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                fail("%s: %d failed operations" % (workload, result["failed"]))
            want = [m["name"] for m in spec[key]]
            if list(result["metrics"]) != want:
                fail("%s --trace %d: metric names differ" % (workload, trace))
            if trace == 0 and any(v["value"] <= 0
                                  for v in result["metrics"].values()):
                fail("%s: an end-to-end metric is not positive" % workload)
            print("ok   %-13s --trace %d  attempted %d" %
                  (workload, trace, result["attempted"]))
        proc = run(base + ["--trace", "0", "--inject-wrong"])
        if proc.returncode == 0:
            fail("%s: a wrong expected answer did not fail the run" % workload,
                 proc)
        print("ok   %-13s wrong expected answer fails (exit %d)" %
              (workload, proc.returncode))

    # Without the sources under test the build fails and no result prints.
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark without sources must fail without a result", proc)
    print("ok   without sources: exit %d, no result" % proc.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()

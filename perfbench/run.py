#!/usr/bin/env python3
"""Run one workload of the engine benchmark.

    python3 perfbench/run.py --workload serve_st --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds dmf-serve and the perfbench
load generator from source into .bench_build (or $CARGO_TARGET_DIR when set),
then runs the workload against a freshly spawned dmf-serve. The last
line of standard output is the result JSON; the exit code is 0 only
when every answer passed the oracle (and, traced, every replica matched
the engine bitwise). --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_st", "route_mix", "mutate_persist")


def run_seconds():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


def build(build_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", here, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "dmf-serve", "perfbench"]
    for cmd in (configure, compile_):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    serve_bin = os.path.join(build_dir, "dmf", "dmf-serve")
    bench_bin = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [bench_bin, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve-bin", serve_bin, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

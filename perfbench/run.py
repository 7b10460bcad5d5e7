#!/usr/bin/env python3
"""Builds perfbench/ from source and runs the serving benchmark.

    python3 perfbench/run.py --workload paper_x1 --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. --workload all runs every
workload in turn, each ending with its own result line. See
perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("paper_x1", "fanout_x2", "microbatch_x2")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "serve_bench",
                    "--parallel", "4"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "serve", "sharded_engine.h")):
        print("perfbench: run from the repository root (no src/ here)",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = run(build_dir, workload, args)
        if code != 0:
            return code
    return 0


def run(build_dir, workload, args):
    sys.stdout.flush()
    command = [os.path.join(build_dir, "serve_bench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--spans-dir", build_dir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

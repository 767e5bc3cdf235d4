#!/usr/bin/env python3
"""Build and run the repo benchmark (see BENCHMARK.json at the repo root).

    python3 perfbench/run.py --workload mail_1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
library sources under src/ together with the benchmark program into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild only what changed.  Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    if args.selftest:
        sys.exit(subprocess.run([build(build_dir, "perfbench_test")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    exe = build(build_dir, "perfbench")
    workdir = os.path.join(build_dir, "work")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload l48_heavy --seed 1 --seconds 8 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; build output goes to stderr. The benchmark's own output, ending
with the one-line JSON result, goes to stdout. The exit code is the
benchmark's: non-zero when a correctness gate fails or nothing could be
built.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no library sources (CMakeLists.txt, src/) "
                 "next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        rc = subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            sys.exit(f"perfbench: build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work")]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd, cwd=ROOT))


if __name__ == "__main__":
    main()

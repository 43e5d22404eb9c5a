#!/usr/bin/env python3
r"""Builds the perfbench harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile_1t --seed 1 --seconds 50 \
        --trace 0

The harness binary is configured and built with CMake under the build
directory ($CARGO_TARGET_DIR if set, else .bench_build), then run with the
same arguments. Build output goes to stderr, so the last line of stdout is
the harness's JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr)
    if built.returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Per-run scratch (target-cache directories, span dumps) stays inside
    # the build directory and is removed afterwards.
    work_dir = os.path.join(build_root, "perfbench-run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_root, "perfbench-trace-%s-%d.json" % (args.workload,
                                                        args.seed))]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the host-time benchmark from source, then run one workload.

Run from the root of a gnnmark checkout:

    python3 hostbench/run.py --workload train-dgcn --seed 2021 \
        --seconds 30 --trace 0

`--workload all` runs train-dgcn and replay-sweep in turn.
The gnnmark libraries and the driver are compiled into .bench_build/
on the first call; later calls only check the build. Each workload's
last line of standard output is the driver's JSON result. Build output
goes to standard error. Exits non-zero, printing no result, when the
sources are missing or do not build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(2)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no gnnmark sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", *generator, "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "hostbench",
                   "--parallel", jobs()]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


WORKLOADS = ["train-dgcn", "replay-sweep"]


def run_driver(workload, args, env, sha):
    """Run one workload; returns the driver's exit code."""
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "hostbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected"), "--git-sha", sha]
    if args.trace:
        cmd += ["--chrome-trace", os.path.join(
            trace_dir, f"{workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, env=env,
                              timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # The driver pins the pool, allocator and kernel variants itself;
    # gnnmark's environment knobs must not leak into a measurement.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GNNMARK_")}
    build(env)
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_driver(w, args, env, sha) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()

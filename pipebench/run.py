#!/usr/bin/env python3
"""Build, prepare and run the pipeline benchmark from the repository root.

    python3 pipebench/run.py --workload shd-pipeline --seed 1 --seconds 12 --trace 0

Builds the snntest library and the benchmark driver from source (CMake,
Release) into $CARGO_TARGET_DIR or .bench_build, runs the untimed, idempotent
preparation step once (trains the three zoo models and generates the prepared
stimuli into the build directory), then runs one measurement. The driver's
last stdout line is the result JSON; the exit code is the driver's.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"pipebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def run_logged(cmd, log_path, timeout=None):
    with open(log_path, "a") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout)
    return proc.returncode


def build(bdir):
    cmake_dir = os.path.join(bdir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                        log_path)
        if rc != 0:
            return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    rc = run_logged(["cmake", "--build", cmake_dir, "--target", "pipebench", "-j", jobs],
                    log_path)
    if rc != 0:
        return None
    return os.path.join(cmake_dir, "pipebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    binary = build(bdir)
    if binary is None:
        log(f"build failed; see {os.path.join(bdir, 'build.log')}")
        return 1

    cache = os.path.join(bdir, "cache")
    marker = os.path.join(cache, "prepared.ok")
    if not os.path.exists(marker):
        log("preparing models and stimuli (untimed, once per checkout)")
        rc = run_logged([binary, "--prepare", "--cache", cache], os.path.join(bdir, "prepare.log"))
        if rc != 0:
            log(f"preparation failed; see {os.path.join(bdir, 'prepare.log')}")
            return 1
        open(marker, "w").close()

    cmd = [binary, "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--cache", cache, "--out", os.path.join(bdir, "results")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

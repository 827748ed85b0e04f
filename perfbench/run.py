#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload t1_read --seed 1 --seconds 10 --trace 0

Every argument is passed to the program (see src/main.cc). The build lives in
.bench_build/perfbench under the repository root, the durable engine's files
in .bench_build/perfbench-data. Build output goes to stderr, so the program's
result object stays the last line of stdout. Exits non-zero, without a
result, when the build fails or the program does not finish in time.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DATA_DIR = os.path.join(BUILD_ROOT, "perfbench-data")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # Concurrent runs in one checkout build once.
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--data-dir", DATA_DIR] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode if proc.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

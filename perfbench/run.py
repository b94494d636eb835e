#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The first run configures and builds `perfbench` (Release, QUICSTEPS_AUDIT=OFF,
QUICSTEPS_TRACE=ON) from the sources in this checkout into the directory named
by $CARGO_TARGET_DIR, or `.bench_build`; later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON record. Every argument is passed to the binary; see perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Release",
    "-DQUICSTEPS_AUDIT=OFF",
    "-DQUICSTEPS_TRACE=ON",
    "-DQUICSTEPS_WERROR=OFF",
]
JOBS = "4"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def configure(build_dir):
    cmd = ["cmake", "-S", HERE, "-B", build_dir] + BUILD_FLAGS
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache) and configure(build_dir) != 0:
        return 1
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0:
        return 0
    # A cache from another source tree cannot be reused: start over once.
    log("incremental build failed; reconfiguring from scratch")
    shutil.rmtree(build_dir)
    if configure(build_dir) != 0:
        return 1
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main(argv):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"the simulator's sources are missing ({needed} not found "
                f"beside perfbench/); run from a full checkout")
            return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if build(build_dir) != 0:
        log("build failed")
        return 2
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

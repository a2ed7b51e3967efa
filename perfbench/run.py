#!/usr/bin/env python3
"""Build and run the hecmine end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload pricing --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles the library from src/) as
an optimised build under .bench_build/perfbench, then runs one workload
(or, with --workload all, each of the three in turn).
Build output goes to .bench_build/perfbench-build.log; stdout carries only
the benchmark's report, whose last line is the JSON result. Workloads,
metrics and seeds are described in perfbench/METRICS.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
BINARY = os.path.join(BUILD_DIR, "hecmine_perfbench")
WORKLOADS = ("pricing", "crowd", "campaign")
DEFAULT_SEED = 1


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a "
             "full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("'cmake' not found on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "hecmine_perfbench", "-j", jobs])
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            status = subprocess.run(step, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT).returncode
            if status != 0:
                log.flush()
                with open(BUILD_LOG) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail(f"build failed ({' '.join(step)}); see {BUILD_LOG}", 3)


def main():
    args = parse_args()
    build()
    # Library knobs read from the environment would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HECMINE_")}
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [BINARY, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--out-dir", os.path.join(ROOT, "bench_out", "perfbench")]
        sys.stdout.flush()
        status = max(status, subprocess.run(command, cwd=ROOT, env=env).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the Prio end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
prio_server and the perfbench binary from the repository's sources into
.bench_build/perfbench (Release); later runs only check the build is up to
date. Build output goes to stderr; the last line of stdout is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "prio_server",
                    "perfbench", "-j", "4"], check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--force-accept-cheat", action="store_true",
                   help="oracle self-check: the run must then fail")
    a = p.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "server",
                                       "prio_server.cc")):
        print("perfbench: the repository's src/ is not next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "run",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--server-bin", os.path.join(BUILD, "prio_server"),
           "--self-bin", os.path.join(BUILD, "perfbench"),
           "--work-dir", WORK]
    if a.force_accept_cheat:
        cmd.append("--force-accept-cheat")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

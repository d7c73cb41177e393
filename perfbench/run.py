#!/usr/bin/env python3
"""Build and run the DRESAR host-speed benchmark.

    python3 perfbench/run.py --workload paper_sci --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The first run configures and builds the
simulator library and the benchmark program (perfbench.cpp) with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Detail records and, with --trace 1,
Chrome trace_event span files are written under <build dir>/out.

Seeds: --seed drives the commercial_trace reference streams; paper_sci and
hotspot_flit are seed-independent. Seeds 1-99 are for development;
--held-out runs the reserved seed HELD_OUT_SEED the same way, so a claimed
gain can be checked on a seed nobody tuned against.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_sci", "hotspot_flit", "commercial_trace")
HELD_OUT_SEED = 7_340_033

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    obj = os.path.join(build_dir, "perfbench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in the checkout
    steps = []
    if not os.path.isfile(os.path.join(obj, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", obj, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed ({r.returncode}): {' '.join(cmd)}")
    return os.path.join(obj, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    seed = ap.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed", type=int)
    seed.add_argument("--held-out", action="store_true",
                      help=f"use the reserved held-out seed {HELD_OUT_SEED}")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 3600:
        fail("--seconds must be in 1..3600")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload,
           "--seed", str(HELD_OUT_SEED if args.held_out else args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

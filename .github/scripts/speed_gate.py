#!/usr/bin/env python3
"""Host-speed gate: alternating perfbench pairs of main and the head.

    python3 .github/scripts/speed_gate.py --main /tmp/main --main-build /tmp/pb-main \
        --head . --head-build /tmp/pb-head

For every perfbench workload (paper_sci, hotspot_flit, commercial_trace),
runs PAIRS pairs of `perfbench/run.py --workload W --seed 1 --seconds
SECONDS --trace 0` from each checkout, alternating which side goes first,
and compares the reported `wall_s` (the 90th percentile of round times). A
workload fails only when the head is slower in at least MAX_LOSSES of its
pairs *and* its median `wall_s` is more than THRESHOLD above main's; the
gate fails when any workload fails. Both conditions are loose on purpose:
on a shared runner the round-to-round IQR/median of the 90th percentile
reaches 0.20, so only a slowdown that is both consistent and large fails.
Any run that perfbench reports as incorrect fails the gate outright.

Run against itself (the same build on both sides, a shared 4-vCPU host),
three gate runs read head/main median ratio (pairs the head lost):

    paper_sci         0.946 (1/5)  0.870 (1/5)  1.126 (3/5)
    hotspot_flit      1.015 (2/5)  0.987 (3/5)  0.933 (2/5)
    commercial_trace  0.918 (0/5)  0.946 (2/5)  0.964 (3/5)

A 5 s run is 5-7 paper_sci rounds, so its p90 is close to the slowest
round. If a self-run ever fails on noise, lengthen the runs before
loosening the rule.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("paper_sci", "hotspot_flit", "commercial_trace")
PAIRS = 5
SECONDS = 5
MAX_LOSSES = 4
THRESHOLD = 0.15


def run_once(workload, checkout, build_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(build_dir))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", "1", "--seconds", str(SECONDS), "--trace", "0"],
                       cwd=checkout, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"speed gate: perfbench failed in {checkout} ({r.returncode})")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if not result.get("correct", False) or result.get("failed", 0):
        raise SystemExit(f"speed gate: perfbench in {checkout} reported an incorrect run: "
                         f"correct={result.get('correct')}, failed={result.get('failed')}")
    return result["metrics"]["wall_s"]["value"]


def gate(workload, sides):
    """Runs one workload's pairs; returns True when the head passes."""
    walls = {"main": [], "head": []}
    losses = 0
    for i in range(PAIRS):
        order = ("main", "head") if i % 2 == 0 else ("head", "main")
        got = {}
        for side in order:
            got[side] = run_once(workload, *sides[side])
            walls[side].append(got[side])
        lost = got["head"] > got["main"]
        losses += lost
        print(f"{workload} pair {i + 1}: main {got['main']:.4f} s, head {got['head']:.4f} s"
              f"{'  (head slower)' if lost else ''}")

    m_main = statistics.median(walls["main"])
    m_head = statistics.median(walls["head"])
    ratio = m_head / m_main
    print(f"{workload} p90 wall_s medians: main {m_main:.4f} s, head {m_head:.4f} s "
          f"(head/main {ratio:.3f}); head slower in {losses}/{PAIRS} pairs")
    if losses >= MAX_LOSSES and ratio > 1.0 + THRESHOLD:
        print(f"{workload} FAILED: head slower in >= {MAX_LOSSES} pairs and median "
              f"more than {THRESHOLD:.0%} above main")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--main", required=True, help="checkout of main")
    ap.add_argument("--main-build", required=True)
    ap.add_argument("--head", default=".", help="checkout of the head (default .)")
    ap.add_argument("--head-build", required=True)
    args = ap.parse_args()

    sides = {"main": (args.main, args.main_build), "head": (args.head, args.head_build)}
    failed = [w for w in WORKLOADS if not gate(w, sides)]
    if failed:
        print(f"speed gate FAILED on {', '.join(failed)}")
        return 1
    print("speed gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

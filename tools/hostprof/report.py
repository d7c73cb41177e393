#!/usr/bin/env python3
"""Symbolize hostprof samples into a flat profile.

    python3 tools/hostprof/report.py prof.txt [--top 30]
    python3 tools/hostprof/report.py prof.txt --annotate fireCycle

Reads the tables the hostprof shim (hostprof.cpp) writes, resolves every
sampled offset with `addr2line -a -f -C -i` against its module, and prints
samples per *containing* function: the outermost frame of the inline chain,
so a sample in a helper inlined into EventQueue::fireCycle counts for
fireCycle. Offsets addr2line cannot place (stripped libraries, the vDSO)
fall back to the nearest exported symbol the shim recorded.

--annotate FN prints the per-instruction sample counts of every containing
function whose name contains FN, with the instruction (objdump) and its
innermost source line.
"""

import argparse
import collections
import os
import subprocess
import sys


def load(path):
    """{(module, offset): samples} and {(module, offset): exported symbol}."""
    counts = {}
    fallback = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            n, module, off, sym = line.rstrip("\n").split("\t")
            key = (module, int(off, 16))
            counts[key] = int(n)
            fallback[key] = sym
    return counts, fallback


def addr2line(module, offsets):
    """{offset: [(function, file:line), ...]} innermost frame first."""
    if not os.path.isfile(module):
        return {}
    text = "".join(f"{o:#x}\n" for o in offsets)
    r = subprocess.run(["addr2line", "-e", module, "-a", "-f", "-C", "-i"], input=text,
                       capture_output=True, text=True)
    if r.returncode != 0:
        return {}
    frames = {}
    cur = None
    lines = r.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):  # -a: each address opens its record
            cur = int(lines[i], 16)
            frames[cur] = []
            i += 1
        elif cur is not None and i + 1 < len(lines):
            frames[cur].append((lines[i], lines[i + 1]))
            i += 2
        else:
            i += 1
    return frames


def symbolize(counts, fallback):
    """{(module, offset): [(function, location), ...]} innermost first."""
    by_module = collections.defaultdict(list)
    for module, off in counts:
        by_module[module].append(off)
    out = {}
    for module, offsets in by_module.items():
        frames = addr2line(module, sorted(offsets))
        for off in offsets:
            chain = [f for f in frames.get(off, []) if f[0] != "??"]
            if not chain:
                sym = fallback.get((module, off), "-")
                name = sym if sym != "-" else f"[{os.path.basename(module)}+{off:#x}]"
                chain = [(name, "??:0")]
            out[(module, off)] = chain
    return out


def disassemble(module, lo, hi):
    """{offset: instruction text} for [lo, hi] of `module` (empty without objdump)."""
    try:
        r = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn",
                            f"--start-address={lo:#x}", f"--stop-address={hi + 16:#x}", module],
                           capture_output=True, text=True)
    except FileNotFoundError:
        return {}
    insns = {}
    for line in r.stdout.splitlines():
        head, sep, rest = line.partition(":\t")
        if sep:
            try:
                insns[int(head.strip(), 16)] = rest.strip()
            except ValueError:
                pass
    return insns


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("file", help="a table written by the hostprof shim")
    ap.add_argument("--top", type=int, default=30, help="functions to list (default 30)")
    ap.add_argument("--annotate", metavar="FN",
                    help="per-instruction counts for containing functions matching FN")
    args = ap.parse_args()

    counts, fallback = load(args.file)
    total = sum(counts.values())
    if total == 0:
        print("hostprof: no samples", file=sys.stderr)
        return 1
    chains = symbolize(counts, fallback)

    if args.annotate:
        rows = [(m, o, n) for (m, o), n in counts.items() if args.annotate in chains[(m, o)][-1][0]]
        if not rows:
            print(f"hostprof: no samples in a function matching {args.annotate!r}", file=sys.stderr)
            return 1
        for module in sorted({m for m, _, _ in rows}):
            offs = sorted((o, n) for m, o, n in rows if m == module)
            insns = disassemble(module, offs[0][0], offs[-1][0])
            fn_total = sum(n for _, n in offs)
            print(f"{fn_total} samples ({100.0 * fn_total / total:.1f}% of {total}) in "
                  f"{os.path.basename(module)}")
            for off, n in offs:
                inner, loc = chains[(module, off)][0]
                print(f"  {off:#10x} {n:6d} {100.0 * n / total:5.1f}%  "
                      f"{insns.get(off, '?'):40.40s}  {inner} @ {os.path.basename(loc)}")
        return 0

    per_fn = collections.Counter()
    module_of = {}
    for key, n in counts.items():
        fn = chains[key][-1][0]
        per_fn[fn] += n
        module_of[fn] = os.path.basename(key[0])
    print(f"{total} samples")
    print(f"{'%':>6} {'samples':>8}  function (module)")
    for fn, n in per_fn.most_common(args.top):
        print(f"{100.0 * n / total:6.1f} {n:8d}  {fn} ({module_of[fn]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare a dresar-sweep result document against a reference one.

  value_check.py REFERENCE.json CANDIDATE.json [--ignore-wall-clock]

Same schema label: the files must be byte-identical. With
--ignore-wall-clock, for documents written without --deterministic such as
the committed BENCH_*.json files, the host-timing fields (wall_seconds,
wall_seconds_total, jobs) are dropped from both sides and every other field,
run, config, metric and block must be equal, with none added or dropped.
Different labels (the reference predates the current schema): the same
comparison, except that the candidate may also add the record metrics the
reports read (total_read_lat_ctoc, total_read_lat_clean_miss,
msgs_<MsgType>, total_read_latency). Exits 1 and names the differences
otherwise.
"""
import json
import sys

WALL_CLOCK = ('wall_seconds', 'wall_seconds_total', 'jobs')

def added_ok(name):
    return name.startswith('msgs_') or name in (
        'total_read_lat_ctoc', 'total_read_lat_clean_miss', 'total_read_latency')


def compare(where, ref, cand, errs, may_add):
    for key in sorted(set(ref) | set(cand)):
        if key == 'schema' or (IGNORE_WALL_CLOCK and key in WALL_CLOCK):
            continue
        if key not in cand or key not in ref:
            errs.append(f'{where}: {key} only in {"reference" if key in ref else "candidate"}')
        elif key == 'metrics' and where != 'document':
            for m in ref[key]:
                if cand[key].get(m) != ref[key][m]:
                    errs.append(f'{where}: metric {m} {ref[key][m]} -> {cand[key].get(m)}')
            errs.extend(f'{where}: unexpected metric {m}'
                        for m in cand[key] if m not in ref[key] and not (may_add and added_ok(m)))
        elif key in ('runs', 'configs'):
            if len(ref[key]) != len(cand[key]):
                errs.append(f'{where}: {len(ref[key])} {key} -> {len(cand[key])}')
                continue
            for r, c in zip(ref[key], cand[key]):
                compare(f'{key} {r["app"]}/{r["config"]}/{r.get("seed", 1)}', r, c, errs, may_add)
        elif ref[key] != cand[key]:
            errs.append(f'{where}: {key} differs')


def main(ref_path, cand_path):
    ref, cand = (json.load(open(p)) for p in (ref_path, cand_path))
    if ref['schema'] == cand['schema'] and not IGNORE_WALL_CLOCK:
        same = open(ref_path, 'rb').read() == open(cand_path, 'rb').read()
        print(f'{cand_path}: {"byte-identical to" if same else "DIFFERS from"} {ref_path}')
        return 0 if same else 1
    errs = []
    compare('document', ref, cand, errs, ref['schema'] != cand['schema'])
    for e in errs[:20]:
        print('  ' + e)
    print(f'{cand_path}: {"FAIL" if errs else "ok"}: {len(ref["runs"])} runs and '
          f'{len(ref["configs"])} configs of {ref_path} ({ref["schema"]}) '
          f'{"differ" if errs else "equal value for value"} in {cand["schema"]}')
    return 1 if errs else 0


if __name__ == '__main__':
    IGNORE_WALL_CLOCK = '--ignore-wall-clock' in sys.argv[3:]
    sys.exit(main(sys.argv[1], sys.argv[2]))

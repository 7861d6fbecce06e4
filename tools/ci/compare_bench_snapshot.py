#!/usr/bin/env python3
"""Compare a freshly emitted seeded BENCH_*.json with its committed snapshot.

bench_reliability_soak and bench_chaos are seeded, so every field they
write must reproduce exactly, except the wall-clock ones (wall_sec,
sim_ops_per_sec), which depend on the machine.  A difference means GC,
wear levelling, media handling or health behaviour moved.

Usage: compare_bench_snapshot.py COMMITTED FRESH
Exits 0 when the files agree, 1 (naming every differing field) otherwise.
"""

import json
import sys

WALL_CLOCK_FIELDS = {"wall_sec", "sim_ops_per_sec"}


def diff(committed, fresh, path, out):
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            if key in WALL_CLOCK_FIELDS:
                continue
            where = f"{path}.{key}"
            if key not in committed or key not in fresh:
                out.append(f"{where}: present in only one file")
            else:
                diff(committed[key], fresh[key], where, out)
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            out.append(f"{path}: {len(committed)} entries committed, "
                       f"{len(fresh)} fresh")
        for i, (c, f) in enumerate(zip(committed, fresh)):
            diff(c, f, f"{path}[{i}]", out)
    elif type(committed) is not type(fresh) or committed != fresh:
        out.append(f"{path}: committed {committed!r}, fresh {fresh!r}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        committed = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    out = []
    diff(committed, fresh, "$", out)
    for line in out:
        print(f"{argv[2]}: {line}")
    if out:
        return 1
    print(f"{argv[2]}: matches {argv[1]} "
          f"(ignoring {', '.join(sorted(WALL_CLOCK_FIELDS))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

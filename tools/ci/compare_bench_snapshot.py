#!/usr/bin/env python3
"""Compare a freshly emitted seeded BENCH_*.json with its committed snapshot.

bench_reliability_soak, bench_chaos and the perfbench simulated snapshot
(BENCH_perfbench_sim.json, see perfbench_sim_snapshot.py) are seeded, so
every field they write must reproduce exactly, except the ones that
depend on the host machine:

- the wall-clock fields wall_sec and sim_ops_per_sec;
- in perfbench reports, every metric timed on the host (unit "s" or
  "ns"), obs.trace_overhead_pct, and "attempted", which counts the
  passes that fit in the wall-clock budget.

A difference means simulated behaviour moved: GC, wear levelling, media
handling, health, or (for perfbench) a tick, count or placement of the
simulated device.

Usage: compare_bench_snapshot.py COMMITTED FRESH
Exits 0 when the files agree, 1 (naming every differing field) otherwise.
"""

import json
import sys

WALL_CLOCK_FIELDS = {"wall_sec", "sim_ops_per_sec"}
HOST_TIME_FIELDS = {"attempted", "obs.trace_overhead_pct"}
HOST_TIME_UNITS = {"s", "ns"}


def host_dependent(key, value):
    """True for a field whose value depends on the host machine."""
    if key in WALL_CLOCK_FIELDS or key in HOST_TIME_FIELDS:
        return True
    return isinstance(value, dict) and value.get("unit") in HOST_TIME_UNITS


def deterministic(doc):
    """@p doc without its host-dependent fields, at every depth."""
    if isinstance(doc, dict):
        return {k: deterministic(v) for k, v in doc.items()
                if not host_dependent(k, v)}
    if isinstance(doc, list):
        return [deterministic(v) for v in doc]
    return doc


def diff(committed, fresh, path, out):
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
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
        committed = deterministic(json.load(f))
    with open(argv[2]) as f:
        fresh = deterministic(json.load(f))
    out = []
    diff(committed, fresh, "$", out)
    for line in out:
        print(f"{argv[2]}: {line}")
    if out:
        return 1
    print(f"{argv[2]}: matches {argv[1]} (ignoring host-dependent fields)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

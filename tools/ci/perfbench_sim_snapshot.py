#!/usr/bin/env python3
"""Run the repository benchmark once per workload and keep what is simulated.

    python3 tools/ci/perfbench_sim_snapshot.py OUT.json

Runs perfbench/run.py --seed 1 --seconds 0.1 --trace 1 on every workload
(paper_bulk, paper_grid, nvme_mix), passing each report through to
standard output, and writes OUT.json keyed by workload: each run's
"correct" and "failed" flags and every per-layer metric that does not
depend on the host (compare_bench_snapshot.deterministic).  These fields
do not depend on --seconds either.  Compare OUT.json with the committed
BENCH_perfbench_sim.json with compare_bench_snapshot.py; a change that
moves a simulated tick, count or placement must re-commit the snapshot
from this script's output and say why.

Exits non-zero when a run fails (build failure, wrong result, metric
names that differ from BENCHMARK.json).  Run from the root of a checkout.
"""

import json
import os
import subprocess
import sys

from compare_bench_snapshot import deterministic

WORKLOADS = ("paper_bulk", "paper_grid", "nvme_mix")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    run_py = os.path.join("perfbench", "run.py")
    snapshot = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", w, "--seed", "1",
             "--seconds", "0.1", "--trace", "1"],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench_sim_snapshot: {w} failed "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return 1
        report = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        snapshot[w] = deterministic(report)
    with open(argv[1], "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

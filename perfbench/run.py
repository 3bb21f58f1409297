#!/usr/bin/env python3
"""The mrlrc benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload exhaustive_table --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports mrlrc from src/.  Workloads and
their codes are in perfbench/workloads.py, metric names and units in
BENCHMARK.json.  With --trace 0 the run times set-up in fresh processes,
then gives each phase its share of --seconds in whole rounds and reports
the median rate over rounds.  With --trace 1 it runs one round of every
phase untraced and then traced, and reports per-layer counts and self
times.  Every output is checked against perfbench/oracle.py or against a
property of the method.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mrlrc" / "__init__.py").is_file():
        print(f"mrlrc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        b = bench.Bench(args.workload, args.seed, work_dir)
        if args.trace:
            values = b.traced()
            wanted = spec["per_layer"]
        else:
            values = b.timed(args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    for line in b.log:
        print(line)
    for err in b.errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({"correct": not b.errors, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/repeat.py [--seeds 1-10] [--trace 0]

Run from the repository root.  Runs every workload of BENCHMARK.json for
its run_seconds on each seed, and prints one Markdown table with a row
per metric and a column per workload.  Each cell is the median over the
seeds with the spread (Q3 - Q1) / median in brackets, quartiles as
statistics.quantiles(values, n=4) gives them; a single seed prints its
value alone.  This is the command that regenerates every figure stored
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cell(vals: list[float]) -> str:
    med = statistics.median(vals)
    if len(vals) == 1:
        return f"{med:.6g}"
    q1, _, q3 = statistics.quantiles(vals, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return f"{med:.6g} ({spread:.3f})"


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    for workload in workloads:
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            doc = json.loads(out.stdout.splitlines()[-1])
            if not doc["correct"] or doc["failed"]:
                print(f"{workload} seed {seed}: correct={doc['correct']} "
                      f"failed={doc['failed']}/{doc['attempted']}", file=sys.stderr)
            for name, m in doc["metrics"].items():
                values[workload][name].append(m["value"])
    print("| metric | unit | " + " | ".join(f"`{w}`" for w in workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for m in metrics:
        cells = " | ".join(cell(values[w][m["name"]]) for w in workloads)
        print(f"| `{m['name']}` | {m['unit']} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep parameter regimes and compare the field-size bounds of the three
constructions against each other and against the lower bound.

Each construction's bound has a different dominant exponent
(t + N(r-t) for the generator-side code, hN and g(N(delta-1)+t)+h for the
parity-check codes), so each wins somewhere; this sweep makes the regimes
visible.  Usage:

    python scripts/field_size_comparison.py [--max-r 5] [--max-g 6]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mrlrc.topology import make_topology  # noqa: E402
from mrlrc.verify import table1_row  # noqa: E402


def settings(max_r: int, max_g: int, delta: int, N: int):
    """(topology, h) for every setting the sweep compares, in table order."""
    for r in range(1, max_r + 1):
        for t in range(1, r + 1):
            for g in range(1, max_g + 1):
                topo = make_topology(r, delta, t, g, N)
                for h in range(1, min(r, topo.max_dimension()) + 1):
                    yield topo, h


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-r", type=int, default=5)
    ap.add_argument("--max-g", type=int, default=6)
    ap.add_argument("--delta", type=int, default=2)
    ap.add_argument("--N", type=int, default=2)
    args = ap.parse_args()

    header = (f"{'r':>2} {'t':>2} {'g':>2} {'h':>2} "
              f"{'gen':>14} {'pc1':>14} {'pc2':>18} {'winner':>7} {'lower':>8}")
    print(header)
    print("-" * len(header))
    wins = {"gen": 0, "pc1": 0, "pc2": 0}
    fmt = lambda v: "-" if v is None else str(v)
    for topo, h in settings(args.max_r, args.max_g, args.delta, args.N):
        row = table1_row(topo, h=h)
        cells = {kind: row[kind].get("bound_value")
                 for kind in ("gen", "pc1", "pc2")}
        present = {k: v for k, v in cells.items() if v is not None}
        if not present:
            continue
        winner = min(present, key=present.get)
        wins[winner] += 1
        lb = row["lower_bound"]
        lb_cell = ("-" if lb["regime"] == "none"
                   else f"{lb['floor']}({lb['regime']})")
        print(f"{topo.r:>2} {topo.t:>2} {topo.g:>2} {h:>2} "
              f"{fmt(cells['gen']):>14} {fmt(cells['pc1']):>14} "
              f"{fmt(cells['pc2']):>18} {winner:>7} {lb_cell:>8}")
    print()
    total = sum(wins.values())
    for kind, count in wins.items():
        print(f"{kind} achieves the smallest bound in {count}/{total} settings")
    return 0


if __name__ == "__main__":
    sys.exit(main())

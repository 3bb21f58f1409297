#!/usr/bin/env python3
"""End-to-end experiment: build the reference codes, verify the MR property
exhaustively on both routes, and run the seeded failure simulator.
Bundles and JSON reports land in the output directory.

    python scripts/build_verify_simulate.py --out runs/ --seed 2024
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mrlrc.constructions import construct, write_bundle  # noqa: E402
from mrlrc.simulate import SimConfig, run_simulation  # noqa: E402
from mrlrc.topology import make_topology  # noqa: E402
from mrlrc.verify import code_id, verify_mr_exhaustive  # noqa: E402

REFERENCE_CODES = [
    ("gen", (2, 2, 1, 2, 2), {"k": 5}),
    ("gen", (2, 3, 1, 2, 1), {"k": 3}),
    ("gen", (3, 2, 2, 2, 2), {"k": 6}),
    ("pc1", (2, 2, 1, 2, 2), {"h": 2}),
    ("pc2", (2, 2, 1, 2, 1), {"h": 1}),
]


def build(kind, params, arg):
    return construct(make_topology(*params), kind, **arg)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--trials", type=int, default=5000)
    args = ap.parse_args()
    out = Path(args.out)

    failures = 0
    for kind, params, arg in REFERENCE_CODES:
        t0 = time.monotonic()
        code = build(kind, params, arg)
        name = code_id(code)
        bundle_dir = out / name
        write_bundle(code, bundle_dir)
        for side in ("generator", "parity"):
            rep = verify_mr_exhaustive(code, side=side)
            (bundle_dir / f"verify.{side}.json").write_text(rep.to_json())
            if not rep.passed:
                failures += 1
                print(f"{name}: {side}-side verification FAILED")
        sim = run_simulation(code, SimConfig(
            trials=args.trials, model="adversarial_maximal", seed=args.seed))
        (bundle_dir / "simulate.json").write_text(sim.to_json())
        status = "ok" if sim.data_loss == 0 else "DATA LOSS"
        print(f"{name}: field {code.plan.field_size}, verified both sides, "
              f"{args.trials} adversarial trials -> "
              f"local {sim.local_repair} / global {sim.global_repair} / "
              f"loss {sim.data_loss} [{status}] "
              f"({time.monotonic() - t0:.1f} s)")
        if sim.data_loss:
            failures += 1
    if failures:
        print(f"{failures} failures")
        return 2
    print(f"all reference codes verified; artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

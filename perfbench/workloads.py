"""The benchmark's workloads: which codes each builds and how much of each
phase one round runs.

A code spec is (kind, (r, delta, t, g, N), {"k": ...} or {"h": ...}).
Every workload runs every phase; they differ in where the time goes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from mrlrc import constructions
from mrlrc.topology import make_topology

# the reference codes of scripts/build_verify_simulate.py
REFERENCE_CODES = (
    ("gen", (2, 2, 1, 2, 2), {"k": 5}),
    ("gen", (2, 3, 1, 2, 1), {"k": 3}),
    ("gen", (3, 2, 2, 2, 2), {"k": 6}),
    ("pc1", (2, 2, 1, 2, 2), {"h": 2}),
    ("pc2", (2, 2, 1, 2, 1), {"h": 1}),
)


@dataclass(frozen=True)
class Workload:
    codes: tuple
    exhaustive: tuple      # indices into codes swept by both exhaustive routes
    mutate: int            # index of the code whose mutated copies must fail
    sampled_trials: int    # verify_mr_sampled trials per code per round
    sim_trials: int        # run_simulation trials per code and model per round
    encode_words: int      # messages encoded per code per round
    decode_words: int      # words decoded per code per round
    shares: dict           # phase -> share of the measured seconds


WORKLOADS = {
    # exhaustive sweeps over log/Zech table fields: det/rank elimination
    "exhaustive_table": Workload(
        codes=(
            ("gen", (2, 2, 1, 3, 2), {"k": 7}),     # n=15, GF(64)
            ("pc1", (2, 2, 1, 3, 2), {"h": 2}),     # n=15, GF(256)
            ("pc2", (2, 2, 1, 3, 1), {"h": 1}),     # n=9, GF(2^14) tables
        ),
        exhaustive=(0, 1, 2),
        mutate=2,
        sampled_trials=200,
        sim_trials=100,
        encode_words=500,
        decode_words=130,
        shares={"generator": 0.3, "parity": 0.4, "sampled": 0.075,
                "simulate": 0.075, "encode": 0.075, "decode": 0.075},
    ),
    # simulator, decoder and sampled verify: topology, rng, small ranks
    "repair_sim": Workload(
        codes=REFERENCE_CODES + (
            ("gen", (3, 2, 1, 3, 2), {"k": 10}),    # n=21, GF(1024)
        ),
        exhaustive=(0, 1, 2, 3, 4),
        mutate=0,
        sampled_trials=100,
        sim_trials=35,
        encode_words=170,
        decode_words=50,
        shares={"generator": 0.15, "parity": 0.15, "sampled": 0.15,
                "simulate": 0.3, "encode": 0.05, "decode": 0.2},
    ),
    # top fields above 2^16: generic polynomial arithmetic in ff
    "generic_field": Workload(
        codes=(
            ("pc2", (2, 2, 1, 2, 2), {"h": 1}),     # GF(3^14)
            ("pc2", (3, 3, 1, 2, 1), {"h": 1}),     # GF(5^7)
            ("gen", (4, 2, 1, 1, 2), {"k": 7}),     # GF(5^7)
            ("pc2", (1, 2, 1, 3, 2), {"h": 1}),     # GF(2^20), XOR add
        ),
        exhaustive=(0, 1, 2, 3),
        mutate=2,
        sampled_trials=10,
        sim_trials=10,
        encode_words=30,
        decode_words=5,
        shares={"generator": 0.2, "parity": 0.22, "sampled": 0.08,
                "simulate": 0.3, "encode": 0.05, "decode": 0.15},
    ),
}


def build_code(spec):
    kind, (r, delta, t, g, n_avail), arg = spec
    mode = "availability" if t <= delta - 1 else "plain"
    topo = make_topology(r, delta, t, g, n_avail, mode=mode)
    return constructions.construct(topo, kind, **arg)


def setup_codes(name: str, work_dir: str) -> list:
    """Build every code of the workload and round-trip it through a bundle.

    Returns the codes read back; raises if a bundle does not reproduce
    the matrices it was written from.
    """
    out = []
    for i, spec in enumerate(WORKLOADS[name].codes):
        code = build_code(spec)
        path = constructions.write_bundle(code, os.path.join(work_dir, f"code{i}"))
        back = constructions.read_bundle(path)
        if back.G != code.G or back.H != code.H:
            raise RuntimeError(f"bundle round trip changed code {i}")
        out.append(back)
    return out

"""Seeded storage-failure simulator over a constructed code.

Each trial draws an erasure pattern from the configured failure model,
then repairs: first locally, group by group (find a witness repair set,
decode it from r survivors, then the remaining sets of the group, which
are disjoint outside the core and can be read in parallel); if any group
resists local repair the full word goes to the global erasure decoder,
which succeeds exactly when H restricted to the erased coordinates has
full column rank.  Trials carry no data: both phases are decided from
the topology and the rank of H, and no symbol is computed.

Trials run in blocks of verify.BLOCK.  A block draws its trials and
repairs each locally, in the order of a trial-at-a-time run, then ranks
the patterns of its trials that went global on H together
(verify.unrecoverable, one walk that eliminates each shared prefix
once); outcomes are counted in trial order, so the report does not
depend on the block size, and memory holds one block.

Cost accounting: every engaged repair set reads r symbols (the locality
promise of an (r+delta-1, r) local MDS code); a global decode reads all
surviving symbols.  The parallel width of a trial is the largest number
of repair sets of one group engaged after its witness set was restored.

Failure models:
  uniform_nodes       f distinct coordinates, uniform
  per_group_burst     per group: delta-1 erasures inside one repair set
  adversarial_maximal a maximal locally correctable pattern (uniform per
                      group) plus up to `extra` additional coordinates

All randomness flows from one 64-bit seed through xoshiro256**; reports
are byte-identical across runs with the same seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .constructions import MrLrcCode
from .rng import ALGORITHM, Xoshiro256
from .topology import draw_maximal_pattern, group_witnesses, per_group_maximal_sets
from .verify import BLOCK, unrecoverable

MODELS = ("uniform_nodes", "per_group_burst", "adversarial_maximal")


@dataclass(frozen=True)
class SimConfig:
    trials: int
    model: str
    seed: int
    failures: int | None = None   # uniform_nodes: how many nodes fail
    extra: int | None = None      # adversarial_maximal: max extra erasures

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.model not in MODELS:
            raise ValueError(f"unknown failure model {self.model!r}")
        if self.model == "uniform_nodes" and (self.failures is None
                                              or self.failures < 0):
            raise ValueError("uniform_nodes needs failures >= 0")
        if self.failures is not None and self.model != "uniform_nodes":
            raise ValueError(f"failures applies to uniform_nodes only, not {self.model}")
        if self.extra is not None and self.model != "adversarial_maximal":
            raise ValueError(f"extra applies to adversarial_maximal only, not {self.model}")
        if self.extra is not None and self.extra < 0:
            raise ValueError(f"extra must be >= 0, got {self.extra}")


@dataclass
class SimReport:
    model: str
    seed: int
    trials: int
    local_repair: int
    global_repair: int
    data_loss: int
    symbols_read: int
    symbols_repaired: int
    max_trial_reads: int
    max_parallel_width: int
    local_parities: int
    baseline_local_parities: int  # kN(delta-1): one core symbol per N sets

    @property
    def reads_per_repaired(self) -> Fraction | None:
        if not self.symbols_repaired:
            return None
        return Fraction(self.symbols_read, self.symbols_repaired)

    def to_json_dict(self) -> dict:
        rpr = self.reads_per_repaired
        return {
            "schema_version": 1,
            "prng": {"algorithm": ALGORITHM, "seed": self.seed},
            "model": self.model,
            "trials": self.trials,
            "outcomes": {
                "local_repair": self.local_repair,
                "global_repair": self.global_repair,
                "data_loss": self.data_loss,
            },
            "symbols_read": self.symbols_read,
            "symbols_repaired": self.symbols_repaired,
            "reads_per_repaired": None if rpr is None else str(rpr),
            "max_trial_reads": self.max_trial_reads,
            "max_parallel_width": self.max_parallel_width,
            "overhead": {
                "local_parities": self.local_parities,
                "baseline_local_parities": self.baseline_local_parities,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"


def _draw_pattern(code: MrLrcCode, cfg: SimConfig, rng: Xoshiro256,
                  per_group) -> set:
    topo = code.topo
    if cfg.model == "uniform_nodes":
        return set(rng.sample(range(1, topo.n + 1), cfg.failures))
    if cfg.model == "per_group_burst":
        out = set()
        for i in range(topo.g):
            j = rng.randrange(topo.N)
            out.update(rng.sample(sorted(topo.repair[i][j]), topo.delta - 1))
        return out
    cap = code.h if cfg.extra is None else cfg.extra
    return draw_maximal_pattern(topo, per_group, cap, rng)


def _local_repair(code: MrLrcCode, erased: set):
    """(fully_repaired, reads, repaired, parallel_width) of the local phase.

    A group with erasures and a witness j spends r reads on the c_0 + c_j
    erasures of R_(i,j), when there are any, then r reads on each other
    segment holding erasures, and repairs them all; a group without a
    witness leaves its erasures to the global decoder."""
    topo = code.topo
    r = topo.r
    ok = True
    reads = repaired = width = 0
    for counts in topo.part_counts(erased):
        if not any(counts):
            continue
        witnesses, _tight = group_witnesses(topo, counts)
        if not witnesses:
            ok = False
            continue
        segs = counts[1:]
        in_witness = segs[witnesses[0] - 1]
        parallel = len(segs) - segs.count(0) - bool(in_witness)
        reads += r * (bool(counts[0] + in_witness) + parallel)
        repaired += sum(counts)
        width = max(width, parallel)
    return ok, reads, repaired, width


def run_simulation(code: MrLrcCode, cfg: SimConfig) -> SimReport:
    """Run cfg.trials seeded trials; raises ValueError when uniform_nodes
    asks for more failures than the code has nodes."""
    if cfg.model == "uniform_nodes" and cfg.failures > code.n:
        raise ValueError(f"uniform_nodes needs failures <= n: "
                         f"failures = {cfg.failures} > n = {code.n}")
    rng = Xoshiro256(cfg.seed)
    per_group = (per_group_maximal_sets(code.topo)
                 if cfg.model == "adversarial_maximal" else None)
    local = glob = loss = 0
    total_reads = total_repaired = 0
    max_reads = max_width = 0
    n = code.topo.n
    for start in range(0, cfg.trials, BLOCK):
        block = []
        for _ in range(min(BLOCK, cfg.trials - start)):
            erased = _draw_pattern(code, cfg, rng, per_group)
            block.append((tuple(sorted(erased)), _local_repair(code, erased)))
        lost = unrecoverable(code, [erased for erased, (ok, *_) in block if not ok])
        for erased, (ok, reads, repaired, width) in block:
            if ok:
                local += 1
            else:
                # global decode works on the original pattern, reading every survivor
                reads = n - len(erased)
                if erased in lost:
                    loss += 1
                    repaired = 0
                else:
                    glob += 1
                    repaired = len(erased)
            total_reads += reads
            total_repaired += repaired
            max_reads = max(max_reads, reads)
            max_width = max(max_width, width)
    topo = code.topo
    return SimReport(model=cfg.model, seed=cfg.seed, trials=cfg.trials,
                     local_repair=local, global_repair=glob, data_loss=loss,
                     symbols_read=total_reads, symbols_repaired=total_repaired,
                     max_trial_reads=max_reads, max_parallel_width=max_width,
                     local_parities=topo.local_parity_count(),
                     baseline_local_parities=code.k * topo.N * (topo.delta - 1))

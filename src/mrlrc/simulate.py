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

What a trial costs: its draws, each one xoshiro256** step unless
rejected; building its erasure tuple, by concatenating the groups' drawn
maximal sets or by sorting samples of repair sets that are sorted once
per run; one part_counts pass over the erasures, after which each
group's local outcome is one dict lookup keyed by its part-count tuple,
filled from group_witnesses the first time a run meets that tuple; and,
for a trial that goes global, its share of the block's rank walk.  No
table outlives a run_simulation call.

Cost accounting: every engaged repair set reads r symbols (the locality
promise of an (r+delta-1, r) local MDS code); a global decode reads all
surviving symbols.  The parallel width of a trial is the largest number
of repair sets of one group engaged after its witness set was restored.

Failure models:
  uniform_nodes       f distinct coordinates, uniform
  per_group_burst     per group: delta-1 erasures inside one repair set
  adversarial_maximal a maximal locally correctable pattern (uniform per
                      group) plus up to `extra` additional coordinates,
                      0 <= extra < 2^64

All randomness flows from one 64-bit seed through xoshiro256**; reports
are byte-identical across runs with the same seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .constructions import MrLrcCode
from .rng import ALGORITHM, MASK64, Xoshiro256
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
        if self.extra is not None and not 0 <= self.extra <= MASK64:
            # each trial draws randrange(extra + 1), defined up to 2^64
            raise ValueError(f"extra must be in [0, 2^64), got {self.extra}")


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


def _drawer(code: MrLrcCode, cfg: SimConfig, rng: Xoshiro256):
    """A function that draws one trial's erasures as an increasing tuple.
    What a model draws from is built here, once per run: each repair set
    sorted (per_group_burst) or group 1's maximal sets
    (adversarial_maximal)."""
    topo = code.topo
    if cfg.model == "uniform_nodes":
        coords, failures = range(1, topo.n + 1), cfg.failures
        return lambda: tuple(sorted(rng.sample(coords, failures)))
    if cfg.model == "per_group_burst":
        bursts = [[sorted(rs) for rs in sets] for sets in topo.repair]
        N, d1 = topo.N, topo.delta - 1

        def draw():
            out = []
            for group in bursts:
                out += rng.sample(group[rng.randrange(N)], d1)
            return tuple(sorted(out))
        return draw
    per_group = per_group_maximal_sets(topo)
    cap = code.h if cfg.extra is None else cfg.extra
    return lambda: draw_maximal_pattern(topo, per_group, cap, rng)


def _group_repair(topo, counts):
    """(reads, repaired, parallel_width) of one group's local phase, or
    None when the group has no witness.

    A group with erasures and a witness j spends r reads on the c_0 + c_j
    erasures of R_(i,j), when there are any, then r reads on each other
    segment holding erasures, and repairs them all; a group without a
    witness leaves its erasures to the global decoder."""
    if not any(counts):
        return 0, 0, 0
    witnesses, _tight = group_witnesses(topo, counts)
    if not witnesses:
        return None
    segs = counts[1:]
    in_witness = segs[witnesses[0] - 1]
    parallel = len(segs) - segs.count(0) - bool(in_witness)
    return (topo.r * (bool(counts[0] + in_witness) + parallel), sum(counts),
            parallel)


def _local_repair(topo, erased, outcomes: dict):
    """(fully_repaired, reads, repaired, parallel_width) of the local phase.

    Each group's outcome depends on its part counts alone, so it is read
    from outcomes, keyed by the part-count tuple and filled by
    _group_repair on first use."""
    ok = True
    reads = repaired = width = 0
    for counts in topo.part_counts(erased):
        key = tuple(counts)
        try:
            group = outcomes[key]
        except KeyError:
            group = outcomes[key] = _group_repair(topo, counts)
        if group is None:
            ok = False
            continue
        reads += group[0]
        repaired += group[1]
        if group[2] > width:
            width = group[2]
    return ok, reads, repaired, width


def run_simulation(code: MrLrcCode, cfg: SimConfig) -> SimReport:
    """Run cfg.trials seeded trials; raises ValueError when uniform_nodes
    asks for more failures than the code has nodes."""
    if cfg.model == "uniform_nodes" and cfg.failures > code.n:
        raise ValueError(f"uniform_nodes needs failures <= n: "
                         f"failures = {cfg.failures} > n = {code.n}")
    topo = code.topo
    draw = _drawer(code, cfg, Xoshiro256(cfg.seed))
    outcomes = {}
    local = glob = loss = 0
    total_reads = total_repaired = 0
    max_reads = max_width = 0
    n = topo.n
    for start in range(0, cfg.trials, BLOCK):
        block = []
        for _ in range(min(BLOCK, cfg.trials - start)):
            erased = draw()
            block.append((erased, _local_repair(topo, erased, outcomes)))
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
    return SimReport(model=cfg.model, seed=cfg.seed, trials=cfg.trials,
                     local_repair=local, global_repair=glob, data_loss=loss,
                     symbols_read=total_reads, symbols_repaired=total_repaired,
                     max_trial_reads=max_reads, max_parallel_width=max_width,
                     local_parities=topo.local_parity_count(),
                     baseline_local_parities=code.k * topo.N * (topo.delta - 1))

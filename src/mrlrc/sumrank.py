"""Linearized Reed-Solomon (LRS) generators, the MSRD codes under all three
constructions.

For a length partition (g, r) over a tower GF(q) <= GF(q^m), block i of
the k-dimensional LRS generator holds the rows
beta_j^(q^l) * a_i^((q^l-1)/(q-1)), l = 0..k-1, with a_i norm-distinct
units and beta r elements of GF(q^m) independent over GF(q).  The
constructions take their global rows from `frobenius_rows` on one
contracted GF(q) matrix; `lrs_generator` builds the canonical code of a
partition, against which those rows are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elim import reduce_rows
from .ff import FieldTower
from .matrix import MatrixF


class BadParams(ValueError):
    """Linearized RS preconditions (q > g, m >= r, k <= gr) violated."""


@dataclass(frozen=True)
class SumRankPartition:
    """Length partition (g, r) over a tower GF(q) <= GF(q^m)."""

    tower: FieldTower
    g: int
    r: int

    def __post_init__(self):
        if self.g < 1 or self.r < 1:
            raise ValueError("g and r must be positive")

    @property
    def n(self) -> int:
        return self.g * self.r


@dataclass(frozen=True)
class LrsCode:
    """A k-dimensional linearized Reed-Solomon code and its ingredients."""

    partition: SumRankPartition
    k: int
    a: tuple[int, ...]
    beta: tuple[int, ...]
    generator: MatrixF


def _block_rank(entries, tower: FieldTower) -> int:
    """GF(q)-rank of the coordinate expansion of a block of top-field entries."""
    pivots, _ = reduce_rows([list(tower.base_coords(c)) for c in entries],
                            tower.base)
    return len(pivots)


def lrs_generator(part: SumRankPartition, k: int) -> LrsCode:
    """Canonical k-dimensional linearized RS code for the partition (g, r).

    Block i of the generator has rows  (beta_j^(q^l) * a_i^((q^l-1)/(q-1)))
    for l = 0..k-1, with a_i the canonical norm-distinct units and beta the
    first r elements of the polynomial basis of GF(q^m) over GF(q).
    """
    tower, g, r = part.tower, part.g, part.r
    q, m = tower.q, tower.m
    if q <= g:
        raise BadParams(f"need q > g, got q = {q}, g = {g}")
    if m < r:
        raise BadParams(f"need m >= r, got m = {m}, r = {r}")
    if not 0 <= k <= part.n:
        raise BadParams(f"need 0 <= k <= {part.n}, got {k}")
    a = tower.distinct_norm_elements(g)
    beta = tower.polynomial_basis[:r]
    if _block_rank(beta, tower) != r:
        raise AssertionError("polynomial basis prefix not independent")
    gmat = frobenius_rows(tower, beta, a, k)
    return LrsCode(partition=part, k=k, a=a, beta=beta, generator=gmat)


def frobenius_rows(tower: FieldTower, beta, a, k: int) -> MatrixF:
    """The k x (len(a) len(beta)) matrix whose row l holds, in block i, the
    entries beta_j^(q^l) * a_i^((q^l-1)/(q-1)) for every j."""
    top = tower.top
    rows = []
    beta_l = list(beta)
    a_l = [1] * len(a)
    for l in range(k):
        if l > 0:
            beta_l = [tower.frobenius(x) for x in beta_l]
            a_l = [top.mul(tower.frobenius(x), ai) for x, ai in zip(a_l, a)]
        row = []
        for ai in a_l:
            row.extend(top.mul(x, ai) for x in beta_l)
        rows.append(row)
    return MatrixF(top, rows, cols=len(a) * len(beta))

"""Sum-rank metric computations, linearized Reed-Solomon generators, and
brute-force MSRD verification at desk scale.

For a vector over GF(q^m) split into g blocks of length r, the sum-rank
weight is the sum over blocks of the GF(q)-rank of the m x r coordinate
expansion of the block.  r = 1 recovers the Hamming weight, g = 1 the
rank weight.

The minimum-distance enumerator only walks messages whose first nonzero
coordinate is 1: multiplying a codeword by a nonzero scalar multiplies
every block by a GF(q)-linear bijection of GF(q^m), so the sum-rank
weight is scalar-invariant and one codeword per projective class
suffices.  The enumeration cap is still expressed in terms of the full
codebook size (q^m)^k, matching the documented contract.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

from .elim import reduce_rows
from .ff import FieldCtx, FieldTower, make_tower
from .matrix import MatrixF, block_diag, map_entries, read_srmat, write_srmat
from . import localmds
from .rng import Xoshiro256


class LengthMismatch(ValueError):
    """Vector length does not equal g * r."""


class BadParams(ValueError):
    """Linearized RS preconditions (q > g, m >= r, k <= gr) violated."""


class TooLargeToEnumerate(ValueError):
    """Codebook or matrix-tuple enumeration exceeds the configured cap."""


DEFAULT_CODEWORD_CAP = 10 ** 6
DEFAULT_TUPLE_CAP = 10 ** 4


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


def sum_rank_weight(v, part: SumRankPartition) -> int:
    """Sum over blocks of the GF(q)-rank of the block's coordinate expansion."""
    v = tuple(v)
    if len(v) != part.n:
        raise LengthMismatch(f"expected length {part.n}, got {len(v)}")
    r = part.r
    total = 0
    for i in range(part.g):
        block = v[i * r:(i + 1) * r]
        if any(block):
            total += _block_rank(block, part.tower)
    return total


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
            beta_l = [tower.frobenius(x, 1) for x in beta_l]
            a_l = [top.mul(tower.frobenius(x, 1), ai) for x, ai in zip(a_l, a)]
        row = []
        for ai in a_l:
            row.extend(top.mul(x, ai) for x in beta_l)
        rows.append(row)
    return MatrixF(top, rows, cols=len(a) * len(beta))


def _as_generator(code) -> MatrixF:
    return code.generator if isinstance(code, LrsCode) else code


def write_lrs(code: LrsCode, out_dir, name: str = "lrs") -> str:
    """Serialize generator (SRMAT) plus a JSON sidecar with the ingredients.

    The sidecar records (p, s, m, g, r, k, a, beta) with field elements in
    the canonical integer encoding; returns the sidecar path."""
    os.makedirs(out_dir, exist_ok=True)
    tower = code.partition.tower
    mat_name = f"{name}.srmat"
    write_srmat(code.generator, os.path.join(out_dir, mat_name))
    doc = {
        "p": tower.top.p,
        "s": tower.s,
        "m": tower.m,
        "g": code.partition.g,
        "r": code.partition.r,
        "k": code.k,
        "a": list(code.a),
        "beta": list(code.beta),
        "generator": mat_name,
    }
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def read_lrs(path) -> LrsCode:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    tower = make_tower(doc["p"], doc["s"], doc["m"])
    part = SumRankPartition(tower, doc["g"], doc["r"])
    gmat = read_srmat(os.path.join(os.path.dirname(os.path.abspath(path)),
                                   doc["generator"]))
    if gmat.ctx != tower.top:
        raise ValueError("generator field does not match the sidecar tower")
    return LrsCode(partition=part, k=doc["k"], a=tuple(doc["a"]),
                   beta=tuple(doc["beta"]), generator=gmat)


def min_sum_rank_distance(code, part: SumRankPartition,
                          cap: int = DEFAULT_CODEWORD_CAP) -> int:
    """Minimum sum-rank weight over nonzero codewords, by enumeration."""
    gmat = _as_generator(code)
    if gmat.cols != part.n:
        raise LengthMismatch("generator length does not match the partition")
    k = gmat.rows
    if k == 0:
        raise ValueError("zero-dimensional code has no minimum distance")
    top = part.tower.top
    if top.order ** k > cap:
        raise TooLargeToEnumerate(f"(q^m)^k = {top.order ** k} exceeds cap {cap}")
    n = part.n
    add, mul = top.add, top.mul
    rows = [list(r) for r in gmat.data]
    best = n + 1
    # one representative per projective class: first nonzero message coord is 1
    for lead in range(k):
        lead_row = rows[lead]
        tail = rows[lead + 1:]
        for combo in itertools.product(top.elements(), repeat=k - 1 - lead):
            cw = list(lead_row)
            for c, row in zip(combo, tail):
                if c:
                    cw = [add(v, mul(c, w)) for v, w in zip(cw, row)]
            w = sum_rank_weight(cw, part)
            if w < best:
                best = w
                if best == 1:
                    return 1
    return best


def is_msrd(code, part: SumRankPartition, cap: int = DEFAULT_CODEWORD_CAP) -> bool:
    """True iff the minimum sum-rank distance attains n - k + 1."""
    gmat = _as_generator(code)
    return min_sum_rank_distance(code, part, cap) == part.n - gmat.rows + 1


def invertible_matrices(ctx: FieldCtx, r: int) -> list[MatrixF]:
    """All of GL_r(GF(q)), in canonical enumeration order."""
    out = []
    for flat in itertools.product(ctx.elements(), repeat=r * r):
        m = MatrixF(ctx, [flat[i * r:(i + 1) * r] for i in range(r)])
        if m.rank() == r:
            out.append(m)
    if len(out) != gl_order(ctx.order, r):
        raise AssertionError("GL enumeration does not match the order formula")
    return out


def gl_order(q: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= q ** r - q ** i
    return out


def _random_invertible(ctx: FieldCtx, r: int, rng: Xoshiro256) -> MatrixF:
    while True:
        m = MatrixF(ctx, [[rng.randrange(ctx.order) for _ in range(r)]
                          for _ in range(r)])
        if m.rank() == r:
            return m


def msrd_mds_projection_check(code, part: SumRankPartition, *,
                              exhaustive: bool = True, samples: int = 0,
                              seed: int = 0, cap: int = DEFAULT_TUPLE_CAP,
                              witness: bool = False):
    """Check that C diag(A_1, ..., A_g) is MDS for invertible blocks A_i.

    Exhaustive mode walks every tuple in GL_r(GF(q))^g (refusing beyond
    cap); sampled mode draws `samples` seeded random tuples.  Returns a
    bool, or (bool, failing_tuple | None) when witness=True.
    """
    gmat = _as_generator(code)
    tower = part.tower
    base, top = tower.base, tower.top
    if exhaustive:
        total = gl_order(base.order, part.r) ** part.g
        if total > cap:
            raise TooLargeToEnumerate(f"{total} tuples exceed cap {cap}")
        gl = invertible_matrices(base, part.r)
        tuples = itertools.product(gl, repeat=part.g)
    else:
        if samples < 1:
            raise ValueError("sampled mode needs samples >= 1")
        rng = Xoshiro256(seed)
        tuples = (
            tuple(_random_invertible(base, part.r, rng) for _ in range(part.g))
            for _ in range(samples)
        )
    for blocks in tuples:
        emb = [map_entries(b, top, tower.embed) for b in blocks]
        projected = gmat.mul(block_diag(emb))
        if not localmds.is_mds(projected):
            return (False, blocks) if witness else False
    return (True, None) if witness else True

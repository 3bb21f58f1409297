"""Brute-force MSRD checks, the test oracles for `mrlrc.sumrank`.

For a vector over GF(q^m) split into g blocks of length r, the sum-rank
weight is the sum over blocks of the GF(q)-rank of the m x r coordinate
expansion of the block.  r = 1 recovers the Hamming weight, g = 1 the
rank weight.  A code is MSRD when its minimum sum-rank distance attains
n - k + 1; equivalently, C diag(A_1, ..., A_g) is MDS for every tuple of
invertible blocks A_i over GF(q).

The minimum-distance enumerator only walks messages whose first nonzero
coordinate is 1: multiplying a codeword by a nonzero scalar multiplies
every block by a GF(q)-linear bijection of GF(q^m), so the sum-rank
weight is scalar-invariant and one codeword per projective class
suffices.  The enumeration cap is still expressed in terms of the full
codebook size (q^m)^k.

Each check takes an `LrsCode` or a bare generator `MatrixF`.
"""

from __future__ import annotations

import itertools

from mrlrc import localmds
from mrlrc.ff import FieldCtx
from mrlrc.matrix import MatrixF, block_diag, map_entries
from mrlrc.rng import Xoshiro256
from mrlrc.sumrank import SumRankPartition, _block_rank


class LengthMismatch(ValueError):
    """Vector length does not equal g * r."""


class TooLargeToEnumerate(ValueError):
    """Codebook or matrix-tuple enumeration exceeds the configured cap."""


DEFAULT_CODEWORD_CAP = 10 ** 6
DEFAULT_TUPLE_CAP = 10 ** 4


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


def min_sum_rank_distance(code, part: SumRankPartition,
                          cap: int = DEFAULT_CODEWORD_CAP) -> int:
    """Minimum sum-rank weight over nonzero codewords, by enumeration."""
    gmat = getattr(code, "generator", code)
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
    k = getattr(code, "generator", code).rows
    return min_sum_rank_distance(code, part, cap) == part.n - k + 1


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
    bool, or (bool, failing_tuple | None) when witness=True; the failing
    tuple holds the GF(q) blocks.
    """
    gmat = getattr(code, "generator", code)
    tower = part.tower
    base, top = tower.base, tower.top

    def embedded(block):
        return block, map_entries(block, top, tower.embed)

    if exhaustive:
        total = gl_order(base.order, part.r) ** part.g
        if total > cap:
            raise TooLargeToEnumerate(f"{total} tuples exceed cap {cap}")
        # each block recurs in |GL|^(g-1) tuples: embed it once
        gl = [embedded(b) for b in invertible_matrices(base, part.r)]
        tuples = itertools.product(gl, repeat=part.g)
    else:
        if samples < 1:
            raise ValueError("sampled mode needs samples >= 1")
        rng = Xoshiro256(seed)
        tuples = (
            tuple(embedded(_random_invertible(base, part.r, rng))
                  for _ in range(part.g))
            for _ in range(samples)
        )
    for pairs in tuples:
        projected = gmat.mul(block_diag([emb for _, emb in pairs]))
        if not localmds.is_mds(projected):
            blocks = tuple(b for b, _ in pairs)
            return (False, blocks) if witness else False
    return (True, None) if witness else True

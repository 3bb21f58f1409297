"""Local MDS ingredient codes: extended Reed-Solomon generators and their
banded forms [I_t B; 0 C] and [I_t B; 0 C; 0 D], whose rows the global
constructions place on each group.

The canonical generator of the (n, k) extended Reed-Solomon code is the
k x n matrix whose column at the field point x is (1, x, x^2, ..., x^(k-1));
points are all of GF(q) in canonical integer order, and when n = q + 1 the
extra column is (0, ..., 0, 1).  Row-reducing this generator never uses a
randomized search, so every run produces identical matrices.

A useful consequence of the Vandermonde row structure: the span of the
first d rows is the degree-< d Reed-Solomon subcode, which is itself MDS
(for n <= q, where no extension column is involved).  structured_mds keeps
this for every d >= t, so the top delta-1 rows of the first parity-check
construction's band span an MDS code on their own; constructions asserts
it when it builds that band.
"""

from __future__ import annotations

from .elim import reduce_rows
from .ff import FieldCtx
from .matrix import MatrixF


class LengthExceedsField(ValueError):
    """Requested RS length exceeds q + 1."""


def vandermonde_columns(ctx: FieldCtx, rows: int, cols: int) -> MatrixF:
    """rows x cols matrix whose every min(rows, cols) columns are independent.

    Columns are (1, x, ..., x^(rows-1)) at the first cols canonical field
    points, plus the column (0, ..., 0, 1) when cols = q + 1.  For
    rows <= cols this is the extended RS generator; for rows > cols it is
    the tall evaluation matrix used to build l-wise independent sets.
    """
    if cols > ctx.order + 1:
        raise LengthExceedsField(f"length {cols} exceeds q + 1 = {ctx.order + 1}")
    npoints = min(cols, ctx.order)
    data = [[0] * cols for _ in range(rows)]
    for j in range(npoints):
        acc = 1
        for i in range(rows):
            data[i][j] = acc
            acc = ctx.mul(acc, j)
    if cols == ctx.order + 1 and rows > 0:
        data[rows - 1][cols - 1] = 1
    return MatrixF(ctx, data, cols=cols)


def structured_mds(ctx: FieldCtx, n: int, k: int, t: int) -> MatrixF:
    """Generator of the canonical (n, k) extended RS code in banded form.

    The result is row-equivalent to vandermonde_columns(ctx, k, n) and has
    first t columns equal to [I_t; 0]; the rows below the first t are the
    C / D bands of the global constructions.

    The row reduction pivots only on the first t rows, so the first d >= t
    rows span the degree-< d RS subcode; a shorter prefix need not (the
    first t rows mix all t lowest degrees).
    """
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    # the leading minors of the Vandermonde block on the first t columns
    # are nonzero, so the pivots of the first t columns are the first t rows
    rows = [list(r) for r in vandermonde_columns(ctx, k, n).data]
    reduce_rows(rows, ctx, range(t), reduced=True)
    return MatrixF(ctx, rows, cols=n)


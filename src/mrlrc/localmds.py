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
(for n <= q, where no extension column is involved).  structured_mds
exploits this to satisfy the extra requirement that the top rows of the
banded generator span an MDS code on their own.
"""

from __future__ import annotations

from math import comb

from .elim import reduce_rows
from .ff import FieldCtx
from .matrix import MatrixF

# column subsets is_mds may walk: C(24, 12), the most any 24 columns have
IS_MDS_COLUMN_CAP = comb(24, 12)


class LengthExceedsField(ValueError):
    """Requested RS length exceeds q + 1."""


class APrimeNotMds(ValueError):
    """The prefix rows of a structured generator do not span an MDS code."""


class ColumnCapExceeded(ValueError):
    """is_mds refused beyond IS_MDS_COLUMN_CAP column subsets."""


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


def is_mds(g: MatrixF) -> bool:
    """True iff every k x k column submatrix of the k x n generator is invertible.

    MatrixF.first_dependent walks the C(n, k) choices as a prefix tree,
    so choices that share leading columns share their elimination; refuses
    to run when C(n, k) exceeds IS_MDS_COLUMN_CAP, since this is a
    desk-scale verification tool.
    """
    if g.rows > g.cols:
        raise ValueError("is_mds needs rows <= cols")
    subsets = comb(g.cols, g.rows)
    if subsets > IS_MDS_COLUMN_CAP:
        raise ColumnCapExceeded(
            f"C({g.cols}, {g.rows}) = {subsets} column subsets exceed "
            f"the cap {IS_MDS_COLUMN_CAP}")
    return g.first_dependent(g.rows) is None


def structured_mds(ctx: FieldCtx, n: int, k: int, t: int,
                   check_prefix: int | None = None) -> MatrixF:
    """Generator of the canonical (n, k) extended RS code in banded form.

    The result is row-equivalent to vandermonde_columns(ctx, k, n) and has
    first t columns equal to [I_t; 0]; the rows below the first t are the
    C / D bands of the global constructions.

    The row reduction pivots only on the first t rows, so the span of any
    prefix of rows is the corresponding lower-degree RS subcode.  When
    check_prefix is given, the first check_prefix rows are additionally
    verified to span an MDS code (raising APrimeNotMds otherwise).
    """
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    # the leading minors of the Vandermonde block on the first t columns
    # are nonzero, so the pivots of the first t columns are the first t rows
    rows = [list(r) for r in vandermonde_columns(ctx, k, n).data]
    reduce_rows(rows, ctx, range(t), reduced=True)
    a = MatrixF(ctx, rows, cols=n)
    if check_prefix is not None:
        prefix = MatrixF(ctx, a.data[:check_prefix], cols=n)
        if not is_mds(prefix):
            raise APrimeNotMds(
                f"top {check_prefix} rows do not span an MDS code")
    return a


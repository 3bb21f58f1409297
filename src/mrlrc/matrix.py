"""Dense exact linear algebra over a FieldCtx.

Matrices are immutable (tuple-of-tuples storage); every operation returns
a new matrix.  Rank, det, solve and kernel run through
elim.reduce_rows, which pivots on the first nonzero entry scanning
top-to-bottom, so echelon forms are identical across runs;
first_dependent runs elim.first_dependent, the one prefix-tree walk over
column subsets (elim.family_walk) taken over every subset, with the same
pivot rule.  Every row of a product is one call of the field's dots
kernel against the right factor's columns.

Index conventions: plain Python 0-based indexing for raw entry access,
but the column-set operations (restrict_columns, rank, first_dependent)
take or return 1-based index sets, matching the coordinate sets [n] used
by the code-topology layer and all file formats.

The "SRMAT v1" text format serializes a matrix as a header line
``srmat p=<p> e=<e> rows=<r> cols=<c>`` followed by one line per row of
whitespace-separated canonical integer encodings.  The modulus is implied
by the canonical choice in ff, so round-trips are bit-exact.
"""

from __future__ import annotations

from .elim import first_dependent, kernel_basis, reduce_rows
from .ff import FieldCtx, field_ctx


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class IndexOutOfRange(IndexError):
    """A 1-based column index is outside [1, cols]."""


class MixedFields(ValueError):
    """Operands live over different field contexts."""


class RankDeficient(ValueError):
    """Input matrix does not have full rank where required."""


class MatrixF:
    """A rows x cols matrix over a FieldCtx, immutable after construction."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldCtx, data, cols: int | None = None):
        rows = tuple(tuple(r) for r in data)
        ncols = len(rows[0]) if rows else (cols or 0)
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            for v in r:
                if not ctx.is_element(v):
                    raise ValueError(f"{v} is not an element of {ctx!r}")
        self.ctx = ctx
        self.rows = len(rows)
        self.cols = ncols
        self.data = rows

    # -- constructors

    @staticmethod
    def zeros(ctx: FieldCtx, rows: int, cols: int) -> "MatrixF":
        return MatrixF(ctx, [(0,) * cols] * rows if rows else [], cols=cols)

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> "MatrixF":
        return MatrixF(ctx, [[int(i == j) for j in range(n)] for i in range(n)])

    # -- basics

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixF)
            and self.ctx == other.ctx
            and self.data == other.data
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.cols, self.data))

    def __repr__(self) -> str:
        return f"MatrixF({self.ctx!r}, {self.rows}x{self.cols})"

    def transpose(self) -> "MatrixF":
        if self.rows == 0:
            return MatrixF(self.ctx, [()] * self.cols, cols=0)
        return MatrixF(self.ctx, list(zip(*self.data)), cols=self.rows)

    def mul(self, other: "MatrixF") -> "MatrixF":
        if self.ctx != other.ctx:
            raise MixedFields("matrix product over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} columns vs {other.rows} rows")
        ctx = self.ctx
        if self.cols == 0:
            return MatrixF.zeros(ctx, self.rows, other.cols)
        dots = ctx.dots
        ot = list(zip(*other.data))
        return MatrixF(ctx, [dots(r, ot) for r in self.data], cols=other.cols)

    def vstack(self, other: "MatrixF") -> "MatrixF":
        if self.ctx != other.ctx:
            raise MixedFields("stack over different fields")
        if self.cols != other.cols and self.rows and other.rows:
            raise DimensionMismatch("column count mismatch in vstack")
        return MatrixF(self.ctx, self.data + other.data)

    def with_entry(self, i: int, j: int, value: int) -> "MatrixF":
        """Copy with one entry replaced (0-based); used by mutation tests."""
        rows = [list(r) for r in self.data]
        rows[i][j] = value
        return MatrixF(self.ctx, rows)

    # -- elimination (all of it in elim.reduce_rows)

    def rank(self, cols_1based=None) -> int:
        """Rank, or that of the columns at the given 1-based indices."""
        if cols_1based is None:
            rows = [list(r) for r in self.data]
        else:
            idx = self._column_indices(cols_1based)
            rows = [[r[j] for j in idx] for r in self.data]
        pivots, _ = reduce_rows(rows, self.ctx)
        return len(pivots)

    def first_dependent(self, size: int) -> tuple | None:
        """The first size-subset F of the 1-based columns, in
        itertools.combinations order, with rank(F) < size, or None: the
        subset-independence sweep of construct's self-checks, walked
        as a prefix tree by elim.first_dependent (elim.family_walk over
        every subset)."""
        if size > self.cols:
            return None
        found = first_dependent(self.data, self.ctx, size)
        return None if found is None else tuple(j + 1 for j in found)

    def det(self) -> int:
        """Determinant by forward elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of non-square matrix")
        pivots, factor = reduce_rows([list(r) for r in self.data], self.ctx)
        return factor if len(pivots) == self.rows else 0

    def solve_unique(self, b) -> tuple[int, ...] | None:
        """The unique x with M x = b, or None when no unique solution exists.

        Requires rows >= cols.  b is a length-rows sequence.
        """
        b = tuple(b)
        if self.rows < self.cols:
            raise DimensionMismatch("solve_unique needs rows >= cols")
        if len(b) != self.rows:
            raise DimensionMismatch("right-hand side length mismatch")
        data = [list(r) + [bv] for r, bv in zip(self.data, b)]
        if not data:
            return () if self.cols == 0 else None
        pivots, _ = reduce_rows(data, self.ctx, range(self.cols), reduced=True)
        if len(pivots) < self.cols:
            return None
        # consistency: rows beyond the pivots must have zero RHS
        for i in range(len(pivots), self.rows):
            if data[i][self.cols]:
                return None
        return tuple(data[i][self.cols] for i in range(self.cols))

    def restrict_columns(self, cols_1based) -> "MatrixF":
        """Column submatrix, in the order given; indices are 1-based."""
        idx = self._column_indices(cols_1based)
        return MatrixF(self.ctx, [tuple(r[j] for j in idx) for r in self.data],
                       cols=len(idx))

    def _column_indices(self, cols_1based) -> list[int]:
        """0-based positions of 1-based column indices, checked in range."""
        idx = list(cols_1based)
        for j in idx:
            if not 1 <= j <= self.cols:
                raise IndexOutOfRange(f"column {j} outside [1, {self.cols}]")
        return [j - 1 for j in idx]

    def right_kernel(self) -> "MatrixF":
        """Basis of {x : Mx = 0} as columns; cols - rank of them."""
        basis = kernel_basis([list(r) for r in self.data], self.cols, self.ctx)
        if not basis:
            return MatrixF.zeros(self.ctx, self.cols, 0)
        return MatrixF(self.ctx, list(zip(*basis)))

    def is_zero(self) -> bool:
        return all(v == 0 for r in self.data for v in r)


def block_diag(blocks) -> MatrixF:
    """Block-diagonal assembly; all blocks must share one field context."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    ctx = blocks[0].ctx
    for b in blocks:
        if b.ctx != ctx:
            raise MixedFields("block_diag over different fields")
    total_r = sum(b.rows for b in blocks)
    total_c = sum(b.cols for b in blocks)
    out = [[0] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0:c0 + b.cols] = b.data[i]
        r0 += b.rows
        c0 += b.cols
    return MatrixF(ctx, out)


def map_entries(m: MatrixF, ctx: FieldCtx, fn) -> MatrixF:
    """New matrix over ctx with fn applied to every entry."""
    return MatrixF(ctx, [[fn(v) for v in r] for r in m.data], cols=m.cols)


# ---------------------------------------------------------------------------
# SRMAT v1 serialization


def srmat_dumps(m: MatrixF) -> str:
    head = f"srmat p={m.ctx.p} e={m.ctx.e} rows={m.rows} cols={m.cols}"
    lines = [head] + [" ".join(str(v) for v in r) for r in m.data]
    return "\n".join(lines) + "\n"


def srmat_loads(text: str) -> MatrixF:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("srmat "):
        raise ValueError("not an SRMAT v1 payload")
    fields = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
    for name in ("p", "e", "rows", "cols"):
        if name not in fields:
            raise ValueError(f"SRMAT header has no {name}= field")
    p, e = int(fields["p"]), int(fields["e"])
    rows, cols = int(fields["rows"]), int(fields["cols"])
    if len(lines) - 1 != rows:
        raise ValueError(f"SRMAT row count mismatch: the header says {rows} rows, "
                         f"the payload has {len(lines) - 1}")
    ctx = field_ctx(p, e)
    data = []
    for ln in lines[1:]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != cols:
            raise ValueError("SRMAT row width mismatch")
        data.append(row)
    if rows == 0:
        return MatrixF.zeros(ctx, 0, cols)
    return MatrixF(ctx, data)


def write_srmat(m: MatrixF, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(srmat_dumps(m))


def read_srmat(path) -> MatrixF:
    with open(path, "r", encoding="ascii") as fh:
        return srmat_loads(fh.read())

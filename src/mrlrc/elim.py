"""Gaussian elimination over any field object.

A field here is any object whose ``mul``, ``neg``, ``inv`` and ``axpy``
methods act on its elements, with zero and one encoded as the integers 0
and 1: a ff.FieldCtx, including GF(p) for the tower coordinate maps.
Every rank, determinant, solve, inverse and kernel in mrlrc runs through
reduce_rows.  This module imports nothing from mrlrc, so ff can use it
without importing matrix and the layering stays one-way.

Every row update, here and in verify's two walks, is one call of the
field's row-update kernel ``axpy(y, xs, ws)``, which returns a new list
[x + y w for x, w in zip(xs, ws)] (on table fields straight from the
exp/log lists, on generic fields with one reduction per entry), so rows
are replaced, never written into.  The field's other kernel, ``dot``,
forms matrix products and syndromes; elimination does not need it.

reduce_rows pivots on a given sequence of columns, in that order (all of
them by default).  They need not be a prefix: the parity sweep
eliminates H on a failing pattern's erased columns.  Its row updates
therefore run over whole rows, and replace each changed row with a new
list rather than writing into it, so a caller may reduce a shallow copy
of a matrix's row list and leave the matrix as it was.

first_dependent names the first dependent column subset of a matrix in
itertools.combinations order.  Both exhaustive MR routes in verify name
their witnesses with it, once their own walk has found that the code
fails: on the k rows of G restricted to a failing pattern's complement,
and on the projection of H left over after eliminating the pattern.

Pivots are the first nonzero entry at or below the current row, scanning
top to bottom, so every result is identical across runs.
"""

from __future__ import annotations


def reduce_rows(rows: list, field, cols=None,
                reduced: bool = False) -> tuple[list[int], int]:
    """Row-reduce a list of row lists in place, pivoting in the columns
    cols, in that order (default: every column, left to right).

    Forward mode clears below each pivot and leaves the pivot rows
    unscaled, which is all rank and det need.  Reduced mode scales each
    pivot to 1 and clears above it too, leaving the identity on the pivot
    columns.  Rows are replaced, never written into.

    Returns (pivots, factor): the 0-based pivot columns, and -1 to the
    number of row swaps times the product of the pivots as found.  For a
    square matrix of full rank the factor is its determinant.
    """
    mul, neg, inv, axpy = field.mul, field.neg, field.inv, field.axpy
    nrows = len(rows)
    if cols is None:
        cols = range(len(rows[0]) if rows else 0)
    pivots = []
    factor = 1
    r = 0
    for c in cols:
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            factor = neg(factor)
        piv = rows[r][c]
        f = 1
        if piv != 1:
            factor = mul(factor, piv)
            f = inv(piv)
            if reduced:
                rows[r] = [mul(f, v) for v in rows[r]]
                f = 1
        prow = rows[r]
        # forward mode folds 1/pivot into each row's multiplier instead
        for i in range(0 if reduced else r + 1, nrows):
            x = rows[i][c]
            if x and i != r:
                g = neg(x) if f == 1 else neg(mul(f, x))
                rows[i] = axpy(g, rows[i], prow)
        pivots.append(c)
        r += 1
    return pivots, factor


def first_dependent(rows: list, field, size: int) -> tuple | None:
    """The first size-subset of column positions, in itertools.combinations
    order, whose columns are linearly dependent, or None.  rows must have
    at least size columns; they are not modified.

    A depth-first walk over the columns keeps, for each independent prefix
    of j columns, the rows below its j pivots restricted to the columns
    after the last chosen one; every other row is never read again.
    Adding column c pivots on the first of those rows nonzero in c, as
    reduce_rows does, and the child clears c in the others.  When no row
    is nonzero in c, prefix + c and each of its completions is dependent,
    so the first failing subset is prefix + c + the next size - j - 1
    positions.  A leaf (j + 1 = size) needs only that nonzero test, and
    the last two levels (j + 2 = size) take one pass, _first_dependent_pair.
    """
    if size < 1:
        return None
    if size > len(rows):
        return tuple(range(size))
    mul, neg, inv, axpy = field.mul, field.neg, field.inv, field.axpy
    ncols = len(rows[0])

    def walk(node, start, j):
        # node[i][c - start] is the entry of row i in column c >= start
        stop = ncols - start - (size - j - 1)
        if j + 2 == size:
            pair = _first_dependent_pair(node, field)
            return None if pair is None else (start + pair[0], start + pair[1])
        if j + 1 == size:
            # the first column, in range, that is zero in every row
            mask = node[0] if len(node) == 1 else [any(col) for col in zip(*node)]
            try:
                return (start + mask.index(0, 0, stop),)
            except ValueError:
                return None
        for k in range(stop):
            for pr, prow in enumerate(node):
                if prow[k]:
                    break
            else:
                return tuple(range(start + k, start + k + size - j))
            tail = prow[k + 1:]
            f = neg(inv(prow[k]))
            child = []
            for i, row in enumerate(node):
                if i != pr:
                    x = row[k]
                    if x:
                        child.append(axpy(mul(f, x), row[k + 1:], tail))
                    else:
                        child.append(row[k + 1:])
            found = walk(child, start + k + 1, j + 1)
            if found is not None:
                return (start + k,) + found
        return None

    return walk(rows, 0, 0)


def _first_dependent_pair(node: list, field) -> tuple | None:
    """The first pair (a, b), a < b, of column positions of node, in
    combinations order, whose two columns are linearly dependent, or None.

    Two columns are dependent iff one is zero or both scale to the same
    column with a leading 1, so each nonzero column is keyed by that
    scaling: with two rows, which is every caller's pair node when it
    passes as many rows as size, (a, b) keys as b/a, or -1 when a = 0.
    One right-to-left scan finds for each nonzero column the nearest later
    column that is zero or has its key; the leftmost a that has one gives
    the pair, and a zero column a pairs with a + 1.
    """
    mul, inv = field.mul, field.inv
    if len(node) == 2:
        keys = [mul(b, inv(a)) if a else -1 if b else None for a, b in zip(*node)]
    else:
        keys = []  # None for a zero column
        for col in zip(*node):
            for lead in col:
                if lead:
                    break
            else:
                keys.append(None)
                continue
            if lead != 1:
                f = inv(lead)
                col = tuple([mul(f, x) for x in col])
            keys.append(col)
    n = len(keys)
    nearest: dict = {}  # key -> leftmost position seen so far
    zero = n            # leftmost zero column seen so far
    found = None
    for a in range(n - 1, -1, -1):
        key = keys[a]
        if key is None:
            if a + 1 < n:
                found = (a, a + 1)
            zero = a
            continue
        b = nearest.get(key, zero)
        if zero < b:
            b = zero
        if b < n:
            found = (a, b)
        nearest[key] = a
    return found


def kernel_basis(rows: list, ncols: int, field) -> list[list[int]]:
    """Basis of {x : A x = 0} for the matrix A given by rows, one list per
    vector, in increasing order of its free column; reduces rows in place."""
    pivots, _ = reduce_rows(rows, field, reduced=True)
    pivot_set = set(pivots)
    neg = field.neg
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = neg(rows[i][fc])
        basis.append(vec)
    return basis


def inverse(rows, field) -> list[list[int]] | None:
    """Rows of the inverse of the square matrix given by rows, or None
    when it is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == k) for k in range(n)] for i, r in enumerate(rows)]
    pivots, _ = reduce_rows(aug, field, range(n), reduced=True)
    if len(pivots) < n:
        return None
    return [row[n:] for row in aug]

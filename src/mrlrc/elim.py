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
are replaced, never written into.  The field's other kernel,
``dots(xs, cols)``, forms a row of a matrix product, a codeword and a
syndrome; elimination does not need it.

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
Its walk has the shape of theirs: one column loop per node, and a
two-row node one column short of a leaf settles both of its last
columns from one key per column.

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
    after the last chosen one; every other row is never read again.  Each
    node runs one loop over its columns c.  When no row is nonzero in c,
    prefix + c and each of its completions is dependent, so the first
    failing subset is prefix + c + the next size - j - 1 positions; that
    is all the one-column level (j + 1 = size) tests.  Otherwise adding c
    pivots on the first of those rows nonzero in c, as reduce_rows does,
    and the child clears c in the others.

    A node with one column left to add after c and exactly two rows (every
    such node when rows has size rows) settles both, as verify's walks do:
    prefix + c + c2 is dependent iff c's residual 2-vector is zero, or
    c2's is, or the two are proportional.  It keys each column once, on
    entry, by b/a for its residual (a, b), -1 when a = 0, and -2 for
    (0, 0), which matches every column; the pair is c's lowest later
    column of its key or zero.  With more rows it eliminates on down.
    """
    if size < 1:
        return None
    if size > len(rows):
        return tuple(range(size))
    mul, neg, inv, axpy = field.mul, field.neg, field.inv, field.axpy
    ncols = len(rows[0])

    def walk(node, start, j):
        # node[i][c - start] is the entry of row i in column c >= start
        need = size - j - 1  # columns to add after c
        keys = None
        if need == 1 and len(node) == 2:
            keys = [mul(b, inv(a)) if a else -1 if b else -2 for a, b in zip(*node)]
            keyed = dict.fromkeys(keys, 0)
            if len(keyed) == len(keys) and -2 not in keyed:
                return None  # no two columns match
            # keyed[key]: the positions of that key and the zero columns,
            # every position for key -2
            for x, key in enumerate(keys):
                keyed[key] |= 1 << x
            zero = keyed.get(-2, 0)
            for key in keyed:
                keyed[key] |= zero
            keyed[-2] = -1
        for c in range(start, ncols - need):
            x = c - start
            if keys is not None:
                later = keyed[keys[x]] >> x + 1
                if later:
                    return (c, c + (later & -later).bit_length())
                continue
            for pr, prow in enumerate(node):
                if prow[x]:
                    break
            else:
                return tuple(range(c, c + need + 1))
            if not need:
                continue
            tail = prow[x + 1:]
            f = neg(inv(prow[x]))
            child = []
            for i, row in enumerate(node):
                if i != pr:
                    y = row[x]
                    child.append(axpy(mul(f, y), row[x + 1:], tail) if y
                                 else row[x + 1:])
            found = walk(child, c + 1, j + 1)
            if found is not None:
                return (c,) + found
        return None

    return walk(rows, 0, 0)


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

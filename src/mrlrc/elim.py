"""Gaussian elimination over any field object.

A field here is any object whose ``mul``, ``neg``, ``inv`` and ``axpy``
methods act on its elements, with zero and one encoded as the integers 0
and 1: a ff.FieldCtx, including GF(p) for the tower coordinate maps.
first_dependent also reads the field's ``child_keys`` (below).  Every
rank, determinant, solve, inverse and kernel in mrlrc runs through
reduce_rows.  This module imports nothing from mrlrc, so ff can use it
without importing matrix and the layering stays one-way.

Every row update is one call of the field's row-update kernel
``axpy(y, xs, ws)``, which returns a new list
[x + y w for x, w in zip(xs, ws)] (on table fields straight from the
exp/log lists, on generic fields with one reduction per entry), so rows
are replaced, never written into.  The field's kernel
``dots(xs, cols)`` forms a row of a matrix product, a codeword and a
syndrome; elimination does not need it.

reduce_rows pivots on a given sequence of columns, in that order (all of
them by default).  They need not be a prefix: the parity sweep
eliminates H on a failing pattern's erased columns.  Its row updates
therefore run over whole rows, and replace each changed row with a new
list rather than writing into it, so a caller may reduce a shallow copy
of a matrix's row list and leave the matrix as it was.

Two depth-first walks over column subsets share these node helpers:
first_dependent here and verify's family walk, which both exhaustive MR
routes run, each with its own family rule.  A walk keeps, for each
independent prefix, the rows below its pivots cut to the columns after
its last pick; node_step adds one column to such a node (None when the
column is zero there).  The last two picks are settled by keys, never by
building the nodes they make.  Each walk keeps its own column loop.

  * Two rows: a column's residual is the 2-vector (a, b) it has there,
    and a key names its class, equal for two nonzero residuals iff they
    are proportional (-2 for zero).  key_masks turns the keys into one
    bitmask per column, so that each pair of last columns costs one AND;
    its docstring argues the pair rule.  pair_keys keys a two-row node
    that was built, by b/a.
  * Three rows: the field's child_keys(rows, xs) gives, for each pick x,
    the keys of the two-row child node_step(rows, x) would build, without
    building it.  The rule it computes is this.  Scaling a column by a
    unit changes the rank of no column set, and scales the column's
    residual in every child by the same unit, which keeps its key; so
    every column with a nonzero entry e in x's pivot row r may be scaled
    to 1 there.  Write (y, z) for a column's entries in the other two
    rows, in order, after that scaling.  Pivoting on r subtracts y_x and
    z_x times row r from those rows, so a scaled column keeps the
    residual (y - y_x, z - z_x): its key is the slope
    (z - z_x)/(y - y_x), -1 when only y = y_x, 0 when only z = z_x, and
    -2 when both.  A column that is zero in r is untouched by the pivot:
    its residual is its own (y, z), and its key z/y at every x that
    pivots on r.  The scaling is done once per node and pivot row, and
    each x costs one pass over the later columns.

first_dependent names the first dependent column subset of a matrix in
itertools.combinations order.  Both exhaustive MR routes in verify name
their witnesses with it, once the family walk has found that the code
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


def node_step(rows: list, x: int, mul, neg, inv, axpy) -> list | None:
    """The child of a prefix-tree node that adds its column x, or None
    when no row is nonzero in x.

    rows holds a node's rows, cut to the columns from some start on, and x
    is a position in them.  Adding x pivots on the first row nonzero in x,
    as reduce_rows does; every other row is cleared in x by one axpy with
    the pivot row, and the child is those rows, cut to the columns after
    x.  rows is not modified.  The field ops are the caller's, bound once
    per walk rather than looked up per node.
    """
    for pr, prow in enumerate(rows):
        if prow[x]:
            break
    else:
        return None
    tail = prow[x + 1:]
    f = neg(inv(prow[x]))
    child = []
    for i, row in enumerate(rows):
        if i != pr:
            y = row[x]
            child.append(axpy(mul(f, y), row[x + 1:], tail) if y else row[x + 1:])
    return child


def pair_keys(rows: list, mul, inv) -> list:
    """The keys of a two-row node's columns: b/a for a residual (a, b)
    with a != 0, -1 when a = 0 and b != 0, and -2 for (0, 0) (see
    key_masks)."""
    return [mul(b, inv(a)) if a else -1 if b else -2 for a, b in zip(*rows)]


def key_masks(keys: list, start: int) -> list | None:
    """For each column c of a two-row prefix-tree node, the columns that
    make a singular pair with it, or None when no pair is singular.

    keys[c - start] keys column c >= start of the node.  Each column's
    residual is the 2-vector (a, b) left of it once the node's independent
    prefix P has its pivots cleared from it, so P + c1 + c2 (c1 < c2) is
    singular iff c1's residual is zero, or c2's is, or the two are
    proportional.  A key names a residual's class: two nonzero residuals
    share a key iff they are proportional, and -2 is the key of the zero
    residual and of nothing else.  masks[c - start] is the bitmask (bit c2
    for column c2) of the columns with c's key or the zero key, every
    column when c's key is zero: P + c1 + c2 is singular iff bit c2 of
    masks[c1 - start] is set.  Every walk that settles a pair of last
    columns reads this one rule, whoever formed the keys (pair_keys, or a
    field's child_keys).
    """
    keyed = dict.fromkeys(keys, 0)
    if len(keyed) == len(keys) and -2 not in keyed:
        return None
    for c, key in enumerate(keys, start):
        keyed[key] |= 1 << c
    zero = keyed.get(-2, 0)
    for key in keyed:
        keyed[key] |= zero
    keyed[-2] = -1
    return [keyed[key] for key in keys]


def pair_masks(rows: list, start: int, mul, inv) -> list | None:
    """key_masks of a two-row node whose rows hold its columns c >= start,
    keyed by pair_keys."""
    return key_masks(pair_keys(rows, mul, inv), start)


def first_pair(masks: list | None, start: int, stop: int) -> tuple | None:
    """The first singular pair (c1, c2), start <= c1 < c2 < stop, of a
    two-row node whose columns c >= start have key_masks masks, or None."""
    if masks is not None:
        for c in range(start, stop - 1):
            later = masks[c - start] >> c + 1
            if later:
                return (c, c + (later & -later).bit_length())
    return None


def first_dependent(rows: list, field, size: int) -> tuple | None:
    """The first size-subset of column positions, in itertools.combinations
    order, whose columns are linearly dependent, or None.  rows must have
    at least size columns; they are not modified.

    A depth-first walk over the columns keeps, for each independent prefix
    of j columns, the rows below its j pivots restricted to the columns
    after the last chosen one (node_step); every other row is never read
    again.  Each node runs one loop over its columns c.  When no row is
    nonzero in c, prefix + c and each of its completions is dependent, so
    the first failing subset is prefix + c + the next size - j - 1
    positions; that is all the one-column level (j + 1 = size) tests.

    A node with two columns left to add, c and one after it, and exactly
    three rows (every such node when rows has size rows) settles all its
    pairs in one keyed pass: field.child_keys keys, for each c, the
    columns of the two-row child that adding c makes, without building
    it, and the child's first singular pair is the first column with a
    later column in its key_masks mask (first_pair).  A two-row root
    settles its pairs from pair_masks the same way.  With more rows a node
    eliminates on down.
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
        if need == 1 and len(node) == 2:
            return first_pair(pair_masks(node, start, mul, inv), start, ncols)
        if need == 2 and len(node) == 3:
            for c, keys in zip(range(start, ncols - 2),
                               field.child_keys(node, range(ncols - 2 - start))):
                if keys is None:
                    return (c, c + 1, c + 2)
                found = first_pair(key_masks(keys, c + 1), c + 1, ncols)
                if found is not None:
                    return (c,) + found
            return None
        for c in range(start, ncols - need):
            child = node_step(node, c - start, mul, neg, inv, axpy)
            if child is None:
                return tuple(range(c, c + need + 1))
            if need:
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

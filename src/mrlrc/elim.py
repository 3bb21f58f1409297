"""Gaussian elimination over any field object.

A field here is any object whose ``mul``, ``neg``, ``inv`` and ``axpy``
methods act on its elements, with zero and one encoded as the integers 0
and 1: a ff.FieldCtx, including GF(p) for the tower coordinate maps.
family_walk also reads the field's ``child_keys`` (below).  Every
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

One depth-first walk over column subsets, family_walk, holds the only
column loop over subsets in mrlrc.  Both exhaustive MR routes in verify
run it over their own family (a per-group rule, span), and
first_dependent runs it over every subset.  It keeps, for each
independent prefix, the rows below its pivots cut to the columns after
its last pick; node_step adds one column to such a node (None when the
column is zero there).  When the root has exactly as many rows as the
subsets have columns, the last two picks are settled by keys, never by
building the nodes they make.  The walk stops at its first dependent
record, a prefix all of whose completions are dependent, and the first
record is a prefix of the first dependent member in
itertools.combinations order (family_walk argues this).

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

dependent_sets ranks a given list of column sets on one matrix: it sorts
them and keeps one path of node_step children along the current set, so
a prefix the sets share is eliminated once.  It is not a family walk: it
has no column loop over subsets and follows only the sets it is given.
Sampled verify and the simulator's global path rank a block of drawn
erasure patterns on H through it.

first_dependent names the first dependent column subset of a matrix in
itertools.combinations order: the first record completed by the next
positions.  Both exhaustive MR routes in verify name their witnesses the
same way (subset_walk, whose tables serve every pattern of a sweep),
once their family walk has found that the code fails: on the k rows of G
restricted to a failing pattern's complement, and on the projection of H
left over after eliminating the pattern.

Pivots are the first nonzero entry at or below the current row, scanning
top to bottom, so every result is identical across runs.
"""

from __future__ import annotations

from functools import cache


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


def dependent_sets(rows: list, field, sets) -> set:
    """The sets among sets on whose columns rows are linearly dependent.

    Each set is a tuple of increasing column positions; the empty set is
    independent, and a set repeated is ranked once.  This walk follows
    only the sets it is given, in sorted order, and keeps the path of
    node_step children along the current set, one node per independent
    prefix.  Each next set pops back to the prefix it shares with that
    path and steps its remaining columns, so a prefix shared by many sets
    is eliminated once, and each step works on rows cut after the last
    pick.  A set is dependent exactly when some step finds no row nonzero
    in its column, which includes running out of rows.  A set's last
    column is only tested, not stepped, unless the next set extends the
    set.  rows is not modified.
    """
    mul, neg, inv, axpy = field.mul, field.neg, field.inv, field.axpy
    order = sorted(set(sets))
    dependent = set()
    nodes = [rows]  # nodes[j]: the node of the independent prefix picks[:j]
    picks = []
    for i, s in enumerate(order):
        j = 0
        for a, b in zip(s, picks):
            if a != b:
                break
            j += 1
        del nodes[j + 1:], picks[j:]
        # how many of s's columns to step: all when the next set extends s
        steps = len(s) - (i + 1 == len(order) or order[i + 1][:len(s)] != s)
        node, top = nodes[-1], picks[-1] + 1 if picks else 0
        for x in s[j:]:
            if len(picks) == steps:
                for row in node:
                    if row[x - top]:
                        break
                else:
                    dependent.add(s)
                break
            node = node_step(node, x - top, mul, neg, inv, axpy)
            if node is None:
                dependent.add(s)
                break
            nodes.append(node)
            picks.append(x)
            top = x + 1
    return dependent


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


def family_walk(ncols: int, size: int, width: int, span):
    """The depth-first walk over the size-subsets U of ncols columns that
    lie in a family, as a function walk(rows, field) of a matrix with
    those columns.  It returns (leaves, None) when every U has rank size,
    leaves being how many there are, and otherwise (None, record), where
    record is the first dependent record it meets (below).  The tables
    depend on the family alone, so one walk serves every matrix of its
    shape.

    The columns fall into groups of width columns, and U is in the family
    iff its part in every group is a member of one per-group family, the
    same in every group.  span is that family's one rule: for a group's
    picks sel (a local bitmask), span(sel) is (lo, hi), the fewest and the
    most further columns above sel's top bit that make the group's part a
    member (every count in between makes one), or None when no member
    fits.  So sel is a member iff span(sel)[0] == 0, a group may hold no
    pick iff span(0)[0] == 0, and span(0) bounds what each group after
    the last pick adds.  The walk reads nothing else of the family.
    first_dependent's family is every subset: width-1 groups with
    span(sel) = (0, 1 - sel).

    The walk visits the columns in increasing order and keeps, for each
    independent prefix of j columns, the rows below its j pivots
    restricted to the columns after its last pick (node_step).  A node's
    picks sel are those of its last pick's group, held as columns, so sel
    names the group and the node's first column, sel.bit_length(); with
    need, the columns still to add after the next pick, it fixes the
    node's children.  A column c is a child iff need fits: need lies in
    the span of c's picks s = sel & low[c] | 1 << c plus span(0) for each
    later group (admit).  The next pick may leave a group only when its
    picks are a member, and may pass over a group only when a group may
    hold no pick, which ends a node's columns.

    Records.  A record is prefix + c when no row is nonzero in c, and
    prefix + c1 + c2 for a dependent pair at a two-row node.  A record is
    dependent, so all its completions are.  Admission is exact, so every
    admitted prefix has a completion in the family, and the walk meets
    the admitted prefixes in itertools.combinations order and stops at
    its first record R.  Let M be a member before R's first completion in
    that order.  M cannot extend R, so it departs from that completion,
    before R ends, at a smaller column: in a subtree the walk finished
    with no record, so M is independent.  The first dependent member is
    therefore R completed by its first completion, and R is its prefix.

    The last two picks are never built when the root has exactly size
    rows; otherwise, as in pc2's l-wise check, whose matrices have more
    rows than picks, every node runs node_step.  A node with one column
    left to add after c1 then holds two rows.  There ends(s) holds the
    columns c2 that end a member: those of group i after c1 with s plus c2
    a member, when every later group may hold no pick, and once s is a
    member, the columns b of a later group with {b} a member, when every
    other group after i may hold no pick.  ends is empty when c1 has no
    completion, so it is also c1's admission; a dependent pair is any bit
    shared by ends(s) and c1's key_masks mask, and the node has as many
    leaves as its ends have bits.  Such a node is never built unless it is
    the root: its three-row parent settles all its children at once from
    the keys the field's child_keys gives each pick.

    The children of a node depend on (sel, need) alone, and a two-row
    node's columns, ends and leaf count on its sel alone, so the walk
    tables them as it first meets them: kids(sel, need) lists the
    admitted (c, s); threes(sel) the same for need = 2 with each child's
    closes(s), and the positions child_keys reads; closes(sel) lists the
    two-row node's (c1, ends) and its leaf count.  A two-row node whose
    keys are all distinct and none zero (key_masks gives None) adds its
    count with no column loop.
    """
    groups = ncols // width
    # low[c]: the columns of c's group before c (bit c for column c)
    low = [(1 << c) - (1 << c - c % width) for c in range(ncols)]
    span = cache(span)

    def member(sel):
        got = span(sel)
        return got is not None and not got[0]

    lo0, hi0 = span(0)
    skip = not lo0  # a group may hold no pick
    # after[i]: the columns b of the groups after group i that may end the
    # set alone ({b} a member, every other group after i empty)
    singles = sum(1 << b for b in range(width) if member(1 << b))
    after = [sum(singles << i2 * width for i2 in range(i + 1, groups)
                 if skip or i2 == i + 1 == groups - 1) for i in range(groups)]

    @cache
    def admit(s):
        # bit d set iff d more columns after s's top bit can finish the set
        i = (s.bit_length() - 1) // width
        got = span(s >> i * width)
        rest = groups - 1 - i
        return 0 if got is None else (2 << got[1] + hi0 * rest) - (1 << got[0] + lo0 * rest)

    @cache
    def ends(s):
        # the columns after s's top bit that may end the set
        i = (s.bit_length() - 1) // width
        sel = s >> i * width
        got = after[i] if member(sel) else 0
        if skip or i == groups - 1:
            for b in range(sel.bit_length(), width):
                if member(sel | 1 << b):
                    got |= 1 << i * width + b
        return got

    def stop(sel):
        # the column before which a node with picks sel makes its next pick
        if not sel:
            return ncols if skip else width
        i = (sel.bit_length() - 1) // width
        return ((i + 1) * width if not member(sel >> i * width)
                else ncols if skip else (i + 2) * width)

    @cache
    def closes(sel):
        # the two-row node with picks sel: its columns with their ends,
        # and its leaf count
        pairs = [(c, e) for c in range(sel.bit_length(), min(stop(sel), ncols - 1))
                 if (e := ends(sel & low[c] | 1 << c))]
        return pairs, sum([e.bit_count() for _, e in pairs])

    @cache
    def kids(sel, need):
        # the children (c, s) of a node with picks sel and need
        return [(c, s) for c in range(sel.bit_length(), min(stop(sel), ncols - need))
                if admit(s := sel & low[c] | 1 << c) >> need & 1]

    @cache
    def threes(sel):
        # the children of a three-row node with their two-row closes, and
        # the positions child_keys reads
        start = sel.bit_length()
        got = kids(sel, 2)
        return [(c, *closes(s)) for c, s in got], [c - start for c, _ in got]

    def dependent_pair(pairs, masks, start):
        # the first dependent pair (c1, c2) of a two-row node, or None
        for c1, e in pairs:
            if e & masks[c1 - start]:
                e &= masks[c1 - start]
                return c1, (e & -e).bit_length() - 1
        return None

    def walk(rows, field):
        if not size:
            return int(skip), None
        mul, neg, inv, axpy = field.mul, field.neg, field.inv, field.axpy
        child_keys = field.child_keys
        keyed = len(rows) == size
        leaves = 0

        def node(rows, sel, need):
            # rows[r][c - start] is the entry of row r in column c >= start
            # = sel.bit_length(); need columns are still to add after the
            # next pick.  The rest of the first record below it, or None
            nonlocal leaves
            start = sel.bit_length()
            if keyed and need == 1:  # a two-row root
                pairs, count = closes(sel)
                masks = pair_masks(rows, start, mul, inv)
                if masks is not None and (found := dependent_pair(pairs, masks, start)):
                    return found
                leaves += count
                return None
            if keyed and need == 2:
                cols, xs = threes(sel)
                for (c, pairs, count), keys in zip(cols, child_keys(rows, xs)):
                    if keys is None:
                        return (c,)
                    masks = key_masks(keys, c + 1)
                    if masks is not None and (found := dependent_pair(pairs, masks, c + 1)):
                        return (c, *found)
                    leaves += count
                return None
            for c, s in kids(sel, need):
                child = node_step(rows, c - start, mul, neg, inv, axpy)
                if child is None:
                    return (c,)
                if not need:
                    leaves += 1
                else:
                    found = node(child, s, need - 1)
                    if found is not None:
                        return (c, *found)
            return None

        record = node([list(row) for row in rows], 0, size - 1)
        return (leaves if record is None else None), record

    return walk


def subset_walk(ncols: int, size: int):
    """first_dependent on matrices of ncols columns, as one function
    first(rows, field) whose walk tables are built once for all of them."""
    walk = family_walk(ncols, size, 1, lambda sel: (0, 1 - sel))

    def first(rows, field):
        if size > len(rows):
            return tuple(range(size))
        record = walk(rows, field)[1]
        if record is None:
            return None
        top = record[-1] + 1
        return record + tuple(range(top, top + size - len(record)))

    return first


def first_dependent(rows: list, field, size: int) -> tuple | None:
    """The first size-subset of column positions, in itertools.combinations
    order, whose columns are linearly dependent, or None.  rows must have
    at least size columns; they are not modified.

    This is family_walk over every subset: its first record is a prefix
    of the first dependent subset, completed by the next positions.
    """
    return subset_walk(len(rows[0]) if rows else 0, size)(rows, field)


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

"""Exact dense linear algebra over field contexts."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlrc.elim import inverse, key_masks, node_step, pair_masks, reduce_rows
from mrlrc.ff import field_ctx
from mrlrc.matrix import (
    DimensionMismatch, IndexOutOfRange, MatrixF, MixedFields,
    block_diag, srmat_dumps, srmat_loads,
)

F2 = field_ctx(2)
F3 = field_ctx(3)
F4 = field_ctx(2, 2)
F5 = field_ctx(5)
F9 = field_ctx(3, 2)
F25 = field_ctx(5, 2)
# above the log-table limit: the generic mul and inv key the two-row nodes
F3_14 = field_ctx(3, 14)
F2_20 = field_ctx(2, 20)


def random_matrix(ctx, rows, cols, rnd):
    return MatrixF(ctx, [[rnd.randrange(ctx.order) for _ in range(cols)]
                         for _ in range(rows)])


def test_rank_examples():
    assert MatrixF.identity(F3, 3).rank() == 3
    assert MatrixF.zeros(F3, 2, 4).rank() == 0
    assert MatrixF(F3, [[1, 2], [2, 1]]).rank() == 1  # row2 = 2*row1 in GF(3)


def test_rank_transpose_invariance():
    rnd = random.Random(99)
    for ctx in (F3, F4, F9):
        for _ in range(350):
            m = random_matrix(ctx, rnd.randrange(1, 9), rnd.randrange(1, 9), rnd)
            assert m.rank() == m.transpose().rank()


def test_solve_unique_examples():
    i3 = MatrixF.identity(F3, 3)
    assert i3.solve_unique((1, 2, 0)) == (1, 2, 0)
    assert MatrixF.zeros(F3, 2, 1).solve_unique((0, 0)) is None  # kernel nontrivial
    assert MatrixF(F3, [[1], [2]]).solve_unique((2, 1)) == (2,)
    # inconsistent overdetermined system has no unique solution
    assert MatrixF(F3, [[1], [1]]).solve_unique((1, 2)) is None
    with pytest.raises(DimensionMismatch):
        MatrixF(F3, [[1, 2]]).solve_unique((1,))


def test_restrict_columns():
    m = MatrixF(F3, [[1, 2, 0], [0, 1, 2]])
    assert m.restrict_columns([1, 2, 3]) == m
    empty = m.restrict_columns([])
    assert (empty.rows, empty.cols) == (2, 0)
    sub = m.restrict_columns([1, 3])
    assert sub.data == ((1, 0), (0, 2))
    with pytest.raises(IndexOutOfRange):
        m.restrict_columns([0])
    with pytest.raises(IndexOutOfRange):
        m.restrict_columns([4])


def invert(m):
    rows = inverse(m.data, m.ctx)
    return None if rows is None else MatrixF(m.ctx, rows)


def test_invert_examples():
    assert invert(MatrixF.identity(F3, 2)) == MatrixF.identity(F3, 2)
    assert invert(MatrixF(F3, [[2]])) == MatrixF(F3, [[2]])
    m = MatrixF(F2, [[1, 1], [0, 1]])
    assert invert(m) == m
    assert m.mul(m) == MatrixF.identity(F2, 2)
    assert invert(MatrixF(F3, [[1, 2], [2, 1]])) is None


def test_invert_involution_and_kernel():
    rnd = random.Random(5)
    for _ in range(200):
        n = rnd.randrange(1, 6)
        m = random_matrix(F9, n, n, rnd)
        mi = invert(m)
        if mi is None:
            assert m.rank() < n
            continue
        assert invert(mi) == m
        assert m.mul(mi) == MatrixF.identity(F9, n)


def test_right_kernel():
    assert MatrixF.identity(F3, 3).right_kernel().cols == 0
    z = MatrixF.zeros(F3, 1, 2)
    assert z.right_kernel().cols == 2
    k = MatrixF(F3, [[1, 2]]).right_kernel()
    assert k.cols == 1
    assert k.column(0) in {(1, 1), (2, 2)}
    rnd = random.Random(17)
    for _ in range(150):
        m = random_matrix(F4, rnd.randrange(1, 6), rnd.randrange(1, 7), rnd)
        ker = m.right_kernel()
        assert ker.cols == m.cols - m.rank()
        if ker.cols:
            assert m.mul(ker).is_zero()


def test_block_diag():
    b = MatrixF(F3, [[2]])
    assert block_diag([b]) == b
    two = block_diag([MatrixF(F3, [[1]]), MatrixF(F3, [[2]])])
    assert two.data == ((1, 0), (0, 2))
    big = block_diag([MatrixF.zeros(F3, 2, 3), MatrixF(F3, [[1]])])
    assert (big.rows, big.cols) == (3, 4)
    with pytest.raises(MixedFields):
        block_diag([MatrixF(F3, [[1]]), MatrixF(F2, [[1]])])


def test_block_diag_rank_is_sum():
    rnd = random.Random(3)
    for _ in range(100):
        blocks = [random_matrix(F3, rnd.randrange(1, 4), rnd.randrange(1, 4), rnd)
                  for _ in range(rnd.randrange(1, 4))]
        assert block_diag(blocks).rank() == sum(b.rank() for b in blocks)


def test_restriction_rank_monotone():
    rnd = random.Random(23)
    for _ in range(100):
        m = random_matrix(F3, 4, 6, rnd)
        cols = sorted(rnd.sample(range(1, 7), rnd.randrange(0, 7)))
        assert m.restrict_columns(cols).rank() <= m.rank()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rank_on_columns_matches_restriction(data):
    ctx = data.draw(st.sampled_from([F2, F3, F4, F9]))
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 6))
    entry = st.integers(0, ctx.order - 1)
    row = st.lists(entry, min_size=cols, max_size=cols)
    m = MatrixF(ctx, data.draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)
    # any order, repeats allowed, as restrict_columns takes them
    sel = data.draw(st.lists(st.integers(1, cols), max_size=cols + 2))
    assert m.rank(sel) == m.restrict_columns(sel).rank()
    for bad in (0, cols + 1):
        with pytest.raises(IndexOutOfRange):
            m.rank([bad])


def first_dependent_on(m, pool, size):
    """first_dependent over the pool's columns, labelled as in m."""
    found = m.restrict_columns(pool).first_dependent(size)
    return None if found is None else tuple(pool[j - 1] for j in found)


def first_dependent_oracle(m, pool, size, base=()):
    """The per-minor sweep first_dependent replaces: a new matrix per
    column set, tested by det when it is square and by rank otherwise."""
    for extra in itertools.combinations(pool, size):
        sub = m.restrict_columns(sorted(base + extra))
        if sub.rows == sub.cols:
            if sub.det() == 0:
                return extra
        elif sub.rank() < sub.cols:
            return extra
    return None


def test_first_dependent_matches_per_minor_oracle():
    rnd = random.Random(7)
    for ctx in (F2, F3, F4):
        for _ in range(120):
            rows, cols = rnd.randrange(1, 5), rnd.randrange(1, 8)
            m = random_matrix(ctx, rows, cols, rnd)
            nbase = rnd.randrange(0, min(rows, cols) + 1)
            base = tuple(sorted(rnd.sample(range(1, cols + 1), nbase)))
            pool = [c for c in range(1, cols + 1) if c not in base]
            for size in range(0, min(rows - len(base), len(pool)) + 1):
                assert (first_dependent_on(m, pool, size)
                        == first_dependent_oracle(m, pool, size))
                # a base set ranked along with each subset, as the
                # parity-route oracle of test_verify ranks it
                found = next((extra for extra in itertools.combinations(pool, size)
                              if m.rank(sorted(base + extra)) < nbase + size), None)
                assert found == first_dependent_oracle(m, pool, size, base)
            # square minors, as in the generator-side sweep
            if rows <= cols:
                assert (m.first_dependent(rows)
                        == first_dependent_oracle(m, range(1, cols + 1), rows))
    ident = MatrixF.identity(F3, 3)
    assert ident.first_dependent(2) is None
    m = MatrixF(F3, [[1, 2, 0], [0, 0, 1]])
    assert m.first_dependent(2) == (1, 2)
    assert m.first_dependent(4) is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_dependent_prefix_tree_matches_oracle(data):
    # the prefix-tree walk against the per-minor sweep, with a zero column,
    # a repeated column, a combination of two earlier pool columns and a
    # multiple c v of one, c not 0 or 1, planted at shuffled pool positions
    ctx = data.draw(st.sampled_from([F2, F4, F3, F9, F5, F25, F3_14, F2_20]))
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 9))
    entry = st.integers(0, ctx.order - 1)
    columns = [data.draw(st.lists(entry, min_size=rows, max_size=rows))
               for _ in range(cols)]
    pool = data.draw(st.permutations(range(1, cols + 1)))
    pool = pool[:data.draw(st.integers(0, cols))]
    for kind in data.draw(st.lists(st.sampled_from([0, 1, 2, 3]), max_size=3)):
        # kind 0 zeroes a column, 1 repeats an earlier pool column, 2
        # combines two of them and 3 scales one by c not in {0, 1}
        used = 1 if kind == 3 else kind
        if len(pool) <= used or (kind == 3 and ctx.order == 2):
            continue
        pos = data.draw(st.integers(used, len(pool) - 1))
        earlier = data.draw(st.permutations(pool[:pos]))[:used]
        if kind == 3:
            coef = [data.draw(st.integers(2, ctx.order - 1))]
        else:
            coef = [1] if kind == 1 else [data.draw(entry) for _ in earlier]
        columns[pool[pos] - 1] = [
            functools.reduce(ctx.add, (ctx.mul(x, columns[c - 1][i])
                                       for x, c in zip(coef, earlier)), 0)
            for i in range(rows)]
    m = MatrixF(ctx, list(zip(*columns)))
    for size in range(rows + 2):
        found = first_dependent_on(m, pool, size)
        assert found == first_dependent_oracle(m, pool, size)
        if size == 0 or size > len(pool):
            assert found is None
        elif size > rows:
            assert found == tuple(pool[:size])


def test_first_dependent_pair_finds_scalar_multiples():
    # a two-row node keys each column by b/a for its residual (a, b): a
    # planted c v, c not in {0, 1}, must pair with v, also when an earlier
    # column or a zero column comes first; with three rows the walk
    # eliminates on down instead
    rnd = random.Random(11)
    for ctx in (F4, F3, F9, F5, F25, F3_14, F2_20):
        for _ in range(60):
            rows, cols = rnd.randrange(2, 4), rnd.randrange(3, 9)
            columns = [[rnd.randrange(ctx.order) for _ in range(rows)]
                       for _ in range(cols)]
            a, b = sorted(rnd.sample(range(cols), 2))
            c = rnd.randrange(2, ctx.order)
            columns[b] = [ctx.mul(c, x) for x in columns[a]]
            if rnd.random() < 0.3:
                columns[rnd.randrange(cols)] = [0] * rows
            m = MatrixF(ctx, list(zip(*columns)))
            pool = list(range(1, cols + 1))
            for size in (2, 3):
                assert (m.first_dependent(size)
                        == first_dependent_oracle(m, pool, size)), (ctx, size)
    # in GF(5): (3, 2) is not a multiple of (1, 2), (2, 4) = 2 (1, 2) is
    assert MatrixF(F5, [[1, 3, 2], [2, 2, 4]]).first_dependent(2) == (1, 3)
    # a zero column is dependent with every column, the first one included
    assert MatrixF(F5, [[1, 0, 2], [2, 0, 4]]).first_dependent(2) == (1, 2)
    assert MatrixF(F5, [[1, 2, 0], [2, 3, 0]]).first_dependent(2) == (1, 3)
    assert MatrixF(F5, [[0, 1, 2], [0, 2, 3]]).first_dependent(2) == (1, 2)
    # the keys (1, 2), (1, 4) and (1, 3) differ
    assert MatrixF(F5, [[1, 2, 3], [2, 3, 4]]).first_dependent(2) is None


# the fields of the first_dependent tests, tables and generic arithmetic
HELPER_FIELDS = (F4, F3, F9, F25, F3_14, F2_20)


def test_pair_masks_match_the_two_by_two_determinant():
    # a pair of columns (a1, b1), (a2, b2) of a two-row node is singular iff
    # a1 b2 = a2 b1: the masks must say so for every pair, with zero
    # columns, a = 0 columns and planted multiples of earlier columns, and
    # use the caller's column offset
    rnd = random.Random(13)
    for ctx in HELPER_FIELDS:
        for _ in range(80):
            columns = []
            for _ in range(rnd.randrange(1, 9)):
                kind = rnd.random()
                if kind < 0.15:
                    col = [0, 0]
                elif kind < 0.3:
                    col = [0, rnd.randrange(1, ctx.order)]
                elif kind < 0.5 and columns:
                    c = rnd.randrange(1, ctx.order)
                    col = [ctx.mul(c, x) for x in rnd.choice(columns)]
                else:
                    col = [rnd.randrange(ctx.order) for _ in range(2)]
                columns.append(col)
            rows = [list(r) for r in zip(*columns)]
            start = rnd.choice((0, 5))
            masks = pair_masks(rows, start, ctx.mul, ctx.inv)
            assert rows == [list(r) for r in zip(*columns)]
            for c1, c2 in itertools.combinations(range(len(columns)), 2):
                (a1, b1), (a2, b2) = columns[c1], columns[c2]
                singular = ctx.mul(a1, b2) == ctx.mul(a2, b1)
                found = masks is not None and (masks[c1] >> start + c2) & 1
                assert found == singular, (ctx, columns)
    # in GF(5): keys 2, 2 and 4, then a zero column and an a = 0 column
    masks = pair_masks([[1, 2, 1, 0, 0], [2, 4, 4, 0, 3]], 0, F5.mul, F5.inv)
    assert masks == [0b01011, 0b01011, 0b01100, -1, 0b11000]
    # the keys 2, 4 and 3 differ, and no column is zero
    assert pair_masks([[1, 1, 1], [2, 4, 3]], 0, F5.mul, F5.inv) is None


# the branches of FieldCtx.child_keys: log tables for p = 2, the Zech
# table for odd p, and generic arithmetic for p = 2 and odd p; GF(4) and
# GF(9) make equal keys, and so wrong ones, likely
KERNEL_FIELDS = (field_ctx(2, 6), field_ctx(7, 3), F2_20, F3_14, F4, F9)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_child_keys_give_the_masks_of_node_step(data):
    # for each pick x of a three-row node, the masks of the keys the
    # field's child_keys gives equal pair_masks of the child node_step
    # builds, and child_keys gives None exactly where node_step does.  The
    # columns are random, or have a zero first entry (x pivots on a later
    # row, and a later column keeps a fixed key), or are sparse (zero
    # scaled entries), zero, or equal or proportional to an earlier one
    ctx = data.draw(st.sampled_from(KERNEL_FIELDS), label="field")
    entry = st.integers(0, ctx.order - 1)
    kinds = st.sampled_from(["random", "zero first", "sparse", "zero", "equal", "multiple"])
    columns = []
    for _ in range(data.draw(st.integers(1, 9), label="columns")):
        kind = data.draw(kinds)
        if kind in ("equal", "multiple") and columns:
            lam = 1 if kind == "equal" else data.draw(st.integers(1, ctx.order - 1))
            col = [ctx.mul(lam, v) for v in data.draw(st.sampled_from(columns))]
        elif kind == "zero":
            col = [0, 0, 0]
        elif kind == "sparse":
            col = [data.draw(st.sampled_from([0, v])) for v in data.draw(
                st.lists(entry, min_size=3, max_size=3))]
        else:
            col = data.draw(st.lists(entry, min_size=3, max_size=3))
            if kind == "zero first":
                col[0] = 0
        columns.append(col)
    rows = [list(r) for r in zip(*columns)]
    before = [list(r) for r in rows]
    xs = [x for x in range(len(columns)) if data.draw(st.booleans())]
    got = list(ctx.child_keys(rows, xs))
    assert rows == before
    assert len(got) == len(xs)
    for x, keys in zip(xs, got):
        child = node_step(rows, x, ctx.mul, ctx.neg, ctx.inv, ctx.axpy)
        if child is None:
            assert keys is None
            continue
        assert len(keys) == len(columns) - x - 1
        for start in (0, x + 1):
            assert key_masks(keys, start) == pair_masks(child, start, ctx.mul, ctx.inv)


def test_node_step_keeps_the_rank_of_every_later_column_set():
    # adding column x to a node: None when x is zero in every row; otherwise
    # one row fewer, cut to the columns after x, and for every set S of
    # those columns rank(node on x + S) = 1 + rank(child on S), by
    # reduce_rows on fresh copies
    rnd = random.Random(17)

    def rank(rows, cols):
        return len(reduce_rows([[row[c] for c in cols] for row in rows], F)[0])

    for F in HELPER_FIELDS:
        for _ in range(40):
            nrows, ncols = rnd.randrange(1, 5), rnd.randrange(1, 7)
            rows = [[rnd.randrange(F.order) if rnd.random() < 0.7 else 0
                     for _ in range(ncols)] for _ in range(nrows)]
            if rnd.random() < 0.3:
                for row in rows:
                    row[rnd.randrange(ncols)] = 0
            before = [list(row) for row in rows]
            for x in range(ncols):
                child = node_step(rows, x, F.mul, F.neg, F.inv, F.axpy)
                assert rows == before
                if child is None:
                    assert not any(row[x] for row in rows)
                    continue
                assert len(child) == nrows - 1
                assert all(len(row) == ncols - x - 1 for row in child)
                later = range(x + 1, ncols)
                for size in range(len(later) + 1):
                    for cols in itertools.combinations(later, size):
                        assert (rank(rows, (x,) + cols)
                                == 1 + rank(child, [c - x - 1 for c in cols]))
    # the pivot is the first row nonzero in x; each other row is cleared
    # in x by it, in GF(3): [0, 1, 2] stays, [1, 0, 1] - 2 [2, 1, 1]
    assert (node_step([[0, 1, 2], [2, 1, 1], [1, 0, 1]], 0, F3.mul, F3.neg,
                      F3.inv, F3.axpy) == [[1, 2], [1, 2]])

def test_det_matches_rank():
    rnd = random.Random(41)
    for _ in range(200):
        n = rnd.randrange(1, 5)
        m = random_matrix(F4, n, n, rnd)
        assert (m.det() != 0) == (m.rank() == n)


def leibniz_det(ctx, rows):
    """Sum over permutations of the signed products: the elimination-free oracle."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = ctx.mul(term, rows[i][j])
        odd = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2)) % 2
        total = ctx.add(total, ctx.neg(term) if odd else term)
    return total


def sparse_matrix(ctx, n, rnd):
    # zeros on half the entries force row swaps and singular matrices
    return MatrixF(ctx, [[rnd.randrange(ctx.order) if rnd.random() < 0.5 else 0
                          for _ in range(n)] for _ in range(n)], cols=n)


@pytest.mark.parametrize("ctx", [F3, F9, F25], ids=repr)
def test_det_matches_leibniz(ctx):
    # odd characteristic: neg is not the identity, so a lost swap sign shows
    rnd = random.Random(ctx.order)
    for n in range(5):
        for _ in range(40):
            m = (sparse_matrix(ctx, n, rnd) if rnd.random() < 0.5
                 else random_matrix(ctx, n, n, rnd) if n else MatrixF.zeros(ctx, 0, 0))
            assert m.det() == leibniz_det(ctx, m.data)
    swap = MatrixF(ctx, [[0, 1], [1, 0]])
    assert swap.det() == ctx.neg(1) != 1


@pytest.mark.parametrize("ctx", [F3, F9, F25], ids=repr)
def test_det_is_multiplicative(ctx):
    rnd = random.Random(7 * ctx.order)
    for _ in range(60):
        n = rnd.randrange(1, 5)
        a, b = sparse_matrix(ctx, n, rnd), random_matrix(ctx, n, n, rnd)
        assert a.mul(b).det() == ctx.mul(a.det(), b.det())


def test_mul_shapes_and_mixed_fields():
    a = MatrixF(F3, [[1, 2]])
    b = MatrixF(F3, [[1], [1]])
    assert a.mul(b).data == ((0,),)
    with pytest.raises(DimensionMismatch):
        b.mul(b)
    with pytest.raises(MixedFields):
        a.mul(MatrixF(F2, [[1], [1]]))


def test_srmat_round_trip():
    rnd = random.Random(8)
    for ctx in (F2, F3, F9, field_ctx(2, 8)):
        m = random_matrix(ctx, 3, 5, rnd)
        text = srmat_dumps(m)
        assert text.startswith(f"srmat p={ctx.p} e={ctx.e} rows=3 cols=5\n")
        assert srmat_loads(text) == m
        assert srmat_dumps(srmat_loads(text)) == text  # bit-exact round trip


def test_srmat_rejects_garbage():
    with pytest.raises(ValueError):
        srmat_loads("not a matrix\n1 2 3\n")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 8), min_size=3, max_size=3),
                min_size=2, max_size=5))
def test_kernel_annihilates_hypothesis(rows):
    m = MatrixF(F9, rows)
    ker = m.right_kernel()
    if ker.cols:
        assert m.mul(ker).is_zero()
    assert ker.cols + m.rank() == m.cols

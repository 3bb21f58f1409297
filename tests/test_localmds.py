"""Extended RS generators, banded structured forms, brute-force MDS checks."""

import itertools

import pytest

from mrlrc.ff import field_ctx
from mrlrc.localmds import (
    ColumnCapExceeded, LengthExceedsField, is_mds, structured_mds,
    vandermonde_columns,
)
from mrlrc.matrix import MatrixF

F3 = field_ctx(3)
F4 = field_ctx(2, 2)
F9 = field_ctx(3, 2)


def test_spec_validation():
    with pytest.raises(LengthExceedsField):
        structured_mds(F3, 5, 2, 1)
    with pytest.raises(ValueError):
        structured_mds(F3, 3, 4, 1)  # k > n


def test_repetition_dimension_one():
    g = vandermonde_columns(F3, 1, 3)
    assert g.rows == 1
    assert all(v != 0 for v in g.data[0])
    assert is_mds(g)


def test_single_parity_dual():
    g = vandermonde_columns(F3, 3, 4)
    assert is_mds(g)
    # parity-check of a (4,3) MDS code over GF(3): one row, all entries nonzero
    h = g.right_kernel().transpose()
    assert h.rows == 1
    assert all(v != 0 for v in h.data[0])


def test_is_mds_examples():
    assert is_mds(MatrixF.identity(F3, 2))
    assert not is_mds(MatrixF(F3, [[1, 0], [0, 0]]))
    assert is_mds(vandermonde_columns(F3, 2, 4))
    # the cap counts column subsets: 25 of them for one row is fine,
    # C(26, 13) = 10,400,600 is not
    assert not is_mds(MatrixF.zeros(F3, 1, 25))
    with pytest.raises(ColumnCapExceeded, match="10400600 column subsets"):
        is_mds(MatrixF.zeros(F3, 13, 26))


def test_extended_rs_always_mds_exhaustive():
    for q, ctx in ((2, field_ctx(2)), (3, F3), (4, F4), (9, F9)):
        for n in range(1, q + 2):
            for k in range(0, n + 1):
                g = vandermonde_columns(ctx, k, n)
                assert is_mds(g), (q, n, k)


def test_dual_of_mds_is_mds():
    # right kernel of an MDS generator, transposed, passes is_mds
    for q, ctx in ((3, F3), (4, F4), (9, F9)):
        for n in range(2, min(q + 2, 7)):
            for k in range(1, n):
                g = vandermonde_columns(ctx, k, n)
                h = g.right_kernel().transpose()
                assert is_mds(h), (q, n, k)


def test_structured_single_band():
    # t = k: full systematic form [I_k | B]
    a = structured_mds(F4, 4, 2, 2)
    assert a.data[0][:2] == (1, 0)
    assert a.data[1][:2] == (0, 1)
    assert is_mds(a)


def test_structured_example_gf4():
    a = structured_mds(F4, 4, 3, 1)
    # shape [1 B; 0 C]
    assert a.data[0][0] == 1
    assert a.data[1][0] == 0 and a.data[2][0] == 0
    c_band = MatrixF(F4, a.data[1:3])
    assert is_mds(c_band.restrict_columns([2, 3, 4]))


def test_structured_row_space_and_zero_pattern():
    for ctx, n, k, t in [(F3, 4, 3, 1), (F4, 4, 3, 2), (F9, 6, 4, 2)]:
        a = structured_mds(ctx, n, k, t)
        orig = vandermonde_columns(ctx, k, n)
        stacked = MatrixF(ctx, orig.data + a.data)
        assert stacked.rank() == k == a.rank()
        for i in range(t):
            assert a.data[i][:t] == tuple(int(i == j) for j in range(t))
        for i in range(t, k):
            assert all(a.data[i][j] == 0 for j in range(t))


def test_structured_prefix_mds():
    # three bands as used by the first parity-check construction:
    # A = [I_t B; 0 C; 0 D] with the top delta-1 rows spanning an MDS code
    t, delta, h, r = 1, 2, 2, 2
    a = structured_mds(F3, r + delta - 1, h + delta - 1, t,
                       check_prefix=delta - 1)
    prefix = MatrixF(F3, a.data[:delta - 1], cols=a.cols)
    assert is_mds(prefix)
    assert is_mds(a)


def test_structured_prefix_spans_low_degree_subcode():
    # the prefix rows span the same code as the lower-dimension generator
    a = structured_mds(F9, 6, 4, 2, check_prefix=3)
    low = structured_mds(F9, 6, 3, 2)
    stacked = MatrixF(F9, a.data[:3] + low.data)
    assert stacked.rank() == 3


def test_vandermonde_tall_columns_independent():
    # rows > cols: every column subset must stay independent
    m = vandermonde_columns(F3, 5, 3)
    assert m.rows == 5 and m.cols == 3
    for size in range(1, 4):
        for sel in itertools.combinations(range(1, 4), size):
            assert m.restrict_columns(sel).rank() == size


def test_vandermonde_extension_column():
    m = vandermonde_columns(F3, 2, 4)  # n = q + 1 needs the extra column
    assert m.column(3) == (0, 1)
    assert is_mds(m)

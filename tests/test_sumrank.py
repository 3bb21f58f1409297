"""Sum-rank weights, linearized RS codes, MSRD verification."""

import random

import pytest

from mrlrc.ff import field_ctx, make_tower
from mrlrc.matrix import MatrixF
from mrlrc.sumrank import BadParams, SumRankPartition, lrs_generator
from msrd_oracle import (
    LengthMismatch, TooLargeToEnumerate, gl_order, invertible_matrices,
    is_mds, is_msrd, min_sum_rank_distance, msrd_mds_projection_check,
    sum_rank_weight,
)

T32 = make_tower(3, 1, 2)   # GF(3) <= GF(9)
T33 = make_tower(3, 1, 3)   # GF(3) <= GF(27)


def test_weight_trivia():
    part = SumRankPartition(T32, 2, 2)
    assert sum_rank_weight((0, 0, 0, 0), part) == 0
    with pytest.raises(LengthMismatch):
        sum_rank_weight((0, 0, 0), part)
    # g = 1: all entries equal one nonzero element -> rank 1
    one_block = SumRankPartition(T32, 1, 2)
    x = T32.top.primitive
    assert sum_rank_weight((x, x), one_block) == 1
    # r = 1: Hamming weight
    hamming = SumRankPartition(T32, 3, 1)
    assert sum_rank_weight((0, x, 0), hamming) == 1
    assert sum_rank_weight((x, x, 1), hamming) == 3


def test_weight_scalar_invariance():
    part = SumRankPartition(T32, 2, 2)
    rnd = random.Random(2)
    top = T32.top
    for _ in range(200):
        v = tuple(rnd.randrange(9) for _ in range(4))
        lam = rnd.randrange(1, 9)
        scaled = tuple(top.mul(lam, x) for x in v)
        assert sum_rank_weight(v, part) == sum_rank_weight(scaled, part)


def test_metric_sandwich():
    # rank weight (g=1) <= sum-rank weight <= Hamming weight (r=1)
    tower = make_tower(2, 2, 2)   # GF(4) <= GF(16), n = 4
    mid = SumRankPartition(tower, 2, 2)
    lo = SumRankPartition(tower, 1, 4)
    hi = SumRankPartition(tower, 4, 1)
    rnd = random.Random(6)
    for _ in range(1000):
        v = tuple(rnd.randrange(16) for _ in range(4))
        assert (sum_rank_weight(v, lo)
                <= sum_rank_weight(v, mid)
                <= sum_rank_weight(v, hi))


def test_lrs_generator_rows():
    part = SumRankPartition(T32, 2, 2)
    code = lrs_generator(part, 2)
    top, q = T32.top, T32.q
    b1, b2 = code.beta
    a1, a2 = code.a
    # first row: beta repeated per block (a_i^0 = 1)
    assert code.generator.data[0] == (b1, b2, b1, b2)
    # second row of block i: (beta_1^q a_i, beta_2^q a_i)
    expect = (top.mul(top.pow(b1, q), a1), top.mul(top.pow(b2, q), a1),
              top.mul(top.pow(b1, q), a2), top.mul(top.pow(b2, q), a2))
    assert code.generator.data[1] == expect


def test_lrs_k1_row():
    part = SumRankPartition(T33, 2, 3)
    code = lrs_generator(part, 1)
    assert code.generator.data[0] == code.beta + code.beta


def test_lrs_bad_params():
    with pytest.raises(BadParams):
        lrs_generator(SumRankPartition(make_tower(2, 1, 2), 2, 2), 1)  # q = 2 <= g
    with pytest.raises(BadParams):
        lrs_generator(SumRankPartition(T32, 2, 3), 1)  # m = 2 < r = 3
    with pytest.raises(BadParams):
        lrs_generator(SumRankPartition(T32, 2, 2), 5)  # k > gr


def test_min_distance_examples():
    part = SumRankPartition(T32, 2, 2)
    # full space: weight-1 vectors are codewords
    full = lrs_generator(part, 4)
    assert min_sum_rank_distance(full, part) == 1
    code = lrs_generator(part, 2)
    assert min_sum_rank_distance(code, part) == 3  # n - k + 1
    assert is_msrd(code, part)
    with pytest.raises(ValueError):
        min_sum_rank_distance(MatrixF(T32.top, [], cols=4), part)
    with pytest.raises(TooLargeToEnumerate):
        min_sum_rank_distance(code, part, cap=10)


def test_singleton_bound():
    for (g, r, k) in [(1, 2, 1), (2, 2, 2), (2, 2, 3), (2, 1, 1)]:
        part = SumRankPartition(T32, g, r)
        code = lrs_generator(part, k)
        assert min_sum_rank_distance(code, part) <= part.n - k + 1


def test_non_msrd_example():
    part = SumRankPartition(T32, 2, 2)
    bad = MatrixF(T32.top, [[1, 0, 1, 0]])
    assert min_sum_rank_distance(bad, part) == 2  # < n - k + 1 = 4
    assert not is_msrd(bad, part)
    ok, witness = msrd_mds_projection_check(bad, part, witness=True)
    assert not ok and witness is not None


def test_full_space_is_msrd():
    part = SumRankPartition(T32, 2, 2)
    full = MatrixF.identity(T32.top, 4)
    assert is_msrd(full, part)  # d = 1 = n - k + 1


def test_gl_enumeration():
    f3 = field_ctx(3)
    gl2 = invertible_matrices(f3, 2)
    assert len(gl2) == 48 == gl_order(3, 2)
    gl1 = invertible_matrices(field_ctx(2, 2), 1)
    assert len(gl1) == 3


def test_projection_check_agrees_with_msrd():
    part = SumRankPartition(T32, 2, 2)
    code = lrs_generator(part, 2)
    assert msrd_mds_projection_check(code, part, cap=48 ** 2)
    # identity tuple reduces to is_mds of the code itself
    assert is_mds(code.generator)


def test_projection_check_sampled_deterministic():
    part = SumRankPartition(T32, 2, 2)
    code = lrs_generator(part, 2)
    assert msrd_mds_projection_check(code, part, exhaustive=False,
                                     samples=25, seed=42)
    with pytest.raises(TooLargeToEnumerate):
        msrd_mds_projection_check(code, part, cap=10)


def test_lrs_is_msrd_small_sweep():
    # a slice of the acceptance-4 grid, kept quick for the unit suite
    for (p, s, g, r, m, k) in [(3, 1, 2, 2, 2, 2), (3, 1, 1, 2, 3, 2),
                               (2, 2, 3, 1, 2, 2), (2, 2, 2, 2, 2, 3)]:
        tower = make_tower(p, s, m)
        part = SumRankPartition(tower, g, r)
        code = lrs_generator(part, k)
        assert is_msrd(code, part), (p, s, g, r, m, k)


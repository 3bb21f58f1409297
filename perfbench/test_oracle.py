"""Field identities and small known answers for the benchmark's oracle."""

import itertools
import random

import pytest

from oracle import GF, det, group_maximal_sets, mat_vec, rank

# monic irreducibles, low coefficient first
FIELDS = [
    (2, (1, 1, 0, 0, 1)),          # GF(16): x^4 + x + 1
    (3, (1, 0, 1)),                # GF(9): x^2 + 1
    (5, (1, 1, 0, 1)),             # GF(125): x^3 + x + 1
    (2, (1,) + (0,) * 2 + (1,) + (0,) * 16 + (1,)),  # GF(2^20): x^20 + x^3 + 1
    (3, (2, 1)),                   # GF(3) as a degree-1 extension: x + 2
]


def _elements(f, count, seed):
    rnd = random.Random(seed)
    return [rnd.randrange(1, f.order) for _ in range(count)]


@pytest.mark.parametrize("p,modulus", FIELDS)
def test_multiplicative_group_order(p, modulus):
    f = GF(p, modulus)
    for a in _elements(f, 20, 1):
        assert f.pow(a, f.order - 1) == 1


@pytest.mark.parametrize("p,modulus", FIELDS)
def test_distributive_and_inverse(p, modulus):
    f = GF(p, modulus)
    xs = _elements(f, 12, 2)
    for a, b, c in itertools.islice(itertools.product(xs, repeat=3), 300):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, b) == f.mul(b, a)
    for a in xs:
        assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("p,modulus", [f for f in FIELDS if f[0] ** (len(f[1]) - 1) <= 256])
def test_tables_agree_with_polynomial_products(p, modulus):
    f, g = GF(p, modulus), GF(p, modulus, tables=False)
    for a, b in itertools.product(range(f.order), repeat=2):
        assert f.mul(a, b) == g.mul(a, b)
    for a in range(1, f.order):
        assert f.inv(a) == g.inv(a)


def test_small_field_is_cyclic_with_the_right_order():
    f = GF(3, (1, 0, 1))
    # x^2 + 1 over GF(3): X has order 4, and 1 + X generates all 8 units
    assert f.pow(3, 4) == 1 and f.pow(3, 2) != 1
    units = {f.pow(4, i) for i in range(8)}
    assert units == set(range(1, 9))


def test_reducible_modulus_breaks_the_group_identity():
    f = GF(2, (0, 1, 1))           # x^2 + x = x (x + 1): X is a zero divisor
    assert f.mul(2, 3) == 0
    assert f.pow(2, f.order - 1) != 1


def test_rank_and_mat_vec():
    f = GF(2, (1, 1, 0, 0, 1))
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    # row 2 = 2 * row 1 in GF(16)
    assert [f.mul(2, v) for v in rows[0]] == rows[1]
    assert rank(f, rows) == 2
    assert rank(f, [[1, 0], [0, 1]]) == 2
    assert mat_vec(f, [[1, 1], [2, 0]], [3, 5]) == [3 ^ 5, f.mul(2, 3)]
    assert det(f, rows) == 0
    assert det(f, [[0, 1], [1, 0]]) == 1       # -1 = 1 in characteristic 2
    g = GF(5, (1, 1, 0, 1))
    a, b, c, d = 7, 30, 99, 4
    assert det(g, [[a, b], [c, d]]) == g.sub(g.mul(a, d), g.mul(b, c))


def test_group_pattern_counts():
    # (r, delta, t, N) = (2, 2, 1, 2): group {1..5}, R_1 = {1,2,3}, R_2 = {1,4,5}
    sets = group_maximal_sets(2, 2, 1, 2)
    assert sets == [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]
    # N = 1: any delta-1 coordinates of the single repair set
    assert len(group_maximal_sets(2, 3, 1, 1)) == 6

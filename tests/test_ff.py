"""Field contexts and towers: canonical choices, axioms, norms."""

import importlib.util
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlrc.ff import (
    DOT_BLOCK, DegreeOverflow, DivisionByZero, FieldCtx, NotPrime, TooManyBlocks,
    ZeroNorm, field_ctx, is_irreducible, is_prime, is_prime_power,
    least_irreducible, make_tower, next_prime_power,
)

# the benchmark's reference field arithmetic, which imports nothing from mrlrc
ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


# Tuple-polynomial oracles: coefficient tuples over GF(p), low degree first,
# multiplied and reduced term by term; inverses by Fermat, a^(p^e - 2).


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(tuple(out))


def poly_mod(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _trim(tuple(a))


def monic_polys(p, deg):
    for lower in itertools.product(range(p), repeat=deg):
        yield tuple(reversed(lower)) + (1,)


def irreducible_by_trial_division(cand, p):
    e = len(cand) - 1
    return all(poly_mod(cand, div, p)
               for d in range(1, e // 2 + 1) for div in monic_polys(p, d))


def least_irreducible_by_tuples(p, e):
    return next(c for c in monic_polys(p, e) if irreducible_by_trial_division(c, p))


def tuple_mul(ctx, a, b):
    prod = poly_mod(poly_mul(ctx.coeffs(a), ctx.coeffs(b), ctx.p), ctx.modulus, ctx.p)
    return ctx.from_coeffs(prod)


def fermat_inv(ctx, a):
    out, n = 1, ctx.order - 2
    while n:
        if n & 1:
            out = tuple_mul(ctx, out, a)
        a = tuple_mul(ctx, a, a)
        n >>= 1
    return out


def test_canonical_moduli():
    # least monic irreducible in base-p integer order
    assert least_irreducible(3, 2) == (1, 0, 1)          # x^2 + 1
    assert least_irreducible(2, 2) == (1, 1, 1)          # x^2 + x + 1
    assert least_irreducible(2, 3) == (1, 1, 0, 1)       # x^3 + x + 1
    assert least_irreducible(2, 4) == (1, 1, 0, 0, 1)    # x^4 + x + 1
    assert least_irreducible(3, 1) == (0, 1)             # x


def test_gf9_least_irreducible_by_exhaustion():
    # oracle: enumerate the monic quadratics over GF(3) without roots
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 3 == 0 for x in range(3))

    rootfree = [(c0, c1) for c1 in range(3) for c0 in range(3)
                if not has_root(c0, c1)]
    assert len(rootfree) == 3
    least = min(rootfree, key=lambda c: c[0] + 3 * c[1])
    assert least_irreducible(3, 2) == (least[0], least[1], 1)


def test_not_prime_and_overflow():
    with pytest.raises(NotPrime):
        FieldCtx(4, 1)
    with pytest.raises(NotPrime):
        make_tower(6, 1, 2)
    with pytest.raises(DegreeOverflow):
        FieldCtx(2, 41)


def test_huge_degree_rejected_before_any_work():
    # p^e is never built: 2^(10^12) would need a 125 GB integer
    for build in (lambda: FieldCtx(2, 10 ** 12), lambda: make_tower(2, 1, 10 ** 12),
                  lambda: FieldCtx(10 ** 40 + 1, 10 ** 12)):
        t0 = time.monotonic()
        with pytest.raises(DegreeOverflow):
            build()
        assert time.monotonic() - t0 < 1.0


def test_is_prime_matches_sieve():
    limit = 5000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    assert [n for n in range(-3, limit) if is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]
    # the largest prime below the 2^40 order limit, and its neighbours
    assert is_prime(2 ** 40 - 87)
    assert not is_prime(2 ** 40 - 85) and not is_prime(2 ** 40 - 89)


def test_prime_power_helpers():
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(12) is None
    assert next_prime_power(6) == 7
    assert next_prime_power(9) == 9


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2)])
def test_field_axioms_random(p, e):
    ctx = field_ctx(p, e)
    rnd = random.Random(1234)
    for _ in range(10_000):
        x, y, z = (rnd.randrange(ctx.order) for _ in range(3))
        assert ctx.mul(ctx.add(x, y), z) == ctx.add(ctx.mul(x, z), ctx.mul(y, z))
        assert ctx.add(x, ctx.neg(x)) == 0
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1


def test_generic_path_matches_tables():
    # table fields forced through the generic methods must agree with their
    # tables operation by operation, and inverse by inverse; add has no
    # table (test_add_is_digitwise_sum_mod_p)
    for p, e in [(2, 8), (3, 4), (5, 3)]:
        ctx = field_ctx(p, e)
        rnd = random.Random(7)
        for _ in range(500):
            x, y = rnd.randrange(ctx.order), rnd.randrange(ctx.order)
            assert ctx._g_neg(x) == ctx.neg(x)
            assert ctx._g_mul(x, y) == ctx.mul(x, y)
        for x in range(1, ctx.order):
            assert ctx._g_inv(x) == ctx.inv(x)


def test_add_is_digitwise_sum_mod_p():
    # add sums digit by digit mod p on every field: by XOR for p = 2, with
    # no Zech table behind it, and with or without log tables for odd p
    def digit_sum(ctx, x, y):
        return ctx.from_coeffs(
            (a + b) % ctx.p for a, b in zip(ctx.coeffs(x), ctx.coeffs(y)))

    for small in (field_ctx(2, 4), field_ctx(3, 4), field_ctx(5, 2)):
        for x, y in itertools.product(small.elements(), repeat=2):
            assert small.add(x, y) == digit_sum(small, x, y)
    gf2_14 = field_ctx(2, 14)
    assert gf2_14._exp is not None and gf2_14._zech is None
    for p, e in [(2, 14), (3, 10), (5, 3), (2, 20), (3, 14), (5, 7), (4099, 2)]:
        ctx = field_ctx(p, e)
        rnd = random.Random(p * 100 + e)
        top = ctx.order - 1   # every digit p - 1: each digit sum wraps
        for x, y in [(top, top), (top, 1), (1, top), (0, top), (top, 0)]:
            assert ctx.add(x, y) == digit_sum(ctx, x, y)
        for _ in range(2_000):
            x, y = rnd.randrange(ctx.order), rnd.randrange(ctx.order)
            assert ctx.add(x, y) == digit_sum(ctx, x, y)


def test_generic_path_matches_tuple_oracles():
    # small fields of several characteristics through the generic methods,
    # with every inverse checked
    for p, e in [(2, 4), (3, 5), (5, 2), (7, 3), (2, 11), (3, 7)]:
        ctx = field_ctx(p, e)
        rnd = random.Random(11)
        for _ in range(300):
            x, y = rnd.randrange(ctx.order), rnd.randrange(ctx.order)
            assert ctx._g_mul(x, y) == tuple_mul(ctx, x, y)
        for x in range(1, ctx.order):
            assert ctx.mul(x, ctx._g_inv(x)) == 1
        for x in rnd.sample(range(1, ctx.order), min(20, ctx.order - 1)):
            assert ctx._g_inv(x) == fermat_inv(ctx, x)


@pytest.mark.parametrize("p,e", [(2, 20), (3, 14), (5, 7), (2, 33)])
def test_big_fields_match_benchmark_oracle(p, e):
    ctx = field_ctx(p, e)
    assert ctx.order > 1 << 16   # no tables: the generic path throughout
    ref = oracle.GF(p, ctx.modulus)
    rnd = random.Random(2024)
    edges = [1, p - 1, p, ctx.order - 1]   # 1, -1, X and the largest element
    xs = edges + [rnd.randrange(1, ctx.order) for _ in range(200)]
    for x in xs:
        for y in edges + [rnd.randrange(ctx.order)]:
            assert ctx.add(x, y) == ref.add(x, y)
            assert ctx.mul(x, y) == ref.mul(x, y)
        assert ctx.neg(x) == ref.neg(x)
        inv = ctx.inv(x)
        assert 0 < inv < ctx.order and ctx.mul(x, inv) == 1
        assert ref.mul(x, inv) == 1
    for x in edges + xs[-3:]:
        assert ctx.inv(x) == ref.inv(x) == fermat_inv(ctx, x)
    for x, y in zip(xs, reversed(xs)):
        assert ctx.mul(x, y) == tuple_mul(ctx, x, y)


@pytest.mark.parametrize("p,e", [(2, 6), (3, 4), (2, 20), (3, 14)])
def test_axpy_matches_add_and_mul_on_every_branch(p, e):
    # p = 2 tables, odd-p Zech tables, and the generic path for each p;
    # y = 0 must not read log[0], which holds 0 as log[1] does
    ctx = field_ctx(p, e)
    assert (ctx._exp is not None) == (ctx.order <= 1 << 16)
    rnd = random.Random(p * 100 + e)
    edges = [0, 1, p - 1, ctx.order - 1]

    def entry():
        return rnd.choice(edges) if rnd.random() < 0.4 else rnd.randrange(ctx.order)

    for _ in range(300):
        size = rnd.randrange(9)
        xs = [entry() for _ in range(size)]
        ws = [entry() for _ in range(size)]
        for y in (0, 1, entry()):
            got = ctx.axpy(y, xs, ws)
            assert got == [ctx.add(x, ctx.mul(y, w)) for x, w in zip(xs, ws)]
            assert got is not xs
    # x + y w = 0 when x = -y w
    for _ in range(100):
        y, w = rnd.randrange(1, ctx.order), rnd.randrange(1, ctx.order)
        assert ctx.axpy(y, [ctx.neg(ctx.mul(y, w)), 0], [w, 0]) == [0, 0]
    assert ctx.axpy(0, [0, 1, 2 % ctx.order], [1, 1, 1]) == [0, 1, 2 % ctx.order]


def loop_dot(ctx, xs, ws):
    acc = 0
    for x, w in zip(xs, ws):
        acc = ctx.add(acc, ctx.mul(x, w))
    return acc


# every branch of the two kernels: p = 2 and odd-p tables, generic p = 2,
# generic odd p with a table of lifted chunks, and odd p too large for one
KERNEL_FIELDS = [(2, 6), (3, 4), (2, 20), (3, 14), (5, 7), (4099, 2)]


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_dot_and_axpy_match_add_and_mul_on_every_branch(p, e):
    ctx = field_ctx(p, e)
    assert (ctx._exp is not None) == (ctx.order <= 1 << 16)
    assert (ctx._lifts is not None) == (ctx.order > 1 << 16 and 2 < p <= 256)
    rnd = random.Random(p * 1000 + e)
    top = ctx.order - 1   # every digit p - 1: the largest slot sums
    edges = [0, 1, p - 1, top]

    def entry():
        return rnd.choice(edges) if rnd.random() < 0.4 else rnd.randrange(ctx.order)

    # lengths 0 and 1, zeros in either operand, and dots longer than one
    # block of DOT_BLOCK products
    sizes = [0, 1, 2, 9, DOT_BLOCK - 1, DOT_BLOCK, DOT_BLOCK + 1, 2 * DOT_BLOCK + 3]
    for size in sizes:
        for _ in range(6):
            xs = [entry() for _ in range(size)]
            ws = [entry() for _ in range(size)]
            assert ctx.dots(xs, (ws,))[0] == loop_dot(ctx, xs, ws)
            assert ctx.dots(tuple(xs), (ws,)) == ctx.dots(ws, (xs,))
            for y in (0, 1, top, entry()):
                got = ctx.axpy(y, xs, ws)
                assert got == [ctx.add(x, ctx.mul(y, w)) for x, w in zip(xs, ws)]
        fulls = [top] * size
        assert ctx.dots(fulls, (fulls,))[0] == loop_dot(ctx, fulls, fulls)
        assert ctx.axpy(top, fulls, fulls) == [ctx.add(top, ctx.mul(top, top))] * size
        assert ctx.dots([0] * size, (fulls,)) == ctx.dots(fulls, ([0] * size,)) == [0]
    # a sum that cancels: x w + (-x w) = 0, also inside a longer dot
    for _ in range(50):
        x, w = rnd.randrange(1, ctx.order), rnd.randrange(1, ctx.order)
        assert ctx.dots([x, ctx.neg(x)], ([w, w],)) == [0]
        assert ctx.dots([x, ctx.neg(x), 1], ([w, w, w],)) == [w]


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_dots_matches_dot_and_add_mul_on_every_branch(p, e):
    # one row against many columns, xs read once: zeros in the row and in
    # the columns, and an all-(p^e - 1) row of 150 entries, whose product
    # with the all-(p^e - 1) column needs every DOT_BLOCK reduction on
    # generic odd p
    ctx = field_ctx(p, e)
    rnd = random.Random(p * 100 + e)
    top = ctx.order - 1

    def entry():
        return 0 if rnd.random() < 0.3 else rnd.randrange(1, ctx.order)

    for size in (1, 7, 2 * DOT_BLOCK + 22):
        xs = [entry() for _ in range(size)]
        cols = [tuple(entry() for _ in range(size)) for _ in range(4)]
        cols += [(0,) * size, (top,) * size]
        for row in (xs, [0] * size, [top] * size):
            got = ctx.dots(row, cols)
            assert got == [loop_dot(ctx, row, ws) for ws in cols]
            assert got == [ctx.dots(row, (ws,))[0] for ws in cols]
            assert ctx.dots(tuple(row), iter(cols)) == got
        assert ctx.dots(xs, []) == []
    assert ctx.dots([], [(), (), ()]) == [0, 0, 0]


PROPERTY_FIELDS = [(2, 1), (3, 1), (2, 5), (3, 3), (7, 2), (2, 17), (3, 11), (5, 9),
          (13, 5), (257, 2), (4099, 2), (1000003, 1), (2, 33), (3, 24)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dot_and_axpy_match_add_and_mul_hypothesis(data):
    ctx = field_ctx(*data.draw(st.sampled_from(PROPERTY_FIELDS)))
    element = st.one_of(st.sampled_from([0, 1, ctx.order - 1]),
                        st.integers(0, ctx.order - 1))
    size = data.draw(st.integers(0, 2 * DOT_BLOCK + 2))
    xs = data.draw(st.lists(element, min_size=size, max_size=size))
    ws = data.draw(st.lists(element, min_size=size, max_size=size))
    y = data.draw(element)
    assert ctx.dots(xs, (ws,))[0] == loop_dot(ctx, xs, ws)
    assert ctx.axpy(y, xs, ws) == [ctx.add(x, ctx.mul(y, w)) for x, w in zip(xs, ws)]


@pytest.mark.parametrize("p,e", [(2, 20), (3, 14), (2, 8), (3, 4)])
def test_inverse_of_zero_raises(p, e):
    ctx = field_ctx(p, e)
    with pytest.raises(DivisionByZero):
        ctx.inv(0)


def test_least_irreducible_matches_tuple_trial_division():
    for p, top in [(2, 20), (3, 8), (5, 6), (7, 5)]:
        for e in range(1, top + 1):
            assert least_irreducible(p, e) == least_irreducible_by_tuples(p, e), (p, e)


def test_is_irreducible_matches_trial_division():
    # every monic polynomial, not only the least irreducible one
    for p, top in [(2, 9), (3, 5), (5, 4), (7, 3), (11, 3)]:
        for e in range(1, top + 1):
            for cand in monic_polys(p, e):
                assert is_irreducible(cand, p) == \
                    irreducible_by_trial_division(cand, p), (p, cand)
    # non-monic and constant tuples are refused
    assert not is_irreducible((1, 2), 3) and not is_irreducible((1,), 2)


def test_big_field_generic_arithmetic():
    ctx = field_ctx(2, 33)  # above the table limit, below the order cap
    a, b = 0x123456789, 0x87654321
    assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.mul(ctx.add(a, b), 3) == ctx.add(ctx.mul(a, 3), ctx.mul(b, 3))
    assert ctx.pow(a, ctx.order - 1) == 1


def test_pow_square_and_multiply():
    f9 = field_ctx(3, 2)
    gamma = f9.primitive
    assert f9.pow(gamma, 8) == 1
    assert f9.pow(gamma, 4) != 1
    assert f9.pow(0, 0) == 1
    assert f9.pow(0, 5) == 0
    with pytest.raises(DivisionByZero):
        f9.inv(0)


def test_gf3_examples():
    f3 = field_ctx(3)
    assert f3.mul(2, 2) == 1
    assert f3.inv(2) == 2


def test_primitive_is_least():
    f9 = field_ctx(3, 2)
    assert f9.primitive == 4  # x + 1; x itself has order 4 modulo x^2+1
    orders = [f9.mult_order(a) for a in range(1, 9)]
    assert max(orders) == 8
    assert min(a for a in range(1, 9) if f9.mult_order(a) == 8) == 4


def test_make_tower_degenerate():
    t = make_tower(2, 1, 1)
    assert t.base is t.top
    assert all(t.embed(a) == a for a in range(2))


def test_tower_embed_is_homomorphism():
    for (p, s, m) in [(3, 1, 2), (2, 2, 2), (3, 2, 2), (2, 2, 3)]:
        t = make_tower(p, s, m)
        for a in t.base.elements():
            for b in t.base.elements():
                assert t.embed(t.base.mul(a, b)) == t.top.mul(t.embed(a), t.embed(b))
                assert t.embed(t.base.add(a, b)) == t.top.add(t.embed(a), t.embed(b))
        assert t.embed(1) == 1


@pytest.mark.parametrize("p,s,m", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2),
                                   (2, 2, 4), (3, 1, 3)])
def test_subfield_elements_match_brute_force(p, s, m):
    t = make_tower(p, s, m)
    fixed = {x for x in t.top.elements() if t.top.pow(x, t.q) == x}
    assert {t.embed(a) for a in t.base.elements()} == fixed


def test_subfield_of_generic_top_field():
    # GF(4) <= GF(2^20): the top field has no tables
    t = make_tower(2, 2, 10)
    sub = {t.embed(a) for a in t.base.elements()}
    assert len(sub) == t.q == 4
    assert all(t.frobenius(x) == x for x in sub)
    for a in t.base.elements():
        assert t.embed_inv(t.embed(a)) == a
        for b in t.base.elements():
            assert t.embed(t.base.mul(a, b)) == t.top.mul(t.embed(a), t.embed(b))
            assert t.embed(t.base.add(a, b)) == t.top.add(t.embed(a), t.embed(b))


@pytest.mark.parametrize("p,s,m", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 4, 1),
                                   (3, 1, 3)])
def test_embedded_generator_is_least_root_of_base_modulus(p, s, m):
    # covers m = 1 (the root is X) and s = 1 (the root is 0) as well
    t = make_tower(p, s, m)
    top = t.top
    generator = p if s > 1 else 0  # X in GF(q); GF(p) = GF(p)[X]/(X)

    def is_root(x):
        acc = 0
        for c in reversed(t.base.modulus):
            acc = top.add(top.mul(acc, x), c)
        return acc == 0

    roots = [x for x in top.elements() if top.pow(x, t.q) == x and is_root(x)]
    assert len(roots) == s
    assert t.embed(generator) == roots[0]


@pytest.mark.parametrize("p,s,m", [(2, 2, 2), (2, 2, 10)])
def test_embed_inv_rejects_non_subfield_elements(p, s, m):
    t = make_tower(p, s, m)
    outside = next(x for x in t.top.elements() if t.frobenius(x) != x)
    for bad in (outside, t.top.order):
        with pytest.raises(ValueError):
            t.embed_inv(bad)


def test_gf9_in_gf81_generator_order():
    t = make_tower(3, 2, 2)
    img = t.embed(t.base.primitive)
    assert t.top.mult_order(img) == 8
    assert t.top.pow(img, 4) != 1


def test_frobenius_fixes_embedded_subfield():
    # exhaustive for towers with top order <= 3^5
    for (p, s, m) in [(3, 1, 2), (3, 1, 3), (3, 1, 5), (2, 2, 2), (3, 2, 2)]:
        t = make_tower(p, s, m)
        for a in t.base.elements():
            assert t.frobenius(t.embed(a)) == t.embed(a)
        # fixed points of x -> x^q are exactly the subfield
        fixed = sum(1 for x in t.top.elements() if t.frobenius(x) == x)
        assert fixed == t.q


def test_frobenius_is_automorphism():
    # exhaustive over all pairs for towers with top order up to 3^5
    for (p, s, m) in [(3, 1, 3), (2, 2, 2), (3, 1, 5)]:
        t = make_tower(p, s, m)
        top = t.top
        frob = [t.frobenius(x) for x in top.elements()]
        assert sorted(frob) == list(top.elements())  # bijective
        for x in top.elements():
            for y in top.elements():
                assert frob[top.add(x, y)] == top.add(frob[x], frob[y])
                assert frob[top.mul(x, y)] == top.mul(frob[x], frob[y])


def test_rel_norm_examples():
    t = make_tower(3, 1, 2)
    gamma = t.top.primitive
    assert t.rel_norm(1) == 1
    assert t.rel_norm(gamma) == 2          # gamma^4, the order-2 element of GF(3)*
    for a in range(1, 3):
        assert t.rel_norm(t.embed(a)) == t.base.pow(a, t.m)
    with pytest.raises(ZeroNorm):
        t.rel_norm(0)


def test_rel_norm_multiplicative_and_surjective():
    for (p, s, m) in [(3, 1, 2), (3, 1, 3), (2, 2, 2), (3, 2, 2), (3, 1, 5)]:
        t = make_tower(p, s, m)
        top = t.top
        hit = set()
        for x in range(1, top.order):
            hit.add(t.rel_norm(x))
            y = 1 + x % (top.order - 1)
            assert t.rel_norm(top.mul(x, y)) == \
                t.base.mul(t.rel_norm(x), t.rel_norm(y))
        assert hit == set(range(1, t.q))


def test_distinct_norm_elements():
    t = make_tower(3, 1, 2)
    a = t.distinct_norm_elements(2)
    assert a == (1, t.top.primitive)
    assert t.rel_norm(a[0]) != t.rel_norm(a[1])
    assert t.distinct_norm_elements(1) == (1,)
    with pytest.raises(TooManyBlocks):
        t.distinct_norm_elements(3)


def test_base_coords_roundtrip():
    for (p, s, m) in [(3, 1, 3), (2, 2, 2), (3, 2, 2)]:
        t = make_tower(p, s, m)
        for y in t.top.elements():
            cs = t.base_coords(y)
            assert len(cs) == m
            assert t.from_base_coords(cs) == y


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_gf81_ring_axioms_hypothesis(x, y, z):
    ctx = field_ctx(3, 4)
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.mul(x, ctx.mul(y, z)) == ctx.mul(ctx.mul(x, y), z)
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))

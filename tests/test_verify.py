"""MR verification sweeps, erasure decoding, ell computations, lower bounds."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from mrlrc.ff import field_ctx
from mrlrc.matrix import MatrixF
from mrlrc.constructions import construct_gen, construct_pc1, construct_pc2
from mrlrc.topology import enumerate_maximal_patterns, is_mr_correctable_pattern, make_topology
from mrlrc.verify import (
    BoundInputs, InvalidInput, TooLargeToEnumerate, WrongKind,
    construction3_pattern_check, decode_erasures,
    ell_bounds, ell_exact, erasure_rank_defect, lower_bound_field,
    verify_mr_exhaustive, verify_mr_sampled,
)


def make(r, delta, t, g, n_avail):
    mode = "availability" if t <= delta - 1 else "plain"
    return make_topology(r, delta, t, g, n_avail, mode=mode)


@pytest.fixture(scope="module")
def gen_code():
    return construct_gen(make(2, 2, 1, 2, 2), 5)


def test_exhaustive_pass_counts(gen_code):
    rep = verify_mr_exhaustive(gen_code)
    assert rep.passed
    assert rep.patterns_checked == 64
    assert rep.bound_values["field_size"] == 27


def test_exhaustive_sides_agree(gen_code):
    a = verify_mr_exhaustive(gen_code, side="generator")
    b = verify_mr_exhaustive(gen_code, side="parity")
    assert a.passed and b.passed
    assert a.patterns_checked == b.patterns_checked


def test_corrupted_entry_fails_with_witness(gen_code):
    bad = replace(gen_code, G=gen_code.G.with_entry(0, 0, 0))
    rep = verify_mr_exhaustive(bad)
    assert not rep.passed
    # a concrete coordinate-pattern witness is recorded (not just the
    # structural duality failure)
    assert any(f.pattern for f in rep.failures)
    assert "fail" in rep.to_json()


def test_report_json_is_seed_stable(gen_code):
    r1 = verify_mr_sampled(gen_code, trials=50, seed=99)
    r2 = verify_mr_sampled(gen_code, trials=50, seed=99)
    assert r1.to_json() == r2.to_json()
    assert r1.passed
    assert r1.prng["seed"] == 99
    with pytest.raises(ValueError):
        verify_mr_sampled(gen_code, trials=0, seed=1)


def test_sampled_catches_corruption(gen_code):
    bad = replace(gen_code, H=gen_code.H.with_entry(0, 0,
                                                    (gen_code.H[0, 0] + 1) % 3))
    # corrupting H breaks G H^T = 0; the rank sweep sees defects instead
    rep = verify_mr_sampled(bad, trials=200, seed=5)
    assert isinstance(rep.patterns_checked, int)


# -- decoding


def test_decode_no_erasures_roundtrip(gen_code):
    from mrlrc.constructions import encode

    cw = encode(gen_code, (1, 2, 3, 4, 5))
    assert decode_erasures(gen_code, cw) == cw


def test_decode_rejects_non_codeword(gen_code):
    from mrlrc.constructions import encode

    cw = list(encode(gen_code, (1, 2, 3, 4, 5)))
    cw[0] = (cw[0] + 1) % 27
    with pytest.raises(InvalidInput):
        decode_erasures(gen_code, cw)


def test_decode_rejects_inconsistent_kept_symbols(gen_code):
    # the erased set is decodable, but no codeword has these kept symbols
    from mrlrc.constructions import encode

    cw = list(encode(gen_code, (1, 2, 3, 4, 5)))
    cw[-1] = (cw[-1] + 1) % 27
    with pytest.raises(InvalidInput):
        decode_erasures(gen_code, [None] + cw[1:])


def test_decode_single_repair_set_erasure(gen_code):
    from mrlrc.constructions import encode

    topo = gen_code.topo
    cw = encode(gen_code, (7, 0, 3, 25, 11))
    # erase the delta-1 = 1 redundant position of one repair set
    target = sorted(topo.repair[0][0] - topo.cores[0])[:topo.delta - 1]
    word = [None if (i + 1) in target else v for i, v in enumerate(cw)]
    assert decode_erasures(gen_code, word) == cw


def test_decode_every_codeword_every_maximal_pattern(gen_code):
    from mrlrc.constructions import encode

    cw = encode(gen_code, (1, 5, 2, 0, 26))
    for pat in enumerate_maximal_patterns(gen_code.topo):
        erased = set(pat)
        word = [None if (i + 1) in erased else v for i, v in enumerate(cw)]
        assert decode_erasures(gen_code, word) == cw


def test_decode_unrecoverable_beyond_envelope(gen_code):
    from mrlrc.constructions import encode

    topo = gen_code.topo
    h = gen_code.h
    cw = encode(gen_code, (1, 1, 1, 1, 1))
    pat = next(iter(enumerate_maximal_patterns(topo)))
    # overload one already-saturated repair set with h+1 extra erasures
    sat = next(rs for rs in topo.repair[0]
               if len(set(pat) & rs) == topo.delta - 1)
    extra = [c for c in sorted(sat) if c not in pat][:h + 1]
    erased = set(pat) | set(extra)
    assert not is_mr_correctable_pattern(topo, h, erased)
    word = [None if (i + 1) in erased else v for i, v in enumerate(cw)]
    assert decode_erasures(gen_code, word) is None
    assert erasure_rank_defect(gen_code, erased) > 0


def test_decode_determinism(gen_code):
    from mrlrc.constructions import encode

    cw = encode(gen_code, (9, 9, 9, 1, 2))
    word = [None, None] + list(cw[2:])
    assert decode_erasures(gen_code, word) == decode_erasures(gen_code, word)


def decodable_patterns_agree(code, max_size=None) -> bool:
    """Exhaustively cross-check: a pattern is decodable iff it splits into
    a locally correctable part plus at most h extra erasures.

    Both inclusions are tested; the pattern sizes range over all subsets
    up to max_size (default n - k, beyond which nothing is decodable)."""
    topo = code.topo
    n = topo.n
    limit = n - code.k if max_size is None else max_size
    for size in range(0, n + 1):
        for sel in itertools.combinations(range(1, n + 1), size):
            claimed = is_mr_correctable_pattern(topo, code.h, sel)
            decodable = (size <= limit and
                         erasure_rank_defect(code, sel) == 0)
            if claimed != decodable:
                return False
    return True


def test_correctable_set_matches_decodable_set(gen_code):
    # both inclusions of the correctable-pattern characterization
    assert decodable_patterns_agree(gen_code)


# -- ell


def test_ell_exact_examples():
    f3 = field_ctx(3)
    p = MatrixF(f3, [[1, 0, 1], [0, 1, 1]])
    assert ell_exact(p, 3) == 3     # h >= n: everything qualifies
    assert ell_exact(p, 0) == 2     # h = 0: largest independent column set
    assert ell_exact(p, 1) == 3
    with pytest.raises(TooLargeToEnumerate):
        ell_exact(MatrixF.zeros(f3, 1, 21), 0)


def test_ell_exact_brute_force_agreement():
    import random

    f4 = field_ctx(2, 2)
    rnd = random.Random(12)
    for _ in range(25):
        p = MatrixF(f4, [[rnd.randrange(4) for _ in range(6)] for _ in range(3)])
        for h in (0, 1, 2):
            best = 0
            for size in range(7):
                for sel in itertools.combinations(range(1, 7), size):
                    if size - p.restrict_columns(sel).rank() <= h:
                        best = max(best, size)
            assert ell_exact(p, h) == best


def test_ell_bounds_examples():
    fig1 = make(3, 3, 2, 8, 2)
    assert ell_bounds(fig1, 16) == (48, 64)
    small = make(2, 2, 1, 2, 1)
    assert ell_bounds(small, 1) == (3, 5)


def test_ell_exact_within_bounds_pc2():
    topo = make(2, 2, 1, 2, 1)
    code = construct_pc2(topo, 1)
    le = ell_exact(code.local_parity_matrix(), 1)
    lo, hi = ell_bounds(topo, 1)
    assert lo <= le <= hi


def test_construction3_pattern_check(gen_code):
    topo = make(2, 2, 1, 2, 1)
    code = construct_pc2(topo, 1)
    assert construction3_pattern_check(code, ())
    pat = next(iter(enumerate_maximal_patterns(topo)))
    assert construction3_pattern_check(code, pat)
    # size gate: ell + 1 coordinates never qualify
    assert not construction3_pattern_check(code, tuple(range(1, code.ell + 2)))
    with pytest.raises(WrongKind):
        construction3_pattern_check(gen_code, ())


def test_construction3_check_implies_decode():
    topo = make(2, 2, 1, 2, 1)
    code = construct_pc2(topo, 1)
    n = code.n
    for size in range(code.ell + 1):
        for sel in itertools.combinations(range(1, n + 1), size):
            if construction3_pattern_check(code, sel):
                word = [None if (i + 1) in set(sel) else 0 for i in range(n)]
                assert decode_erasures(code, word) is not None


# -- lower bounds


def test_lower_bound_regime_b_example():
    # N=1, delta=2, t=1, h=2: binomial = C(r-1+0, 0) = 1, value = (g-1) - 4
    for g in (3, 5, 9):
        b = BoundInputs(r=3, delta=2, t=1, g=g, N=1, h=2)
        lb = lower_bound_field(b)
        assert lb.regime == "B"
        assert lb.value == Fraction(g - 1) - 4
        assert lb.floor == g - 5


def test_lower_bound_regime_a_example():
    b = BoundInputs(r=3, delta=2, t=1, g=4, N=1, h=4)  # a+2 = 3 <= h <= g
    lb = lower_bound_field(b)
    assert lb.regime == "A"
    assert lb.value == Fraction(1, 3) * 3 - 4 == -3
    assert lb.floor == -3 and lb.vacuous


def test_lower_bound_none_regimes():
    assert lower_bound_field(BoundInputs(2, 2, 1, 2, 1, 3)).regime == "none"  # h > g
    assert lower_bound_field(BoundInputs(2, 2, 1, 2, 1, 1)).regime == "none"  # h < 2
    assert lower_bound_field(BoundInputs(2, 2, 1, 8, 2, 0)).regime == "none"


def test_lower_bound_regime_selection_matches_inequalities():
    import random

    rnd = random.Random(77)
    for _ in range(300):
        b = BoundInputs(r=rnd.randrange(1, 6), delta=rnd.randrange(2, 5),
                        t=1, g=rnd.randrange(1, 9), N=rnd.randrange(1, 4),
                        h=rnd.randrange(0, 10))
        lb = lower_bound_field(b)
        a = b.a
        if b.h < 2 or b.h > b.g:
            assert lb.regime == "none"
        elif a + 2 <= b.h:
            assert lb.regime == "A"
        else:
            assert b.h <= a + 1
            assert lb.regime == "B"


def test_lower_bound_consistency_on_built_codes():
    for code in (construct_gen(make(2, 2, 1, 2, 2), 5),
                 construct_pc1(make(2, 2, 1, 2, 2), 2),
                 construct_pc2(make(2, 2, 1, 2, 1), 1)):
        t = code.topo
        lb = lower_bound_field(BoundInputs(r=t.r, delta=t.delta, t=t.t,
                                           g=t.g, N=t.N, h=code.h))
        if lb.regime != "none" and not lb.vacuous:
            assert code.plan.field_size >= lb.floor

"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Time limits and tolerances are pinned here; every expected value is
either exact integer arithmetic or an independently coded closed form.
"""

import itertools
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from mrlrc.ff import is_prime_power, make_tower
from mrlrc.matrix import srmat_dumps, srmat_loads
from mrlrc.constructions import (
    construct, encode, plan_field, read_bundle, split_size, write_bundle,
)
from mrlrc.simulate import SimConfig, run_simulation
from mrlrc.sumrank import SumRankPartition, lrs_generator
from mrlrc.topology import BadParams, is_mr_correctable_pattern, make_topology
from mrlrc.verify import (
    construction3_pattern_check, decode_erasures, ell_bounds,
    ell_exact, lower_bound_field, verify_mr_exhaustive, verify_mr_sampled,
)
from msrd_oracle import (
    gl_order, is_msrd, min_sum_rank_distance, msrd_mds_projection_check,
)

CONSTRUCTION1_PARAMS = [
    (2, 2, 1, 2, 2, 5),
    (2, 2, 1, 2, 1, 3),
    (2, 3, 1, 2, 1, 3),
    (3, 2, 2, 2, 2, 6),
]


@pytest.fixture(scope="module")
def c1_codes():
    return {
        params: construct(make_topology(*params[:5]), "gen", k=params[5])
        for params in CONSTRUCTION1_PARAMS
    }


@pytest.fixture(scope="module")
def c2_codes():
    topo = make_topology(2, 2, 1, 2, 2)
    return {h: construct(topo, "pc1", h=h) for h in (1, 2)}


@pytest.fixture(scope="module")
def c3_code():
    return construct(make_topology(2, 2, 1, 2, 1), "pc2", h=1)


def report_line(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_construction1_exhaustive_mr(c1_codes):
    for params, code in c1_codes.items():
        start = time.monotonic()
        rep = verify_mr_exhaustive(code)
        assert rep.passed, (params, rep.failures[:1])
        # mutation oracle: every single-entry corruption of G is caught
        g_mat = code.G
        for i in range(g_mat.rows):
            for j in range(g_mat.cols):
                new = 0 if g_mat[i, j] else 1
                bad = replace(code, G=g_mat.with_entry(i, j, new))
                bad_rep = verify_mr_exhaustive(bad)
                assert not bad_rep.passed, (params, i, j)
                assert any(f.pattern for f in bad_rep.failures), (params, i, j)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, (params, elapsed)
    report_line(1, "construction 1 exhaustive MR + mutation catches, "
                   f"{len(c1_codes)} parameter sets, all < 60 s")


def test_criterion_2_construction2_mr_and_decoding(c2_codes):
    start = time.monotonic()
    for h, code in c2_codes.items():
        assert code.tower.top.order == 3 ** (h * code.topo.N)
        rep = verify_mr_exhaustive(code)
        assert rep.passed, (h, rep.failures[:1])
        topo = code.topo
        n = topo.n
        message = tuple((5 * i + 3) % code.tower.top.order
                        for i in range(code.k))
        word_full = encode(code, message)
        non_correctable_seen = False
        for size in range(n + 1):
            for sel in itertools.combinations(range(1, n + 1), size):
                erased = set(sel)
                word = [None if (i + 1) in erased else v
                        for i, v in enumerate(word_full)]
                got = decode_erasures(code, word)
                if is_mr_correctable_pattern(topo, code.h, sel):
                    assert got == word_full, (h, sel)
                else:
                    assert got is None, (h, sel)
                    non_correctable_seen = True
        assert non_correctable_seen
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report_line(2, "construction 2 (h in {1,2}) exhaustive MR over GF(3^hN); "
                   "decoder matches the correctable-pattern envelope on all "
                   f"2^10 subsets, {elapsed:.1f} s")


def test_criterion_3_construction3_thm_condition_decodes(c3_code):
    start = time.monotonic()
    code = c3_code
    assert code.tower.top.order == 3 ** 5
    assert verify_mr_exhaustive(code).passed
    n = code.n
    message = tuple((7 * i + 1) % code.tower.top.order for i in range(code.k))
    word_full = encode(code, message)
    qualifying = 0
    for size in range(code.ell + 1):
        for sel in itertools.combinations(range(1, n + 1), size):
            if construction3_pattern_check(code, sel):
                qualifying += 1
                word = [None if (i + 1) in set(sel) else v
                        for i, v in enumerate(word_full)]
                assert decode_erasures(code, word) == word_full, sel
    assert qualifying > 0
    le = ell_exact(code.local_parity_matrix(), code.h)
    lo, hi = ell_bounds(code.topo, code.h)
    assert (lo, hi) == (3, 5)
    assert lo <= le <= hi
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report_line(3, f"construction 3 over GF(3^5): {qualifying} patterns "
                   f"satisfying the rank-defect condition all decode; "
                   f"ell_exact = {le} in [3, 5], {elapsed:.1f} s")


def test_criterion_4_msrd_suite():
    start = time.monotonic()
    distance_cases = projection_cases = 0
    for q in (3, 4):
        p, s = is_prime_power(q)
        for g in range(1, q):
            for r in range(1, 4):
                for m in range(r, 4):
                    tower = make_tower(p, s, m)
                    part = SumRankPartition(tower, g, r)
                    for k in range(1, g * r + 1):
                        if (q ** m) ** k > 10 ** 6:
                            continue
                        code = lrs_generator(part, k)
                        d = min_sum_rank_distance(code, part)
                        assert d == part.n - k + 1, (q, g, r, m, k, d)
                        distance_cases += 1
                        if gl_order(q, r) ** g <= 10 ** 4:
                            proj = msrd_mds_projection_check(code, part,
                                                             cap=10 ** 4)
                            assert proj == is_msrd(code, part) == True  # noqa: E712
                            projection_cases += 1
    assert distance_cases >= 60
    report_line(4, f"{distance_cases} linearized RS codes attain d = n-k+1; "
                   f"{projection_cases} exhaustive projection checks agree, "
                   f"{time.monotonic() - start:.1f} s")


def test_criterion_5_arithmetic_reproduction():
    topo = make_topology(3, 3, 2, 8, 2, mode="availability")
    k = topo.g * topo.t
    assert topo.n == 64
    assert k == 16
    _, h = split_size(topo, k=k)
    assert k + h == 32
    local_parities = topo.local_parity_count()
    assert local_parities == 32
    baseline = k * topo.N * (topo.delta - 1)
    assert baseline == 64
    report_line(5, "availability layout: n=64, k=gt=16, k+h=32, "
                   "32 local parities vs 64 baseline — exact")


def _random_admissible_tuple(rnd):
    while True:
        r = rnd.randrange(1, 6)
        delta = rnd.randrange(2, 6)
        t = rnd.randrange(1, min(delta - 1, r) + 1)
        g = rnd.randrange(1, 7)
        n_avail = rnd.randrange(1, 4)
        topo = make_topology(r, delta, t, g, n_avail)
        hmax = min(r, topo.max_dimension())
        if hmax < 1:
            continue
        h = rnd.randrange(1, hmax + 1)
        return topo, h


def test_criterion_6_table1_planner_closed_forms():
    rnd = random.Random(2024)
    checked = 0
    while checked < 20:
        topo, h = _random_admissible_tuple(rnd)
        r, delta, t, g, N = topo.r, topo.delta, topo.t, topo.g, topo.N
        k = topo.max_dimension() - h
        base = max(g + 1, r + delta - 1)
        expect_gen = base ** (t + N * (r - t))
        expect_pc1 = base ** (h * N)
        expect_pc2 = (topo.n // g - 1) ** (g * (N * (delta - 1) + t) + h)
        assert plan_field(topo, "gen", k=k).bound_value == expect_gen
        assert plan_field(topo, "pc1", h=h).bound_value == expect_pc1
        assert plan_field(topo, "pc2", h=h).bound_value == expect_pc2
        # where the bound is realizable, the built tower matches it exactly
        for kind, expect in (("gen", expect_gen), ("pc1", expect_pc1),
                             ("pc2", expect_pc2)):
            plan = plan_field(topo, kind, h=h)
            if plan.exact:
                assert plan.field_size == expect
            else:
                assert plan.field_size >= expect
        checked += 1
    report_line(6, f"planner bound values equal the closed forms on "
                   f"{checked} random admissible tuples — exact")


def test_criterion_7_lower_bound_consistency(c1_codes, c2_codes, c3_code):
    bundles = list(c1_codes.values()) + list(c2_codes.values()) + [c3_code]
    vacuous = 0
    for code in bundles:
        lb = lower_bound_field(code.topo, code.h)
        if lb.regime == "none":
            continue
        if lb.vacuous:
            vacuous += 1
        assert code.plan.field_size >= lb.floor, (code.kind, lb)
    rnd = random.Random(7)
    invalid = 0
    for _ in range(50):
        r, delta, t, g, n_avail, h = (
            rnd.randrange(1, 7), rnd.randrange(2, 6), rnd.randrange(1, 4),
            rnd.randrange(1, 10), rnd.randrange(1, 4), rnd.randrange(0, 12))
        if t > r:
            # a tuple that describes no code has no bound to evaluate
            with pytest.raises(BadParams, match="t <= r"):
                make_topology(r, delta, t, g, n_avail)
            invalid += 1
            continue
        lb = lower_bound_field(make_topology(r, delta, t, g, n_avail), h)
        a = n_avail * (delta - 1)
        if h < 2 or h > g:
            assert lb.regime == "none"
        elif a + 2 <= h <= g:
            assert lb.regime == "A"
        else:
            assert h <= min(a + 1, g)
            assert lb.regime == "B"
    report_line(7, f"every built bundle satisfies its lower bound "
                   f"({vacuous} vacuous, flagged); regime selection matches "
                   f"the inequalities on {50 - invalid} random tuples, and "
                   f"{invalid} with t > r are refused")


def test_criterion_8_determinism(c1_codes, tmp_path):
    code = c1_codes[(2, 2, 1, 2, 2, 5)]
    params = (2, 2, 1, 2, 2, 5)
    rebuilt = construct(make_topology(*params[:5]), "gen", k=params[5])
    p1 = write_bundle(code, tmp_path / "one")
    p2 = write_bundle(rebuilt, tmp_path / "two")
    for suffix in (".json", ".G.srmat", ".H.srmat"):
        b1 = Path(str(p1)[:-5] + suffix).read_bytes()
        b2 = Path(str(p2)[:-5] + suffix).read_bytes()
        assert b1 == b2, suffix
    # MRLRC round trip is lossless
    loaded = read_bundle(p1)
    assert loaded.G == code.G and loaded.H == code.H
    p3 = write_bundle(loaded, tmp_path / "three")
    assert Path(p3).read_bytes() == Path(p1).read_bytes()
    # SRMAT round trip is bit-exact
    text = srmat_dumps(code.G)
    assert srmat_dumps(srmat_loads(text)) == text
    # seeded reports and simulator outputs are byte-identical
    rep1 = verify_mr_sampled(code, trials=100, seed=11).to_json()
    rep2 = verify_mr_sampled(loaded, trials=100, seed=11).to_json()
    assert rep1 == rep2
    cfg = SimConfig(trials=300, model="adversarial_maximal", seed=5)
    sim1 = run_simulation(code, cfg).to_json()
    sim2 = run_simulation(loaded, cfg).to_json()
    assert sim1 == sim2
    json.loads(rep1), json.loads(sim1)  # both are valid JSON documents
    report_line(8, "bundles, reports and simulator outputs byte-identical "
                   "across runs; SRMAT and MRLRC round-trip losslessly")


def test_criterion_9_simulator_envelope(c1_codes):
    start = time.monotonic()
    for params, code in c1_codes.items():
        adv = run_simulation(code, SimConfig(
            trials=10_000, model="adversarial_maximal", seed=123))
        assert adv.data_loss == 0, params
        assert adv.local_repair + adv.global_repair == 10_000
        single = run_simulation(code, SimConfig(
            trials=10_000, model="uniform_nodes", seed=321, failures=1))
        assert single.local_repair == 10_000, params
        assert single.data_loss == 0
        assert single.max_trial_reads <= code.topo.r, params
    report_line(9, "4 bundles x 10^4 adversarial trials: zero data loss; "
                   f"single failures repair with <= r reads, "
                   f"{time.monotonic() - start:.1f} s")

"""MR verification sweeps, erasure decoding, ell computations, lower bounds."""

import functools
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlrc.matrix import MatrixF
from mrlrc import simulate, topology, verify
from mrlrc.constructions import construct, encode, plan_field, premise_violations
from mrlrc.simulate import SimConfig, run_simulation
from mrlrc.ff import LOG_TABLE_LIMIT, DegreeOverflow, field_ctx
from mrlrc.topology import (
    EnumerationCapExceeded, enumerate_maximal_patterns, is_mr_correctable_pattern, make_topology,
)
from mrlrc.verify import (
    InvalidInput, MrFailure, MrReport, WrongKind, _bound_row, code_id, construction3_pattern_check,
    decode_erasures, ell_bounds, ell_exact, erasure_rank_defect,
    lower_bound_field, verify_mr_exhaustive, verify_mr_sampled,
)
from test_byte_stability import GENERIC_CODES, bvs, mutants


@pytest.fixture(scope="module")
def gen_code():
    return construct(make_topology(2, 2, 1, 2, 2), "gen", k=5)


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


# -- the exhaustive routes against the subset-by-subset sweep


def oracle_report(code, side: str) -> str:
    """The exhaustive report as a sweep that ranks every column subset of
    every pattern from scratch: premise violations, then per pattern the
    first subset, in combinations order, that fails its own rank (k-subsets
    S of the complement with rank(G|_S) < k, or h-subsets F of the
    complement with rank(H|_(pattern u F)) < |pattern| + h).  A column
    set that several patterns share is ranked once."""
    failures = [MrFailure(pat, detail) for pat, detail in premise_violations(code)]
    rank = functools.lru_cache(maxsize=None)(
        code.G.rank if side == "generator" else code.H.rank)
    checked = 0
    for pat in enumerate_maximal_patterns(code.topo):
        checked += 1
        comp = sorted(set(range(1, code.n + 1)) - set(pat))
        if side == "generator":
            found = next((sel for sel in itertools.combinations(comp, code.k)
                          if rank(sel) < code.k), None)
            detail = "singular minor on surviving columns"
        else:
            need = len(pat) + code.h
            found = next((sel for sel in itertools.combinations(comp, code.h)
                          if rank(tuple(sorted(pat + sel))) < need), None)
            detail = "rank defect after adding erasures"
        if found is not None:
            failures.append(MrFailure(pat, f"{detail} {list(found)}"))
    return MrReport(code_id=code_id(code), mode="exhaustive",
                    patterns_checked=checked, failures=failures,
                    bound_values=_bound_row(code)).to_json()


# the reference codes, the n=9 pc2 code of the benchmark and a code with
# no heavy parities (h = 0)
ORACLE_CODES = tuple(bvs.REFERENCE_CODES) + (
    ("pc2", (2, 2, 1, 3, 1), {"h": 1}),
    ("gen", (2, 2, 1, 2, 2), {"k": 6}),
)


def key_class_mutants(m: MatrixF):
    """Copies of m with a later column j2 set, against an earlier column j,
    to each column class the keyed pass tells apart: zero, equal to column
    j, lam times column j, and zero in every row but the last, whose
    residual keeps a zero first row while the last row is not a pivot."""
    ctx, cols = m.ctx, list(zip(*m.data))
    lam = ctx.primitive
    assert lam != 1
    for j, j2 in ((0, m.cols - 1), (m.cols // 2 - 1, m.cols // 2), (m.cols - 2, m.cols - 1)):
        for col in ((0,) * m.rows, cols[j], tuple(ctx.mul(lam, v) for v in cols[j]),
                    (0,) * (m.rows - 1) + (cols[j2][-1] or 1,)):
            yield MatrixF(ctx, [row[:j2] + (v,) + row[j2 + 1:]
                                for row, v in zip(m.data, col)])


# codes whose walks start at a two-row root (k = 2 or n - k = 2), where
# the walk keys its first pick's pair with pair_masks, and at a three-row
# root (k = 3 or n - k = 3), where the root itself runs the field's
# child_keys: over GF(2^6) and GF(2^4), where child_keys reads the log
# tables, over GF(3^3), where it reads the Zech table, and over GF(5^7),
# where it runs the generic elimination
ENTRY_CODES = (("gen", (3, 2, 1, 1, 1), {"k": 2}),   # both routes two-row
               ("gen", (2, 1, 1, 3, 1), {"k": 3}),   # both routes three-row
               ("gen", (2, 2, 1, 1, 2), {"k": 2}),   # G two-row, H three-row
               ("gen", (2, 2, 1, 1, 2), {"k": 3}),   # G three-row, H two-row
               ("gen", (4, 2, 1, 1, 2), {"k": 2}),
               ("gen", (4, 2, 1, 1, 2), {"k": 3}))

# ORACLE_CODES, ENTRY_CODES and two codes whose top field has no log
# tables, so the witness walks key their two-row nodes through the generic
# inv: n = 9 and h = 2 over GF(5^7), where both routes reach a two-row
# node, and h = 1 over GF(2^20)
SWEEP_ORACLE_CODES = ORACLE_CODES + ENTRY_CODES + (("gen", (4, 2, 1, 1, 2), {"k": 5}),
                                                   ("pc2", (1, 2, 1, 3, 2), {"h": 1}))


@pytest.mark.parametrize("spec", SWEEP_ORACLE_CODES,
                         ids=[f"{k}{p}{a}" for k, p, a in SWEEP_ORACLE_CODES])
def test_exhaustive_routes_match_subset_sweep_oracle(spec):
    # the key-class mutants send zero, equal and proportional column pairs
    # through the witness walks' keyed two-row nodes on G's complements
    # and on H's projections, and a zeroed H column inside a pattern through
    # the parity witness loop's rank-deficient branch
    code = bvs.build(*spec)
    for copy in (code, *mutants(code),
                 *(replace(code, G=g_mat) for g_mat in key_class_mutants(code.G)),
                 *(replace(code, H=h_mat) for h_mat in key_class_mutants(code.H))):
        for side in ("generator", "parity"):
            assert (verify_mr_exhaustive(copy, side=side).to_json()
                    == oracle_report(copy, side)), side


def test_entry_codes_start_at_two_and_three_rows():
    # ENTRY_CODES cover each root row count on each route and each of
    # child_keys' branches: log tables for p = 2, Zech tables for odd p,
    # and generic arithmetic
    roots = set()
    for spec in ENTRY_CODES:
        code = bvs.build(*spec)
        ctx = code.G.ctx
        branch = "generic" if ctx.order > LOG_TABLE_LIMIT else "p2" if ctx.p == 2 else "odd"
        roots |= {(branch, "G", code.k), (branch, "H", code.n - code.k)}
    assert {(b, m, r) for b in ("p2", "odd", "generic") for m in "GH" for r in (2, 3)
            if (b, m) != ("generic", "H")} <= roots, roots


def _gen_field_fits(topo) -> bool:
    """Whether the gen field of the topology is at most ff.ORDER_LIMIT."""
    try:
        plan_field(topo, "gen", k=0)
    except DegreeOverflow:
        return False
    return True


# every gen topology (r, delta, t, g, N) with n <= 12, N and delta at most 3
# and t at most min(r, delta - 1), or t = 1 when delta = 1, whose field can
# be built (two have gen fields past ff.ORDER_LIMIT)
SMALL_GEN_TOPOLOGIES = tuple(
    (r, delta, t, g, N) for N in range(1, 4) for delta in range(1, 4)
    for t in range(1, max(1, delta - 1) + 1) for r in range(t, 13) for g in range(1, 13)
    if g * (t + N * (r + delta - 1 - t)) <= 12
    and _gen_field_fits(make_topology(r, delta, t, g, N)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_exhaustive_routes_match_oracle_on_small_gen_topologies(data):
    # topologies outside ORACLE_CODES, through both folded walks and both
    # witness loops: one single-entry G mutant fails the generator route
    # and leaves the parity route passing, one H mutant the other way round
    params = data.draw(st.sampled_from(SMALL_GEN_TOPOLOGIES), label="(r, delta, t, g, N)")
    topo = make_topology(*params)
    code = construct(topo, "gen", k=data.draw(st.integers(0, topo.max_dimension()), label="k"))
    ctx = code.G.ctx
    for which in ("G", "H"):
        m = getattr(code, which)
        if not m.rows:
            continue
        i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
        step = data.draw(st.integers(1, ctx.order - 1), label=f"{which}[{i}, {j}] += ")
        copy = replace(code, **{which: m.with_entry(i, j, ctx.add(m[i, j], step))})
        for side in ("generator", "parity"):
            assert verify_mr_exhaustive(copy, side=side).to_json() == oracle_report(copy, side)


def test_h0_code_routes():
    code = bvs.build("gen", (2, 2, 1, 2, 2), {"k": 6})
    assert code.h == 0
    for side in ("generator", "parity"):
        assert verify_mr_exhaustive(code, side=side).passed
    # a zero column of H makes H|_E singular on every pattern through it;
    # with h = 0 the witness is the empty subset
    bad = replace(code, H=MatrixF(code.H.ctx, [(0,) + r[1:] for r in code.H.data]))
    rep = verify_mr_exhaustive(bad, side="parity")
    sweep = [f for f in rep.failures if f.detail.startswith("rank defect")]
    assert sweep and all(f.detail.endswith("[]") and 1 in f.pattern for f in sweep)
    assert rep.to_json() == oracle_report(bad, "parity")


def test_parity_route_rank_deficient_on_pattern():
    # a zero column of H inside a pattern: H|_E is rank-deficient there, so
    # every h-subset fails and the witness is the first h complement
    # coordinates
    code = bvs.build("pc1", (2, 2, 1, 2, 2), {"h": 2})
    pats = list(enumerate_maximal_patterns(code.topo))
    col = pats[0][0]
    bad = replace(code, H=MatrixF(code.H.ctx, [
        r[:col - 1] + (0,) + r[col:] for r in code.H.data]))
    rep = verify_mr_exhaustive(bad, side="parity")
    swept = {f.pattern: f.detail for f in rep.failures
             if f.detail.startswith("rank defect")}
    hit = [p for p in pats if col in p]
    assert set(hit) <= set(swept)
    for p in hit:
        comp = sorted(set(range(1, code.n + 1)) - set(p))
        assert swept[p] == f"rank defect after adding erasures {comp[:code.h]}"
    assert rep.to_json() == oracle_report(bad, "parity")


def test_parity_route_group_prefixes_match_oracle():
    # the parity route eliminates H on each failing pattern's columns, in
    # increasing order across the groups (g = 3 here): single-entry H
    # mutants changing a column of the first, middle and last group, and a
    # zeroed first-group column, which leaves H|_pat deficient on every
    # pattern holding it.  On this code no single-entry change short of
    # zeroing a column makes any H|_pat deficient, so the flips fail in the
    # projection
    code = bvs.build("gen", (2, 2, 1, 3, 2), {"k": 7})
    pats = list(enumerate_maximal_patterns(code.topo))
    flip = lambda i, j: code.H.with_entry(i, j, 0 if code.H[i, j] else 1)
    zeroed = pats[0][0]
    muts = {name: replace(code, H=h_mat) for name, h_mat in {
        "first": flip(0, 0),
        "middle": flip(6, 6),
        "last": flip(4, 10),
        "zero column": MatrixF(code.H.ctx, [
            r[:zeroed - 1] + (0,) + r[zeroed:] for r in code.H.data]),
    }.items()}
    group = {"first": 0, "middle": 1, "last": 2, "zero column": 0}
    for name, m in muts.items():
        col = next(j + 1 for j in range(code.n)
                   if m.H.column(j) != code.H.column(j))
        assert (col - 1) // code.topo.group_width == group[name]
        deficient = [p for p in pats if m.H.rank(p) < len(p)]
        assert deficient == ([p for p in pats if col in p]
                             if name == "zero column" else [])
        rep = verify_mr_exhaustive(m, side="parity")
        swept = len(rep.failures) - len(premise_violations(m))
        # the projection fails too, and the flips leave some patterns passing
        assert swept > len(deficient), name
        assert swept < len(pats) or name == "zero column", name
        assert rep.to_json() == oracle_report(m, "parity"), name


def test_both_routes_check_the_pattern_cap_first(gen_code, monkeypatch):
    # the parity walk refuses an over-cap code before eliminating anything
    monkeypatch.setattr(topology, "DEFAULT_PATTERN_CAP", 10)

    def no_elimination(*args, **kwargs):
        raise AssertionError("reduce_rows called before the cap check")

    monkeypatch.setattr(verify, "reduce_rows", no_elimination)
    messages = set()
    for side in ("generator", "parity"):
        with pytest.raises(EnumerationCapExceeded) as exc:
            verify_mr_exhaustive(gen_code, side=side)
        messages.add(str(exc.value))
    assert messages == {"64 maximal patterns exceed the cap 10"}


def test_generator_route_rank_deficient_on_complement():
    # zeroing h + 1 columns of G in the complement of one pattern leaves
    # G of rank below k there: the first k complement coordinates fail
    code = bvs.build("gen", (3, 2, 2, 2, 2), {"k": 6})
    pat = next(iter(enumerate_maximal_patterns(code.topo)))
    comp = sorted(set(range(1, code.n + 1)) - set(pat))
    zeroed = set(comp[:code.h + 1])
    bad = replace(code, G=MatrixF(code.G.ctx, [
        [0 if j + 1 in zeroed else v for j, v in enumerate(r)]
        for r in code.G.data]))
    assert bad.G.rank(comp) < code.k
    rep = verify_mr_exhaustive(bad, side="generator")
    assert MrFailure(pat, f"singular minor on surviving columns {comp[:code.k]}") \
        in rep.failures
    assert rep.to_json() == oracle_report(bad, "generator")


# -- the generator walk against a scan of the coverable k-subsets


def coverable_subsets(code) -> list:
    """The k-subsets of [n], in combinations order, that lie in some
    maximal pattern's complement."""
    comps = [frozenset(range(1, code.n + 1)) - frozenset(pat)
             for pat in enumerate_maximal_patterns(code.topo)]
    return [sel for sel in itertools.combinations(range(1, code.n + 1), code.k)
            if any(comp.issuperset(sel) for comp in comps)]


def walk_verdict(subsets, dependent):
    """What a walk over subsets returns: how many there are when dependent
    holds on none of them, else None."""
    return None if any(dependent(sel) for sel in subsets) else len(subsets)


def coverable_walk(code, g_mat=None):
    """The generator route's one walk over the coverable k-subsets:
    (leaves, None) when it passes, (None, record) when it fails."""
    topo = code.topo
    return verify._coverable_leaves(code.G if g_mat is None else g_mat, code.k,
                                    topo.group_width, topology.capped_group_sets(topo))


# the coverable k-subsets of the reference codes, in bvs.REFERENCE_CODES order
REFERENCE_LEAVES = (160, 48, 760, 180, 18)


def test_generator_walk_visits_every_coverable_subset_once():
    for spec, leaves in zip(bvs.REFERENCE_CODES, REFERENCE_LEAVES):
        assert len(coverable_subsets(bvs.build(*spec))) == leaves, spec
    # k = 1 and n - k = 1: the walks count leaves one column at a time;
    # SWEEP_ORACLE_CODES start walks at two- and three-row roots over every
    # branch of the field's child_keys
    for spec in SWEEP_ORACLE_CODES + (("gen", (2, 2, 1, 2, 2), {"k": 0}),
                                      ("pc2", (2, 2, 1, 2, 1), {"k": 0}),
                                      ("gen", (2, 2, 1, 2, 2), {"k": 1}),
                                      ("gen", (2, 1, 1, 2, 2), {"k": 5})):
        code = bvs.build(*spec)
        subsets = coverable_subsets(code)
        assert all(code.G.rank(sel) == code.k for sel in subsets), spec
        assert coverable_walk(code) == (len(subsets), None), spec
    # k = 0: the empty subset is the one leaf, and it is independent
    assert coverable_walk(bvs.build("gen", (2, 2, 1, 2, 2), {"k": 0})) == (1, None)
    # h = 0: every coverable k-subset is a whole pattern complement
    h0 = bvs.build("gen", (2, 2, 1, 2, 2), {"k": 6})
    assert coverable_walk(h0) == (topology.count_maximal_patterns(h0.topo), None)


def singular_entry(g_mat, sel, rnd):
    """(i, j, value): an entry of G whose change makes G|_sel singular, or
    None.  det(G|_sel) is affine in any one entry; this one solves for the
    root at a random entry whose cofactor is nonzero."""
    ctx = g_mat.ctx
    sub = g_mat.restrict_columns(sel)
    i, jj = rnd.randrange(sub.rows), rnd.randrange(sub.cols)
    d0, d1 = sub.with_entry(i, jj, 0).det(), sub.with_entry(i, jj, 1).det()
    cof = ctx.add(d1, ctx.neg(d0))
    if not cof:
        return None
    return i, sel[jj] - 1, ctx.mul(ctx.neg(d0), ctx.inv(cof))


def test_generator_walk_on_mutants_matches_coverable_scan():
    # 52 one-entry G mutants per code, 364 in all: half change a random
    # entry to a random value, half make a random coverable k-subset
    # singular.  A family that is too narrow passes a mutant the scan
    # fails; one that is too wide fails on a subset that no pattern's
    # complement holds
    rnd = random.Random(19)
    outcomes = {True: 0, False: 0}
    for spec in ORACLE_CODES:
        code = bvs.build(*spec)
        order = code.G.ctx.order
        coverable = coverable_subsets(code)
        made = 0
        while made < 52:
            if made % 2:
                entry = singular_entry(code.G, rnd.choice(coverable), rnd)
            else:
                i, j = rnd.randrange(code.k), rnd.randrange(code.n)
                entry = i, j, rnd.randrange(order)
            if entry is None or code.G[entry[0], entry[1]] == entry[2]:
                continue
            made += 1
            g_mat = code.G.with_entry(*entry)
            leaves = coverable_walk(code, g_mat)[0]
            assert leaves == walk_verdict(
                coverable, lambda sel: g_mat.rank(sel) < code.k), (spec, entry)
            outcomes[leaves is not None] += 1
    assert outcomes[True] + outcomes[False] == 52 * len(ORACLE_CODES)
    assert min(outcomes.values()) >= 100, outcomes


def other_matrix(m: MatrixF, rnd) -> MatrixF:
    """A random matrix of m's shape over m's field."""
    return MatrixF(m.ctx, [[rnd.randrange(m.ctx.order) for _ in range(m.cols)]
                           for _ in range(m.rows)], cols=m.cols)


def test_each_route_reads_only_its_own_matrix():
    # the generator sweep is unchanged when H is swapped for a random
    # matrix of its shape, and the parity sweep when G is, on every code
    # and its mutants, failing ones included
    rnd = random.Random(23)
    failing = {"generator": 0, "parity": 0}
    for spec in ORACLE_CODES:
        code = bvs.build(*spec)
        for copy in (code, *mutants(code)):
            got = list(verify._generator_sweep(copy))
            assert got == list(verify._generator_sweep(
                replace(copy, H=other_matrix(copy.H, rnd)))), spec
            failing["generator"] += bool(got)
            got = list(verify._parity_sweep(copy))
            assert got == list(verify._parity_sweep(
                replace(copy, G=other_matrix(copy.G, rnd)))), spec
            failing["parity"] += bool(got)
    assert min(failing.values()) >= len(ORACLE_CODES), failing


def test_generator_route_uses_neither_parity_mechanism(monkeypatch):
    # the routes share elim's family walk and elimination; this pins
    # what stays the generator route's own: its avoid rule, never the
    # parity route's contain rule, and its failure path, which neither
    # eliminates H on a pattern nor runs the parity sweep
    def parity_only(*args, **kwargs):
        raise AssertionError("generator route used a parity-route mechanism")

    monkeypatch.setattr(verify, "_parity_sweep", parity_only)
    monkeypatch.setattr(verify, "_containing_leaves", parity_only)
    monkeypatch.setattr(verify, "reduce_rows", parity_only)
    code = bvs.build("gen", (3, 2, 2, 2, 2), {"k": 6})
    assert verify_mr_exhaustive(code, side="generator").passed
    for m in mutants(code):
        verify_mr_exhaustive(m, side="generator")


def test_passing_generator_sweep_enumerates_no_pattern(monkeypatch):
    # the coverable walk settles a passing code on its own, and the report
    # still counts every pattern, by the closed form
    def no_enumeration(topo):
        raise AssertionError("a passing generator sweep enumerated patterns")

    monkeypatch.setattr(verify, "enumerate_maximal_patterns", no_enumeration)
    for spec in ORACLE_CODES:
        code = bvs.build(*spec)
        rep = verify_mr_exhaustive(code, side="generator")
        assert rep.passed, spec
        assert rep.patterns_checked == topology.count_maximal_patterns(code.topo), spec


# -- the parity walk against a scan of the sets that contain a pattern


def containing_sets(code) -> list:
    """The (|pattern| + h)-subsets of [n], in combinations order, that
    contain some maximal pattern."""
    pats = [frozenset(pat) for pat in enumerate_maximal_patterns(code.topo)]
    size = code.topo.local_parity_count() + code.h
    return [sel for sel in itertools.combinations(range(1, code.n + 1), size)
            if any(pat.issubset(sel) for pat in pats)]


def superset_walk(code, h_mat=None):
    """The parity route's one walk over the sets that contain a pattern:
    (leaves, None) when it passes, (None, record) when it fails."""
    topo = code.topo
    return verify._containing_leaves(
        code.H if h_mat is None else h_mat, topo.local_parity_count() + code.h,
        topo.group_width, topology.capped_group_sets(topo))


def test_parity_walk_visits_every_containing_set_once():
    # the complement of a set that contains a pattern is a coverable
    # k-subset, so the two walks of a passing code have as many leaves;
    # with delta = 1 the patterns are empty and a group may be skipped,
    # and with h = 0 as well the empty set is the one leaf; k = 1 and
    # n - k = 1 count leaves one column at a time; SWEEP_ORACLE_CODES as
    # in the generator walk's test
    for spec in SWEEP_ORACLE_CODES + (("gen", (2, 2, 1, 2, 2), {"k": 0}),
                                      ("pc2", (2, 2, 1, 2, 1), {"k": 0}),
                                      ("gen", (2, 1, 1, 2, 2), {"k": 3}),
                                      ("gen", (2, 1, 1, 2, 2), {"k": 6}),
                                      ("gen", (2, 2, 1, 2, 2), {"k": 1}),
                                      ("gen", (2, 1, 1, 2, 2), {"k": 5})):
        code = bvs.build(*spec)
        subsets = containing_sets(code)
        assert all(code.H.rank(sel) == len(sel) for sel in subsets), spec
        assert superset_walk(code) == (len(subsets), None), spec
        assert coverable_walk(code) == (len(subsets), None), spec
    # k = 0: all n columns are the one leaf
    assert superset_walk(bvs.build("gen", (2, 2, 1, 2, 2), {"k": 0})) == (1, None)
    # h = 0: the leaves are the patterns themselves
    h0 = bvs.build("gen", (2, 2, 1, 2, 2), {"k": 6})
    assert superset_walk(h0) == (topology.count_maximal_patterns(h0.topo), None)


def test_parity_walk_verdict_matches_witness_loop(monkeypatch):
    # the per-pattern witness loop, run on its own by making the walk
    # report a dependent set, is the oracle: on each code, its mutants, 40
    # random one-entry H mutants and a zeroed H column, the walk finds a
    # dependent set iff the witness loop names a failing pattern and a
    # scan of the containing sets finds one, and counts them all otherwise
    rnd = random.Random(21)
    outcomes = {True: 0, False: 0}
    for spec in ORACLE_CODES:
        code = bvs.build(*spec)
        order = code.H.ctx.order
        subsets = containing_sets(code)
        zeroed = subsets[0][0]
        copies = [code, *mutants(code), replace(code, H=MatrixF(code.H.ctx, [
            r[:zeroed - 1] + (0,) + r[zeroed:] for r in code.H.data]))]
        made = 0
        while made < 40:
            i, j, v = rnd.randrange(code.H.rows), rnd.randrange(code.n), rnd.randrange(order)
            if code.H[i, j] != v:
                made += 1
                copies.append(replace(code, H=code.H.with_entry(i, j, v)))
        for copy in copies:
            leaves = superset_walk(code, copy.H)[0]
            assert leaves == walk_verdict(
                subsets, lambda sel: copy.H.rank(sel) < len(sel)), spec
            with monkeypatch.context() as m:
                m.setattr(verify, "_containing_leaves", lambda *args: (None, ()))
                assert (leaves is None) == bool(list(verify._parity_sweep(copy))), spec
            outcomes[leaves is not None] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_parity_route_uses_no_generator_mechanism(monkeypatch):
    # the routes share elim's family walk and elimination; this pins
    # what stays the parity route's own: its contain rule, never the
    # generator route's avoid rule, and its failure path, which never runs
    # the generator sweep
    def generator_only(*args, **kwargs):
        raise AssertionError("parity route used a generator-route mechanism")

    monkeypatch.setattr(verify, "_coverable_leaves", generator_only)
    monkeypatch.setattr(verify, "_generator_sweep", generator_only)
    code = bvs.build("gen", (3, 2, 2, 2, 2), {"k": 6})
    assert verify_mr_exhaustive(code, side="parity").passed
    for m in mutants(code):
        verify_mr_exhaustive(m, side="parity")


def test_passing_parity_sweep_enumerates_no_pattern(monkeypatch):
    # the walk over the sets that contain a pattern settles a passing code
    # on its own: no pattern is enumerated or eliminated, no projection is
    # checked, and the report still counts every pattern, by the closed form
    def no_pattern(*args, **kwargs):
        raise AssertionError("a passing parity sweep enumerated or eliminated a pattern")

    monkeypatch.setattr(verify, "reduce_rows", no_pattern)
    monkeypatch.setattr(verify, "subset_walk", no_pattern)
    monkeypatch.setattr(verify, "enumerate_maximal_patterns", no_pattern)
    for spec in ORACLE_CODES:
        code = bvs.build(*spec)
        rep = verify_mr_exhaustive(code, side="parity")
        assert rep.passed, spec
        assert rep.patterns_checked == topology.count_maximal_patterns(code.topo), spec


# -- the keyed pass over each walk's last two columns


# ORACLE_CODES, a k = 2 code and two n - k = 2 codes: with two rows at the
# root, the walks run the keyed pass on their first pick.  The second n - k
# = 2 code has delta = 1 and three groups, so a parity set may skip a group
KEYED_CODES = ORACLE_CODES + (("gen", (2, 2, 1, 2, 2), {"k": 2}),
                              ("gen", (2, 2, 1, 2, 1), {"k": 4}),
                              ("gen", (2, 1, 1, 3, 1), {"k": 4}))


@pytest.mark.parametrize("spec", KEYED_CODES,
                         ids=[f"{k}{p}{a}" for k, p, a in KEYED_CODES])
def test_keyed_pass_matches_brute_force_scans(spec):
    # each walk's answer equals a subset-by-subset scan on G and H mutants
    # whose columns fall in every key class: a zero column matches every
    # column, equal and proportional columns share a key, and a zero first
    # row takes the key of its own.  A passing walk counts every subset; a
    # failing one names a dependent record that is a prefix of the first
    # dependent subset in combinations order
    code = bvs.build(*spec)
    outcomes = {True: 0, False: 0}
    for walk, mats, subsets in ((coverable_walk, key_class_mutants(code.G),
                                 coverable_subsets(code)),
                                (superset_walk, key_class_mutants(code.H),
                                 containing_sets(code))):
        for mat in mats:
            leaves, record = walk(code, mat)
            first = next((sel for sel in subsets if mat.rank(sel) < len(sel)), None)
            if first is None:
                assert (leaves, record) == (len(subsets), None), spec
            else:
                named = tuple(c + 1 for c in record)
                assert leaves is None and first[:len(named)] == named, (spec, first, named)
                assert mat.rank(named) < len(named), (spec, named)
            outcomes[first is None] += 1
    assert outcomes[False] >= 12, outcomes


# -- the family walk on per-group set systems that no topology gives


def test_family_walk_matches_a_scan_on_random_set_systems():
    # every topology's maximal sets have one size, N(delta - 1); here each
    # group's sets have mixed sizes, the empty set among them, so both
    # family rules meet unequal fewest and most counts, groups that may or
    # may not hold no pick, and the two-row ends of every kind.  Each rule
    # must count the size-subsets whose every group part avoids (contains)
    # one of the sets, or answer None iff one of them is dependent, with a
    # record that is a dependent prefix of the first dependent one
    rnd = random.Random(30)
    fields = [field_ctx(2, 3), field_ctx(3), field_ctx(5), field_ctx(2, 2), field_ctx(7)]
    rules = {"avoid": (verify._coverable_leaves, lambda part, cs: not part & cs),
             "contain": (verify._containing_leaves, lambda part, cs: cs <= part)}
    outcomes = {(rule, passed): 0 for rule in rules for passed in (True, False)}
    for _ in range(450):
        width, groups = rnd.randint(1, 4), rnd.randint(1, 3)
        n = width * groups
        sets = list({tuple(sorted(rnd.sample(range(1, width + 1), rnd.randint(0, width))))
                     for _ in range(rnd.randint(1, 3))})
        size = rnd.randint(1, n)
        ctx = rnd.choice(fields)
        rows = [[rnd.randrange(ctx.order) for _ in range(n)] for _ in range(size)]
        if rnd.random() < 0.3:
            zeroed = rnd.randrange(n)
            for row in rows:
                row[zeroed] = 0
        mat = MatrixF(ctx, rows)
        for rule, (walk, holds) in rules.items():
            family = [sel for sel in itertools.combinations(range(1, n + 1), size)
                      if all(any(holds({c - i * width for c in sel
                                        if i * width < c <= (i + 1) * width}, set(cs))
                                 for cs in sets)
                             for i in range(groups))]
            if not family:
                continue
            got, record = walk(mat, size, width, sets)
            assert got == walk_verdict(family, lambda sel: mat.rank(sel) < size), (
                rule, width, groups, sets, size, rows)
            if got is None:
                first = next(sel for sel in family if mat.rank(sel) < size)
                named = tuple(c + 1 for c in record)
                assert first[:len(named)] == named and mat.rank(named) < len(named), (
                    rule, width, groups, sets, size, rows, record)
            outcomes[rule, got is not None] += 1
    assert min(outcomes.values()) >= 60, outcomes


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


def column_copies(code):
    """Copies of code whose H has its middle column zeroed, and its last
    column made equal to its first."""
    data = [list(row) for row in code.H.data]
    mid, last = code.n // 2, code.n - 1
    zeroed = [row[:mid] + [0] + row[mid + 1:] for row in data]
    repeated = [row[:last] + [row[0]] for row in data]
    return [replace(code, H=MatrixF(code.H.ctx, rows)) for rows in (zeroed, repeated)]


@functools.cache
def walk_copies() -> list:
    # every reference code, its G and H mutants and its two H column copies
    return [c for spec in bvs.REFERENCE_CODES for code in [bvs.build(*spec)]
            for c in [code, *mutants(code), *column_copies(code)]]


def rank_oracle(code, sets) -> set:
    return {s for s in sets if erasure_rank_defect(code, s) > 0}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_unrecoverable_matches_rank_oracle(data):
    code = data.draw(st.sampled_from(walk_copies()))
    n, h_rows = code.n, code.H.rows
    sets = data.draw(st.lists(st.sets(st.integers(1, n)).map(lambda e: tuple(sorted(e))),
                              max_size=40))
    # the empty set, a duplicate of each set and one set too large to be independent
    sets += [(), *sets, tuple(range(1, min(n, h_rows + 1) + 1))]
    assert verify.unrecoverable(code, sets) == rank_oracle(code, sets)


def test_unrecoverable_on_every_small_set_of_a_copy():
    # every set of at most four coordinates, duplicates included, in a shuffled order
    rnd = random.Random(3)
    for code in walk_copies()[:11]:
        sets = [e for size in range(5)
                for e in itertools.combinations(range(1, code.n + 1), size)]
        sets += rnd.sample(sets, 50)
        rnd.shuffle(sets)
        assert verify.unrecoverable(code, sets) == rank_oracle(code, sets)


def test_blocks_report_what_one_trial_at_a_time_reports(monkeypatch):
    # trials cross a block boundary; the one-at-a-time run ranks each
    # pattern alone, with erasure_rank_defect
    code = list(mutants(bvs.build(*bvs.REFERENCE_CODES[0])))[-1]
    trials = verify.BLOCK + 300
    cfg = SimConfig(trials=trials, model="adversarial_maximal", seed=11)
    blocked = (verify_mr_sampled(code, trials, 11).to_json(),
               run_simulation(code, cfg).to_json())
    for mod in (verify, simulate):
        monkeypatch.setattr(mod, "BLOCK", 1)
        monkeypatch.setattr(mod, "unrecoverable", rank_oracle)
    single = (verify_mr_sampled(code, trials, 11).to_json(),
              run_simulation(code, cfg).to_json())
    assert blocked == single
    assert '"verdict": "fail"' in single[0] and '"data_loss": 0' not in single[1]


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


# -- decode_erasures against the route it replaces


def oracle_decode(code, word):
    """Erasure decoding as a syndrome product, solve_unique on H|_E, and a
    separate rank of H|_E when no unique solution comes back."""
    word = list(word)
    if len(word) != code.n:
        raise ValueError(f"word length must be n = {code.n}")
    h_mat, top = code.H, code.tower.top
    erased = [i + 1 for i, v in enumerate(word) if v is None]
    kept = [i + 1 for i, v in enumerate(word) if v is not None]
    rhs_vec = (h_mat.restrict_columns(kept).mul(
        MatrixF(top, [(word[i - 1],) for i in kept], cols=1)) if kept
        else MatrixF.zeros(top, h_mat.rows, 1))
    rhs = [top.neg(v[0]) for v in rhs_vec.data]
    if not erased:
        if any(rhs):
            raise InvalidInput("word is not a codeword")
        return tuple(word)
    if len(erased) > h_mat.rows:
        return None
    sub = h_mat.restrict_columns(erased)
    x = sub.solve_unique(rhs)
    if x is None:
        if sub.rank() < len(erased):
            return None
        raise InvalidInput("unerased symbols are inconsistent with the code")
    for pos, v in zip(erased, x):
        word[pos - 1] = v
    return tuple(word)


def decode_outcome(fn, code, word):
    """The returned value, or the class and message of the ValueError."""
    try:
        return fn(code, word)
    except ValueError as exc:
        return type(exc), str(exc)


def erase(cw, coords):
    return [None if i + 1 in coords else v for i, v in enumerate(cw)]


def bump(word, coord, order):
    """word with the kept symbol at the 1-based coord moved by one."""
    out = list(word)
    out[coord - 1] = (out[coord - 1] + 1) % order
    return out


ENCODE_CODES = ORACLE_CODES + GENERIC_CODES + (("gen", (2, 2, 1, 2, 2), {"k": 0}),)


@pytest.mark.parametrize("spec", ENCODE_CODES,
                         ids=[f"{k}{p}{a}" for k, p, a in ENCODE_CODES])
def test_encode_is_the_message_row_times_g(spec):
    code = bvs.build(*spec)
    top = code.tower.top
    rnd = random.Random(28)
    for msg in ([0] * code.k, [top.order - 1] * code.k,
                *([rnd.randrange(top.order) for _ in range(code.k)] for _ in range(5))):
        cw = encode(code, msg)
        assert cw == MatrixF(top, [msg], cols=code.k).mul(code.G).data[0]
        assert isinstance(cw, tuple) and len(cw) == code.n


def test_encode_refusals_keep_their_texts(gen_code):
    # gen_code lives over GF(3^3)
    with pytest.raises(ValueError, match=r"^message length must be k = 5$"):
        encode(gen_code, (1, 2))
    for bad in (27, -1, 2.0, None):
        with pytest.raises(ValueError, match=rf"^{bad} is not an element of GF\(3\^3\)$"):
            encode(gen_code, (1, 2, bad, 4, 5))


DECODE_CODES = tuple(bvs.REFERENCE_CODES) + (GENERIC_CODES[0],)


@pytest.mark.parametrize("spec", DECODE_CODES,
                         ids=[f"{k}{p}" for k, p, _ in DECODE_CODES])
def test_decode_matches_solve_then_rank_oracle(spec):
    code = bvs.build(*spec)
    n, h, order = code.n, code.h, code.tower.top.order
    rnd = random.Random(31)
    cw = encode(code, [rnd.randrange(order) for _ in range(code.k)])

    def case(name, word, expected):
        got = decode_outcome(decode_erasures, code, word)
        assert got == decode_outcome(oracle_decode, code, word), name
        assert expected(got), (name, got)

    is_cw = lambda got: got == cw  # noqa: E731
    is_none = lambda got: got is None  # noqa: E731
    inconsistent = (InvalidInput, "unerased symbols are inconsistent with the code")
    pats = list(enumerate_maximal_patterns(code.topo))
    bumped = 0
    for pat in rnd.sample(pats, min(6, len(pats))):
        comp = sorted(set(range(1, n + 1)) - set(pat))
        for extra in range(h + 1):
            erased = set(pat) | set(rnd.sample(comp, extra))
            case(f"{pat}+{extra}", erase(cw, erased), is_cw)
            # a kept symbol that no codeword can match with E erased
            free = [c for c in comp if c not in erased
                    and erasure_rank_defect(code, erased | {c}) == 0]
            if free:
                bumped += 1
                case(f"{pat}+{extra} bumped", bump(erase(cw, erased), free[0], order),
                     lambda got: got == inconsistent)
        case(f"{pat}+{h + 1}", erase(cw, set(pat) | set(comp[:h + 1])), is_none)
    case("all erased", [None] * n, is_none)
    case("rows + 1 erased", erase(cw, set(range(1, code.H.rows + 2))), is_none)
    # a rank-deficient H|_E of at most rows coordinates: None even though
    # the bumped kept symbol is consistent with no codeword
    deficient = next(sel for size in range(1, code.H.rows + 1)
                     for sel in itertools.combinations(range(1, n + 1), size)
                     if erasure_rank_defect(code, sel))
    kept = next(c for c in range(1, n + 1) if c not in deficient)
    case("deficient, bumped", bump(erase(cw, set(deficient)), kept, order), is_none)
    case("no erasures", list(cw), is_cw)
    case("no erasures, bumped", bump(cw, 1, order),
         lambda got: got == (InvalidInput, "word is not a codeword"))
    outside = f"{order} is not an element of {code.tower.top!r}"
    case("outside the field", [order] + erase(cw, {1})[1:],
         lambda got: got == (ValueError, outside))
    case("outside the field, all else erased", [order] + [None] * (n - 1),
         lambda got: got == (ValueError, outside))
    assert bumped


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
    assert ell_exact(MatrixF.zeros(f3, 1, 21), 0) == 0
    # no subset search, so wide matrices return at once
    wide = MatrixF(f3, [[1] * 60, list(range(3)) * 20, [0] * 59 + [1]])
    assert ell_exact(wide, 2) == 5
    with pytest.raises(ValueError):
        ell_exact(p, -1)


def ell_oracle(p, h):
    """max{|E| : |E| - rank(P|_E) <= h} by subset search, largest size
    first."""
    for size in range(p.cols, -1, -1):
        for sel in itertools.combinations(range(1, p.cols + 1), size):
            if size - p.rank(sel) <= h:
                return size


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ell_exact_brute_force_agreement(data):
    # the closed form against the subset search, with a zero column, a
    # repeated column and a combination of two earlier columns planted
    ctx = data.draw(st.sampled_from(
        [field_ctx(2), field_ctx(2, 2), field_ctx(3), field_ctx(3, 2), field_ctx(5)]))
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 8))
    entry = st.integers(0, ctx.order - 1)
    columns = [data.draw(st.lists(entry, min_size=rows, max_size=rows))
               for _ in range(cols)]
    for kind in data.draw(st.lists(st.sampled_from([0, 1, 2]), max_size=3)):
        # kind 0 zeroes a column, 1 repeats an earlier one, 2 combines two
        if cols <= kind:
            continue
        pos = data.draw(st.integers(kind, cols - 1))
        earlier = data.draw(st.permutations(range(pos)))[:kind]
        coef = [1] if kind == 1 else [data.draw(entry) for _ in earlier]
        columns[pos] = [
            functools.reduce(ctx.add, (ctx.mul(x, columns[c][i])
                                       for x, c in zip(coef, earlier)), 0)
            for i in range(rows)]
    p = MatrixF(ctx, list(zip(*columns)), cols=cols)
    for h in range(cols + 2):
        assert ell_exact(p, h) == ell_oracle(p, h)


def test_ell_bounds_examples():
    fig1 = make_topology(3, 3, 2, 8, 2)
    assert ell_bounds(fig1, 16) == (48, 64)
    small = make_topology(2, 2, 1, 2, 1)
    assert ell_bounds(small, 1) == (3, 5)


def test_ell_exact_within_bounds_pc2():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "pc2", h=1)
    le = ell_exact(code.local_parity_matrix(), 1)
    lo, hi = ell_bounds(topo, 1)
    assert lo <= le <= hi


def test_construction3_pattern_check(gen_code):
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "pc2", h=1)
    assert construction3_pattern_check(code, ())
    pat = next(iter(enumerate_maximal_patterns(topo)))
    assert construction3_pattern_check(code, pat)
    # size gate: ell + 1 coordinates never qualify
    assert not construction3_pattern_check(code, tuple(range(1, code.ell + 2)))
    with pytest.raises(WrongKind):
        construction3_pattern_check(gen_code, ())


def test_construction3_check_implies_decode():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "pc2", h=1)
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
        lb = lower_bound_field(make_topology(3, 2, 1, g, 1), 2)
        assert lb.regime == "B"
        assert lb.value == Fraction(g - 1) - 4
        assert lb.floor == g - 5


def test_lower_bound_regime_a_example():
    lb = lower_bound_field(make_topology(3, 2, 1, 4, 1), 4)  # a+2 = 3 <= h <= g
    assert lb.regime == "A"
    assert lb.value == Fraction(1, 3) * 3 - 4 == -3
    assert lb.floor == -3 and lb.vacuous


def test_lower_bound_none_regimes():
    assert lower_bound_field(make_topology(2, 2, 1, 2, 1), 3).regime == "none"  # h > g
    assert lower_bound_field(make_topology(2, 2, 1, 2, 1), 1).regime == "none"  # h < 2
    assert lower_bound_field(make_topology(2, 2, 1, 8, 2), 0).regime == "none"


def test_lower_bound_regime_selection_matches_inequalities():
    import random

    rnd = random.Random(77)
    for _ in range(300):
        topo = make_topology(rnd.randrange(1, 6), rnd.randrange(2, 5), 1,
                             rnd.randrange(1, 9), rnd.randrange(1, 4))
        h = rnd.randrange(0, 10)
        lb = lower_bound_field(topo, h)
        a = topo.N * (topo.delta - 1)
        if h < 2 or h > topo.g:
            assert lb.regime == "none"
        elif a + 2 <= h:
            assert lb.regime == "A"
        else:
            assert h <= a + 1
            assert lb.regime == "B"


def test_lower_bound_consistency_on_built_codes():
    for code in (construct(make_topology(2, 2, 1, 2, 2), "gen", k=5),
                 construct(make_topology(2, 2, 1, 2, 2), "pc1", h=2),
                 construct(make_topology(2, 2, 1, 2, 1), "pc2", h=1)):
        lb = lower_bound_field(code.topo, code.h)
        if lb.regime != "none" and not lb.vacuous:
            assert code.plan.field_size >= lb.floor

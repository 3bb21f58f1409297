"""Coordinate layout, pattern classification, maximal-pattern enumeration."""

import dataclasses
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlrc import topology
from mrlrc.constructions import ConstraintViolated, split_size
from mrlrc.rng import Xoshiro256
from mrlrc.topology import (
    BadParams, EnumerationCapExceeded, IndexOutOfRange,
    classify_pattern, count_maximal_patterns, enumerate_maximal_patterns,
    group_witnesses, is_mr_correctable_pattern,
    make_topology, per_group_maximal_sets,
)


def test_layout_fig1_arithmetic():
    topo = make_topology(3, 3, 2, 8, 2, mode="availability")
    assert topo.n == 64
    assert split_size(topo, k=16) == (16, 16)
    assert topo.local_parity_count() == 32
    assert topo.max_dimension() == 32  # k + h
    # cores are the shared rows of the 8x8 arrangement
    assert topo.cores[0] == {1, 2}
    assert topo.repair[0][0] == {1, 2, 3, 4, 5}
    assert topo.repair[0][1] == {1, 2, 6, 7, 8}
    assert topo.cores[1] == {9, 10}


def test_layout_minimal():
    topo = make_topology(2, 2, 1, 1, 1)
    assert topo.n == 3
    assert topo.repair[0][0] == {1, 2, 3}


def test_bad_params():
    with pytest.raises(BadParams):
        make_topology(2, 3, 3, 1, 1)  # t > r
    with pytest.raises(BadParams):
        make_topology(3, 2, 2, 1, 1, mode="availability")  # t > delta - 1
    with pytest.raises(BadParams):
        make_topology(2, 2, 0, 1, 1)
    with pytest.raises(BadParams):
        make_topology(2, 2, 1, 1, 1, mode="bogus")


def test_classical_reduction():
    # t = 1, N = 1 is the classical disjoint-group (r, delta) layout
    topo = make_topology(3, 2, 1, 2, 1)
    assert topo.group_width == topo.r + topo.delta - 1
    assert len(per_group_maximal_sets(topo)) == topo.r + 1  # C(r+1, 1)


def test_heavy_parity_examples():
    topo = make_topology(2, 2, 1, 2, 2, mode="availability")
    assert split_size(topo, k=topo.max_dimension()) == (6, 0)
    assert split_size(topo, k=5) == (5, 1)
    assert split_size(topo, h=6) == (0, 6)
    for size, message in (({"k": 7}, "k = 7, bound = 6"),
                          ({"k": -1}, "k = -1, bound = 6"),
                          ({"h": 7}, "h = 7, bound = 6"),
                          ({"h": -1}, "h = -1, bound = 6")):
        with pytest.raises(ConstraintViolated, match=re.escape(message)):
            split_size(topo, **size)


@pytest.mark.parametrize("size", [{}, {"k": 4, "h": 2}], ids=["neither", "both"])
def test_split_size_needs_exactly_one(size):
    topo = make_topology(2, 2, 1, 2, 2)
    with pytest.raises(ValueError, match=r"^give exactly one of k, h$"):
        split_size(topo, **size)


def test_classify_empty_and_bounds():
    topo = make_topology(2, 2, 1, 2, 2, mode="availability")
    cls = classify_pattern(topo, ())
    assert cls.locally_correctable and not cls.maximal
    with pytest.raises(IndexOutOfRange):
        classify_pattern(topo, {0})
    with pytest.raises(IndexOutOfRange):
        classify_pattern(topo, {topo.n + 1})


def test_classify_full_group_not_local():
    topo = make_topology(2, 2, 1, 2, 2, mode="availability")
    # an entire group R_i with |R_i| > N(delta-1) cannot be locally corrected
    group = topo.groups[0]
    assert len(group) > topo.N * (topo.delta - 1)
    cls = classify_pattern(topo, group)
    assert not cls.locally_correctable


FIG1_SPADES = {
    1: (1, 3, 4, 7), 2: (2, 5, 7, 8), 3: (3, 4, 6, 8), 4: (1, 2, 6, 7),
    5: (4, 5, 6, 7), 6: (1, 3, 4, 7), 7: (1, 2, 7, 8), 8: (2, 3, 4, 5),
}


def fig1_coords():
    """The 32-cell pattern of the 8x8 arrangement, translated to the
    canonical layout: display rows 4-5 are the core, rows 1-3 the first
    repair segment, rows 6-8 the second."""
    coords = []
    for col, rows in FIG1_SPADES.items():
        off = (col - 1) * 8
        for y in rows:
            if y in (4, 5):
                coords.append(off + y - 3)
            elif y <= 3:
                coords.append(off + y + 2)
            else:
                coords.append(off + y)
    return sorted(coords)


def test_fig1_pattern_is_maximal():
    topo = make_topology(3, 3, 2, 8, 2, mode="availability")
    coords = fig1_coords()
    assert len(coords) == 32 == topo.local_parity_count()
    cls = classify_pattern(topo, coords)
    assert cls.maximal and cls.locally_correctable


def test_per_group_maximal_counts():
    t1 = make_topology(2, 2, 1, 1, 2, mode="availability")
    assert len(per_group_maximal_sets(t1)) == 8
    t2 = make_topology(2, 2, 1, 2, 2, mode="availability")
    assert count_maximal_patterns(t2) == 64
    pats = list(enumerate_maximal_patterns(t2))
    assert len(pats) == 64
    assert len(set(pats)) == 64
    for p in pats:
        cls = classify_pattern(t2, p)
        assert cls.maximal
        assert len(p) == t2.local_parity_count()


def test_enumeration_matches_brute_force():
    # every subset of the one-group 5-coordinate layout, classified directly
    topo = make_topology(2, 2, 1, 1, 2, mode="availability")
    brute = {
        tuple(sorted(s))
        for size in range(topo.n + 1)
        for s in itertools.combinations(topo.coords, size)
        if classify_pattern(topo, s).maximal
    }
    enumerated = set(enumerate_maximal_patterns(topo))
    assert brute == enumerated


@pytest.mark.parametrize("params", [(2, 2, 1, 1, 2), (2, 3, 1, 1, 1),
                                    (3, 3, 1, 1, 2), (2, 3, 2, 1, 3),
                                    (1, 2, 1, 1, 3)])
def test_group_witnesses_match_definition(params):
    # every subset of a group, against the witness conditions as stated
    topo = make_topology(*params)
    d1 = topo.delta - 1
    core, sets = topo.cores[0], topo.repair[0]
    for size in range(topo.group_width + 1):
        for sel in itertools.combinations(sorted(topo.groups[0]), size):
            e = set(sel)
            witnesses = [j + 1 for j in range(topo.N)
                         if len(e & sets[j]) <= d1 and all(
                             len((sets[l] - core) & e) <= d1
                             for l in range(topo.N) if l != j)]
            tight = [j for j in witnesses if len(e & sets[j - 1]) == d1
                     and all(len((sets[l] - core) & e) == d1
                             for l in range(topo.N) if l != j - 1)]
            assert group_witnesses(topo, topo.part_counts(e)[0]) == (witnesses, tight)


def test_enumeration_cap(monkeypatch):
    topo = make_topology(2, 2, 1, 2, 2, mode="availability")
    monkeypatch.setattr(topology, "DEFAULT_PATTERN_CAP", 10)
    with pytest.raises(EnumerationCapExceeded,
                       match=r"^64 maximal patterns exceed the cap 10$"):
        list(enumerate_maximal_patterns(topo))


@pytest.mark.parametrize("g", [1, 2])
def test_pattern_count_closed_form_matches_enumeration(g):
    for r, delta, n_avail in itertools.product(range(1, 5), range(1, 5), range(1, 4)):
        for t in range(1, r + 1):
            topo = make_topology(r, delta, t, g, n_avail)
            per_group = per_group_maximal_sets(topo)
            assert count_maximal_patterns(topo) == len(per_group) ** g, topo
            if g == 2 and len(per_group) <= 30:
                assert count_maximal_patterns(topo) == len(
                    list(enumerate_maximal_patterns(topo))), topo


def test_pattern_cap_checked_before_enumeration():
    # (r, delta, t, g, N) = (6, 6, 1, 1, 10): about 9.6e24 per-group sets
    topo = make_topology(6, 6, 1, 1, 10)
    assert count_maximal_patterns(topo) > 10 ** 24
    start = time.monotonic()
    with pytest.raises(EnumerationCapExceeded,
                       match=r"^\d+ maximal patterns per group exceed the cap"):
        per_group_maximal_sets(topo)
    with pytest.raises(EnumerationCapExceeded,
                       match=r"^\d+ maximal patterns exceed the cap"):
        next(enumerate_maximal_patterns(topo))
    assert time.monotonic() - start < 1


def test_enumeration_builds_group_sets_once(monkeypatch):
    # the cap check and the product read one list of per-group sets
    topo = make_topology(2, 2, 1, 2, 2, mode="availability")
    calls = []

    def counted(t):
        calls.append(t)
        return per_group_maximal_sets(t)

    monkeypatch.setattr(topology, "per_group_maximal_sets", counted)
    assert len(list(enumerate_maximal_patterns(topo))) == 64
    assert calls == [topo]


def test_subset_of_locally_correctable_is_locally_correctable():
    topo = make_topology(2, 3, 1, 2, 2, mode="availability")
    rnd = random.Random(0)
    pats = list(enumerate_maximal_patterns(topo))
    for _ in range(200):
        base = rnd.choice(pats)
        sub = [c for c in base if rnd.random() < 0.6]
        assert classify_pattern(topo, sub).locally_correctable


def test_is_mr_correctable_examples():
    topo = make_topology(2, 2, 1, 2, 2, mode="availability")
    pats = list(enumerate_maximal_patterns(topo))
    first = pats[0]
    # locally correctable with E1 empty
    assert is_mr_correctable_pattern(topo, 0, first)
    assert is_mr_correctable_pattern(topo, 3, first)
    # maximal plus h extra coordinates stays within the envelope
    h = 2
    rest = [c for c in topo.coords if c not in first]
    assert is_mr_correctable_pattern(topo, h, list(first) + rest[:h])
    # more extras than h cannot be absorbed
    assert not is_mr_correctable_pattern(topo, h, list(first) + rest[:h + 1])


def test_is_mr_correctable_saturated_repair_set():
    # maximal pattern plus h+1 coords inside one already-saturated repair set
    topo = make_topology(2, 2, 1, 2, 2, mode="availability")
    h = 1
    pat = next(iter(enumerate_maximal_patterns(topo)))
    sat = next(rs for rs in topo.repair[0]
               if len(set(pat) & rs) == topo.delta - 1)
    extra = [c for c in sorted(sat) if c not in pat][:h + 1]
    assert len(extra) == h + 1
    assert not is_mr_correctable_pattern(topo, h, list(pat) + extra)


def test_is_mr_correctable_brute_force_agreement():
    # oracle: search every split E = E1 u E2 directly
    topo = make_topology(2, 2, 1, 1, 2, mode="availability")

    def brute(h, coords):
        coords = tuple(sorted(coords))
        for size in range(min(h, len(coords)) + 1):
            for e1 in itertools.combinations(coords, size):
                e2 = [c for c in coords if c not in e1]
                if classify_pattern(topo, e2).locally_correctable:
                    return True
        return False

    for size in range(topo.n + 1):
        for coords in itertools.combinations(topo.coords, size):
            for h in (0, 1, 2):
                assert is_mr_correctable_pattern(topo, h, coords) == \
                    brute(h, coords), (h, coords)


@pytest.mark.parametrize("params", [
    (2, 2, 1, 2, 2), (2, 3, 1, 2, 3), (2, 1, 1, 2, 2), (3, 1, 2, 2, 3),
    (3, 2, 2, 2, 1), (2, 2, 1, 2, 3), (3, 3, 2, 2, 2), (3, 2, 1, 2, 2),
    (2, 3, 2, 2, 2), (1, 3, 1, 2, 3),
])
def test_group_deficiency_matches_search(params):
    # oracle: the fewest removals from the group's erasures, found by
    # trying removal subsets of growing size until a witness appears
    topo = make_topology(*params)
    g = topo.g

    def search(e):
        for size in range(len(e) + 1):
            for removal in itertools.combinations(sorted(e), size):
                if group_witnesses(topo, topo.part_counts(e - set(removal))[g - 1])[0]:
                    return size

    coords = sorted(topo.groups[g - 1])
    for size in range(len(coords) + 1):
        for e in itertools.combinations(coords, size):
            e = frozenset(e)
            assert topology._group_deficiency(topo, topo.part_counts(e)[g - 1]) == search(e), e


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 3), st.integers(1, 2))
def test_layout_invariants_hypothesis(r, delta, g, n_avail):
    topo = make_topology(r, delta, min(r, delta - 1), g, n_avail,
                         mode="availability")
    assert topo.n == g * (topo.t + n_avail * (r + delta - 1 - topo.t))
    seen = set()
    for grp, core, sets in zip(topo.groups, topo.cores, topo.repair):
        assert not (seen & grp)
        seen |= grp
        for rs in sets:
            assert len(rs) == r + delta - 1
            assert core <= rs <= grp
        if n_avail >= 2:
            for a, b in itertools.combinations(sets, 2):
                assert a & b == core
    assert seen == set(topo.coords)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 3), st.data())
def test_part_counts_match_set_intersections(r, delta, t, g, n_avail, data):
    topo = make_topology(r, delta, min(t, r), g, n_avail)
    e = data.draw(st.sets(st.integers(1, topo.n)))
    assert topo.part_counts(e) == [
        [len(e & core)] + [len(e & (rs - core)) for rs in sets]
        for core, sets in zip(topo.cores, topo.repair)]


@pytest.mark.parametrize("params", [(2, 2, 1, 3, 2), (2, 3, 1, 2, 1), (3, 2, 2, 2, 2),
                                    (2, 1, 1, 3, 1)])
def test_draw_maximal_pattern_is_an_increasing_maximal_pattern(params):
    # the groups' drawn sets concatenate to an increasing maximal pattern;
    # the extras are drawn after them, so a draw with cap 0 from the same
    # seed is that pattern, and the extras are sorted in
    topo = make_topology(*params)
    per_group = per_group_maximal_sets(topo)
    for cap in (0, 2, topo.n):
        for seed in range(40):
            base = topology.draw_maximal_pattern(topo, per_group, 0, Xoshiro256(seed))
            drawn = topology.draw_maximal_pattern(topo, per_group, cap, Xoshiro256(seed))
            assert classify_pattern(topo, base).maximal
            assert list(drawn) == sorted(set(drawn)) and set(base) <= set(drawn)
            assert 1 <= min(drawn, default=1) and max(drawn, default=topo.n) <= topo.n
            assert len(drawn) - len(base) <= cap


def test_huge_topology_is_arithmetic():
    # the layout is derived, so a 10^9-coordinate topology costs nothing
    # until its coordinate sets are read
    start = time.monotonic()
    topo = make_topology(10 ** 9, 2, 1, 1, 1)
    assert topo.n == 10 ** 9 + 1
    assert topo.part_counts([1, 2, 10 ** 9 + 1]) == [[1, 2]]
    assert time.monotonic() - start < 1


def test_topology_stores_only_its_parameters():
    assert [f.name for f in dataclasses.fields(topology.Topology)] == [
        "r", "delta", "t", "g", "N", "mode"]

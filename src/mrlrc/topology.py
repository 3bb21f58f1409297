"""Coordinate layout and erasure-pattern taxonomy for LRCs with locality,
local distance and availability.

A topology is parametrized by (r, delta, t, g, N).  The code length is
n = g(t + N(r+delta-1-t)) and the canonical 1-based layout is

    T_1     = [1, t]
    R_(1,j) = T_1  u  [t+(j-1)w+1, t+jw],      w = r+delta-1-t
    T_i, R_(i,j): the group-1 sets shifted by (i-1)(t+Nw)

so the N repair sets of a group pairwise intersect exactly in the core
T_i, groups are disjoint and cover [n].  All coordinate sets here and in
every report are 1-based.

An erasure pattern E is locally correctable when every group has a
witness repair set j with |E n R_(i,j)| <= delta-1 and every other
repair set of the group has at most delta-1 erasures outside the core;
it is maximal when those inequalities can all be made equalities, which
forces |E| = gN(delta-1).  Both conditions read only each group's part
counts, the erasures in T_i and in each segment R_(i,j) - T_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb


class BadParams(ValueError):
    """Topology parameter inequality violated; the message names it."""


class IndexOutOfRange(IndexError):
    """A coordinate is outside [1, n]."""


class EnumerationCapExceeded(ValueError):
    """Maximal-pattern enumeration would exceed the configured cap."""


DEFAULT_PATTERN_CAP = 10 ** 6


@dataclass(frozen=True)
class Topology:
    """The five parameters and the availability mode; everything else about
    the layout is derived from them.  seg, group_width and n are cached,
    since the simulator reads them on every trial; the coordinate sets are
    built only when first read."""

    r: int
    delta: int
    t: int
    g: int
    N: int
    mode: str

    @cached_property
    def seg(self) -> int:  # coordinates per repair segment
        return self.r + self.delta - 1 - self.t

    @cached_property
    def group_width(self) -> int:  # t + N * seg
        return self.t + self.N * self.seg

    @cached_property
    def n(self) -> int:
        return self.g * self.group_width

    @cached_property
    def cores(self) -> tuple:
        """cores[i-1] = frozenset T_i."""
        return tuple(frozenset(range(off + 1, off + self.t + 1))
                     for off in self._offsets())

    @cached_property
    def repair(self) -> tuple:
        """repair[i-1][j-1] = frozenset R_(i,j)."""
        t, seg = self.t, self.seg
        return tuple(
            tuple(core | frozenset(range(off + t + j * seg + 1,
                                         off + t + (j + 1) * seg + 1))
                  for j in range(self.N))
            for off, core in zip(self._offsets(), self.cores))

    @cached_property
    def groups(self) -> tuple:
        """groups[i-1] = frozenset R_i."""
        return tuple(frozenset(range(off + 1, off + self.group_width + 1))
                     for off in self._offsets())

    def _offsets(self) -> range:
        return range(0, self.n, self.group_width)

    @property
    def coords(self) -> range:
        return range(1, self.n + 1)

    def max_dimension(self) -> int:
        """g(t + N(r-t)): the dimension leaving zero heavy parities."""
        return self.g * (self.t + self.N * (self.r - self.t))

    def local_parity_count(self) -> int:
        """gN(delta-1): the size of every maximal locally correctable pattern."""
        return self.g * self.N * (self.delta - 1)

    def part_counts(self, e) -> list[list[int]]:
        """Per group, [c_0, c_1, .., c_N]: how many coordinates of e, all
        in [1, n], lie in the core T_i, then in each segment R_(i,j) - T_i."""
        t, seg, width = self.t, self.seg, self.group_width
        counts = [[0] * (self.N + 1) for _ in range(self.g)]
        for c in e:
            i, off = divmod(c - 1, width)
            counts[i][0 if off < t else (off - t) // seg + 1] += 1
        return counts


def make_topology(r: int, delta: int, t: int, g: int, N: int,
                  mode: str = "plain") -> Topology:
    """The canonical 1-based layout; raises BadParams naming the violated
    inequality."""
    for name, v in (("r", r), ("delta", delta), ("t", t), ("g", g), ("N", N)):
        if not isinstance(v, int) or v < 1:
            raise BadParams(f"{name} must be a positive integer, got {v}")
    if mode not in ("plain", "availability"):
        raise BadParams(f"unknown mode {mode!r}")
    if t > r:
        raise BadParams(f"t <= r violated: t = {t} > r = {r}")
    if mode == "availability" and t > delta - 1:
        raise BadParams(
            f"availability requires t <= delta - 1: t = {t} > {delta - 1}")
    return Topology(r, delta, t, g, N, mode)


@dataclass(frozen=True)
class PatternClass:
    """Classification of an erasure pattern against the local constraints."""

    locally_correctable: bool
    maximal: bool
    witnesses: tuple | None  # per-group witness repair-set index, 1-based


def _validate_coords(topo: Topology, coords) -> frozenset:
    e = frozenset(coords)
    for c in e:
        if not 1 <= c <= topo.n:
            raise IndexOutOfRange(f"coordinate {c} outside [1, {topo.n}]")
    return e


def group_witnesses(topo: Topology, counts):
    """(witnesses, tight_witnesses) for one group with part counts
    counts = [c_0, c_1, .., c_N] (see Topology.part_counts).

    Both are lists of 1-based repair-set indices j.  R_(i,j) is a witness
    when it holds at most delta-1 erasures, c_0 + c_j <= delta-1, and every
    other segment holds at most delta-1; a repair set holds at least its
    own segment's erasures, so one overloaded segment leaves the group
    without witnesses.  The group's erasures split into those of R_(i,j)
    and those of the other segments, so a witness is tight (every
    inequality an equality) exactly when the group holds N(delta-1)
    erasures: all witnesses or none are."""
    d1 = topo.delta - 1
    segs = counts[1:]
    if max(segs) > d1:
        return [], []
    room = d1 - counts[0]
    witnesses = [j for j, c in enumerate(segs, 1) if c <= room]
    return witnesses, (witnesses if sum(counts) == topo.N * d1 else [])


def classify_pattern(topo: Topology, coords) -> PatternClass:
    """Decide locally correctable / maximal, with per-group witnesses."""
    e = _validate_coords(topo, coords)
    chosen = []
    all_tight = True
    for counts in topo.part_counts(e):
        witnesses, tight = group_witnesses(topo, counts)
        if not witnesses:
            return PatternClass(False, False, None)
        all_tight = all_tight and bool(tight)
        chosen.append(tight[0] if tight else witnesses[0])
    if all_tight and len(e) != topo.local_parity_count():
        raise AssertionError("maximal pattern with unexpected size")
    return PatternClass(True, all_tight, tuple(chosen))


def per_group_maximal_sets(topo: Topology):
    """Distinct maximal per-group patterns of group 1.

    Returns a sorted list of coordinate tuples.  Witness choices whose
    delta-1 erasures in R_(1,j) avoid the core produce the same coordinate
    set for several j; those duplicates are merged here, before the
    cross-group product is taken.  Raises EnumerationCapExceeded, before
    building any, when there are more than DEFAULT_PATTERN_CAP of them.
    """
    count = _per_group_count(topo)
    if count > DEFAULT_PATTERN_CAP:
        raise EnumerationCapExceeded(f"{count} maximal patterns per group "
                                     f"exceed the cap {DEFAULT_PATTERN_CAP}")
    d1 = topo.delta - 1
    core = topo.cores[0]
    sets = topo.repair[0]
    found: set[tuple] = set()
    for j in range(topo.N):
        inside = sorted(sets[j])
        outside = [sorted(sets[l] - core) for l in range(topo.N) if l != j]
        for first in itertools.combinations(inside, d1):
            for rest in itertools.product(
                    *(itertools.combinations(o, d1) for o in outside)):
                coords = tuple(sorted(first + tuple(c for blk in rest for c in blk)))
                found.add(coords)
    return sorted(found)


def draw_maximal_pattern(topo: Topology, per_group, cap: int, rng) -> set:
    """A seeded maximal pattern plus up to cap extra erasures.

    Each group takes an entry of per_group (per_group_maximal_sets(topo))
    by rng.randrange; then rng.randrange(cap + 1) extra coordinates are
    sampled from the rest of [n]."""
    out = set()
    width = topo.group_width
    for i in range(topo.g):
        cs = per_group[rng.randrange(len(per_group))]
        out.update(c + i * width for c in cs)
    extra = rng.randrange(cap + 1)
    if extra:
        rest = [c for c in range(1, topo.n + 1) if c not in out]
        out.update(rng.sample(rest, min(extra, len(rest))))
    return out


def _per_group_count(topo: Topology) -> int:
    """len(per_group_maximal_sets(topo)), without building the sets.

    With d = delta-1 and c erasures in the core: c = 0 puts d on every
    segment; c >= 1 leaves d - c for the one witness segment and d for
    each of the other N - 1."""
    d, seg, t, N = topo.delta - 1, topo.seg, topo.t, topo.N
    full = comb(seg, d)
    return full ** N + sum(comb(t, c) * N * comb(seg, d - c) * full ** (N - 1)
                           for c in range(1, min(t, d) + 1))


def count_maximal_patterns(topo: Topology) -> int:
    return _per_group_count(topo) ** topo.g


def capped_group_sets(topo: Topology):
    """per_group_maximal_sets(topo), whose g-fold product is the set of
    maximal patterns; raises EnumerationCapExceeded, before building
    anything, when there are more than DEFAULT_PATTERN_CAP patterns."""
    total = count_maximal_patterns(topo)
    if total > DEFAULT_PATTERN_CAP:
        raise EnumerationCapExceeded(
            f"{total} maximal patterns exceed the cap {DEFAULT_PATTERN_CAP}")
    return per_group_maximal_sets(topo)


def enumerate_maximal_patterns(topo: Topology):
    """Yield every maximal locally correctable pattern exactly once, as a
    sorted coordinate tuple, the last group varying fastest; raises
    EnumerationCapExceeded as capped_group_sets does."""
    per_group = capped_group_sets(topo)
    width = topo.group_width
    for combo in itertools.product(per_group, repeat=topo.g):
        yield tuple(c + i * width for i, cs in enumerate(combo) for c in cs)


def _group_deficiency(topo: Topology, counts) -> int:
    """Fewest erasures to remove from a group with part counts counts so
    that it has a witness.

    Every repair segment must drop to delta-1 erasures, which costs its
    excess; then the core plus the least-loaded segment must drop to
    delta-1, which costs the excess of that sum."""
    d1 = topo.delta - 1
    core, *segs = counts
    return (sum(max(0, c - d1) for c in segs)
            + max(0, core + min(min(segs), d1) - d1))


def is_mr_correctable_pattern(topo: Topology, h: int, coords) -> bool:
    """True iff coords splits into E1 u E2 with E2 locally correctable and
    |E1| <= h.

    Local correctability is a per-group condition, so the minimum |E1| is
    the sum over groups of each group's removal deficiency; groups already
    satisfying the local conditions contribute nothing.
    """
    e = _validate_coords(topo, coords)
    if h < 0:
        raise ValueError("h must be non-negative")
    return sum(_group_deficiency(topo, counts)
               for counts in topo.part_counts(e)) <= h

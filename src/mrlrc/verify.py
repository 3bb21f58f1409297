"""Exhaustive and sampled verification of the maximal-recovery property,
erasure decoding, the exact l(P, h) parameter, and the field-size lower
bound evaluators.

A code is maximally recoverable iff for every maximal locally correctable
pattern E the restriction of the code to the complement of E is MDS of
dimension k and length k + h.  verify_mr_exhaustive checks exactly that
on one of two routes, and both have one shape: one walk over the route's
own matrix decides pass or fail, and only when it fails does a loop over
the patterns, in enumerate_maximal_patterns order, name each failing
pattern's witness by the same walk over every subset of that pattern's
own matrix (elim.subset_walk, the walk of elim.first_dependent, its
tables built once per sweep).

Generator-side, every k x k minor of G on the complement must be
invertible.  A k-subset lies in some pattern's complement iff its part
in each group avoids one of that group's maximal sets, so one
depth-first walk over G's columns visits each such subset once.  A
failing pattern's matrix is G restricted to its complement.

Parity-side, rank(H|_(E u F)) = |E| + h for every h-subset F of the
complement.  The sets E u F are exactly the (|E| + h)-sets whose part in
each group contains one of that group's maximal sets, so one depth-first
walk over H's columns ranks each of them once.  A failing pattern's
matrix is the h x (k + h) projection left over after one reduce_rows of
H on the pattern's columns.

Every one of these walks is elim.family_walk, the one column loop over
subsets, which knows a family only by one per-group rule: for a group's
picks, the fewest and the most further columns that make the group's
part a member.  What stays each route's own is its matrix, its family
rule (_coverable_leaves avoids a maximal set, _containing_leaves
contains one), its criterion and its failure path (_generator_sweep,
_parity_sweep).

The walk over every subset names the first failing subset in
itertools.combinations order, so both routes report what a
subset-by-subset rank sweep reports; either sweep yields only the
failing patterns, and the report's pattern count is the closed form.
The sweep also re-checks the local-distance premise on every repair set,
so a mutilated bundle cannot pass by losing its locality: one product of
H's rows and the local parity rows placed on every repair set against G
(constructions.premise_violations).  A sweep builds its walk tables
afresh; nothing is kept from one sweep to the next.

An erasure pattern E is recoverable iff rank(H|_E) = |E|.  Sampled
verification and the simulator's global path draw their trials BLOCK at
a time and rank a block's patterns together: unrecoverable runs one
elim.dependent_sets walk on H over them, which eliminates each prefix
that the sorted patterns share once.  Failures and outcomes are then
read in trial order, so a report does not depend on the block size.
erasure_rank_defect ranks one H|_E alone, for the decode command's
unrecoverable message, which needs the defect count; decode_erasures
reduces H|_E augmented by the syndrome of the kept symbols once, and
reads off unrecoverable, inconsistent or the completed word from that one
elimination.

Reports serialize to JSON without timing fields, so two runs with the
same seed produce byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, floor

from .elim import dependent_sets, family_walk, reduce_rows, subset_walk
from .matrix import MatrixF
from .constructions import (
    KINDS, BoundTooLong, MrLrcCode, bounded_power, plan_field, premise_violations,
    split_size,
)
from .topology import (
    Topology, capped_group_sets, count_maximal_patterns, draw_maximal_pattern,
    enumerate_maximal_patterns, per_group_maximal_sets,
)
from .rng import ALGORITHM, Xoshiro256

SCHEMA_VERSION = 1

# sampled verify and the simulator draw this many trials, then rank the
# patterns of the block together (unrecoverable), so memory holds one block
BLOCK = 4096


class WrongKind(ValueError):
    """Operation applies to a different construction kind."""


class InvalidInput(ValueError):
    """Unerased symbols are inconsistent with every codeword."""


@dataclass(frozen=True)
class MrFailure:
    """A verification witness: the pattern and what broke there."""

    pattern: tuple
    detail: str

    def to_json(self) -> dict:
        return {"pattern": list(self.pattern), "detail": self.detail}


@dataclass
class MrReport:
    code_id: str
    mode: str
    patterns_checked: int
    failures: list = field(default_factory=list)
    bound_values: dict | None = None
    prng: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "code_id": self.code_id,
            "mode": self.mode,
            "verdict": "pass" if self.passed else "fail",
            "patterns_checked": self.patterns_checked,
            "failures": [f.to_json() for f in self.failures],
        }
        if self.bound_values is not None:
            doc["bound_values"] = self.bound_values
        if self.prng is not None:
            doc["prng"] = self.prng
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"


def code_id(code: MrLrcCode) -> str:
    t = code.topo
    return (f"{code.kind}-r{t.r}-d{t.delta}-t{t.t}-g{t.g}-N{t.N}"
            f"-k{code.k}-h{code.h}")


def verify_mr_exhaustive(code: MrLrcCode, side: str = "generator") -> MrReport:
    """Sweep every maximal locally correctable pattern.

    side "generator": the restriction of G to the pattern complement must
    be MDS of dimension k (every k x k minor invertible); one prefix-tree
    walk over the k-subsets that lie in some pattern's complement ranks
    each of them once, and a passing sweep enumerates no pattern; only
    when the walk finds a singular subset does the walk over every subset
    run on G restricted to each pattern's complement, to name the
    failures.
    side "parity": rank(H|_(E u F)) = |E| + h for every h-subset F of the
    complement; one prefix-tree walk over the (|E| + h)-sets of H's
    columns that contain a pattern ranks each of them once, and a passing
    sweep eliminates no pattern; only when the walk finds a dependent set
    is H eliminated on each pattern's columns, and the walk over every
    subset run on the h x (k + h) projection left over, to name the
    failures.  The routes share elim.family_walk and elim's elimination;
    each keeps its own matrix, family rule, criterion and failure path,
    so a fault in one of those does not hide in the other.

    The failures are the violations of the local-distance premise (d >=
    delta on every repair set; the pattern criterion certifies maximal
    recoverability only for LRCs of the stated type), then each failing
    pattern with its first failing subset in itertools.combinations order,
    as a subset-by-subset rank sweep would name it.  patterns_checked is
    the closed-form pattern count.  Codes with more maximal patterns than
    topology.DEFAULT_PATTERN_CAP raise EnumerationCapExceeded.
    """
    if side not in ("generator", "parity"):
        raise ValueError("side must be 'generator' or 'parity'")
    checked = count_maximal_patterns(code.topo)
    failures = [MrFailure(pat, detail) for pat, detail in premise_violations(code)]
    if side == "generator":
        sweep, detail = _generator_sweep(code), "singular minor on surviving columns"
    else:
        sweep, detail = _parity_sweep(code), "rank defect after adding erasures"
    failures += [MrFailure(pat, f"{detail} {list(found)}") for pat, found in sweep]
    return MrReport(code_id=code_id(code), mode="exhaustive",
                    patterns_checked=checked, failures=failures,
                    bound_values=_bound_row(code))


def _generator_sweep(code: MrLrcCode):
    """Yield (pattern, first singular k-subset of its complement, in
    combinations order) for each maximal pattern that has one, in
    enumerate_maximal_patterns order.

    One walk over the k-subsets that lie in some pattern's complement
    settles the code (_coverable_leaves): when none is singular the sweep
    yields nothing and enumerates no pattern.  Otherwise the walk over
    every subset (elim.subset_walk, as in elim.first_dependent, its
    tables built once for the sweep) names each failing pattern's witness
    on the k rows of G restricted to its complement.
    """
    topo, g_mat, k = code.topo, code.G, code.k
    if _coverable_leaves(g_mat, k, topo.group_width, capped_group_sets(topo))[1] is None:
        return
    coords = set(range(1, topo.n + 1))
    first = subset_walk(topo.n - topo.local_parity_count(), k)
    for pat in enumerate_maximal_patterns(topo):
        comp = sorted(coords - set(pat))
        found = first([[row[c - 1] for c in comp] for row in g_mat.data], g_mat.ctx)
        if found is not None:
            yield pat, tuple(comp[j] for j in found)


def _coverable_leaves(g_mat: MatrixF, k: int, width: int, sets) -> tuple:
    """elim.family_walk on G over the k-subsets S of its columns that lie
    in some pattern's complement: (how many, None) when rank(G|_S) = k on
    every one of them, else (None, the first singular record).  sets lists
    one group's maximal sets, the same in every group, as tuples of 1-based
    group-local coordinates; S lies in some pattern's complement iff its
    part in every group avoids one of them, that is lies inside one of
    their complements in the group (masks).  So a group's picks are a
    member iff a mask holds them, and may gain up to as many columns above
    their top bit as the largest such mask has there.
    """
    full = (1 << width) - 1
    masks = [full ^ sum(1 << (c - 1) for c in cs) for cs in sets]

    def span(sel):
        top = sel.bit_length()
        room = [(m >> top).bit_count() for m in masks if m & sel == sel]
        return (0, max(room)) if room else None

    return family_walk(g_mat.cols, k, width, span)(g_mat.data, g_mat.ctx)


def _containing_leaves(h_mat: MatrixF, size: int, width: int, sets) -> tuple:
    """elim.family_walk on H over the size-subsets U of its columns that
    contain a maximal pattern: (how many, None) when rank(H|_U) = size on
    every one of them, else (None, the first dependent record).  sets
    lists one group's maximal sets, the same in every group, as tuples of
    1-based group-local coordinates; U contains a pattern iff its part in
    every group contains one of them.  So a group's picks can grow into a
    member iff some maximal set has all its bits below their top bit
    among them; the fewest further columns are the least number of bits
    such a set has above the top bit, and the most are every column above
    it.

    Why it decides the parity criterion.  Every maximal pattern has e =
    gN(delta-1) coordinates, and the patterns are the product of the
    per-group maximal sets, so a set contains a pattern iff its part in
    each group contains one of sets.  For a pattern E and an h-subset F of
    its complement, U = E u F has size = e + h coordinates and contains E;
    conversely a size-subset U that contains a pattern E is E u (U - E)
    with |U - E| = h.  And rank(H|_(E u F)) = |E| + h says rank(H|_U) =
    |U|; with n - k = e + h rows in H that is H|_U invertible, the
    parity-check form of erasure recovery (Gopalan, Huang, Jenkins and
    Yekhanin, IEEE T-IT 2014).  So the criterion fails on some (E, F) iff
    the walk finds a dependent U, and each U is ranked once however many
    patterns it contains.  U's complement is a k-set that avoids a maximal
    set in each group, so a passing walk has as many leaves as the
    generator route's walk over the coverable k-subsets.
    """
    masks = [sum(1 << (c - 1) for c in cs) for cs in sets]

    def span(sel):
        top = sel.bit_length()
        below = (1 << top) - 1
        lack = [(m >> top).bit_count() for m in masks if not m & ~sel & below]
        return (min(lack), width - top) if lack else None

    return family_walk(h_mat.cols, size, width, span)(h_mat.data, h_mat.ctx)


def _parity_sweep(code: MrLrcCode):
    """Yield (pattern, first h-subset F of its complement, in combinations
    order, with rank(H|_(pattern u F)) < |pattern| + h) for each maximal
    pattern that has one, in enumerate_maximal_patterns order.

    One walk over the (|pattern| + h)-sets of H's columns that contain a
    pattern settles the code (_containing_leaves): when none is dependent
    the sweep yields nothing and eliminates no pattern.  Otherwise each
    pattern E is eliminated on its own: one reduce_rows on a copy of H,
    pivoting on E's columns in increasing order.  The rows below the |E|
    pivots are then zero on E; on the complement they are the projection
    P, and rank(H|_(E u F)) = |E| + rank(P|_F), so the walk over every
    subset of P (elim.subset_walk, its tables built once for the sweep)
    names the witness.  When H|_E is itself rank-deficient every F
    fails, the first being the first h complement coordinates.
    """
    topo, ctx, h, e = code.topo, code.H.ctx, code.h, code.topo.local_parity_count()
    if _containing_leaves(code.H, e + h, topo.group_width,
                          capped_group_sets(topo))[1] is None:
        return
    coords = set(range(1, topo.n + 1))
    first = subset_walk(topo.n - e, h)
    for pat in enumerate_maximal_patterns(topo):
        rows = list(code.H.data)
        pivots, _ = reduce_rows(rows, ctx, [c - 1 for c in pat])
        comp = sorted(coords - set(pat))
        found = range(h) if len(pivots) < e else first(
            [[row[c - 1] for c in comp] for row in rows[e:]], ctx)
        if found is not None:
            yield pat, tuple(comp[j] for j in found)


def verify_mr_sampled(code: MrLrcCode, trials: int, seed: int) -> MrReport:
    """Seeded random sweep: maximal pattern (uniform per group) plus at
    most h extra erasures; checks rank(H|_E) = |E| on each block of
    trials at once (unrecoverable) and lists the failures in trial order,
    so the report is that of a trial-at-a-time sweep.  Codes with more
    maximal patterns per group than topology.DEFAULT_PATTERN_CAP raise
    EnumerationCapExceeded."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    topo = code.topo
    rng = Xoshiro256(seed)
    per_group = per_group_maximal_sets(topo)
    failures = []
    for start in range(0, trials, BLOCK):
        drawn = [draw_maximal_pattern(topo, per_group, code.h, rng)
                 for _ in range(min(BLOCK, trials - start))]
        lost = unrecoverable(code, drawn)
        failures += [MrFailure(pat, "rank defect") for pat in drawn if pat in lost]
    return MrReport(code_id=code_id(code), mode="sampled",
                    patterns_checked=trials, failures=failures,
                    bound_values=_bound_row(code),
                    prng={"algorithm": ALGORITHM, "seed": seed})


def _bound_row(code: MrLrcCode) -> dict:
    return {
        "kind": code.kind,
        "field_size": code.plan.field_size,
        "bound_value": code.plan.bound_value,
        "lower_bound": lower_bound_field(code.topo, code.h).to_json_dict(),
    }


# ---------------------------------------------------------------------------
# erasure decoding


def decode_erasures(code: MrLrcCode, word):
    """Complete a codeword with erasures marked as None.

    One reduced elimination of [H|_E | -H w], w the word with its erasures
    read as 0, pivoting on the |E| erased columns, answers all three
    questions: fewer than |E| pivots (H|_E rank-deficient, which includes
    |E| > rows of H) gives None; a nonzero last entry in a row below the
    pivots means the kept symbols are consistent with no codeword and
    raises InvalidInput; otherwise the last column of the pivot rows holds
    the erased symbols and the completed codeword tuple is returned.
    H w is one dots call of w, which is built once, against H's rows.
    """
    word = list(word)
    if len(word) != code.n:
        raise ValueError(f"word length must be n = {code.n}")
    top = code.tower.top
    for v in word:
        if v is not None and not top.is_element(v):
            raise ValueError(f"{v} is not an element of {top!r}")
    erased = [j for j, v in enumerate(word) if v is None]
    e = len(erased)
    kept = [0 if v is None else v for v in word]
    neg = top.neg
    rows = [[h_row[j] for j in erased] + [neg(s)]
            for h_row, s in zip(code.H.data, top.dots(kept, code.H.data))]
    pivots, _ = reduce_rows(rows, top, range(e), reduced=True)
    if len(pivots) < e:
        return None
    if any(row[e] for row in rows[e:]):
        raise InvalidInput("unerased symbols are inconsistent with the code"
                           if erased else "word is not a codeword")
    for j, row in zip(erased, rows):
        word[j] = row[e]
    return tuple(word)


def unrecoverable(code: MrLrcCode, patterns) -> set:
    """The patterns E among patterns, each an increasing tuple of 1-based
    coordinates, with rank(H|_E) < |E|: one elim.dependent_sets walk on H
    ranks them all, eliminating each prefix they share once.  A zero
    column put in front of H makes each coordinate its own position."""
    return dependent_sets([(0, *row) for row in code.H.data], code.H.ctx, patterns)


def erasure_rank_defect(code: MrLrcCode, coords) -> int:
    """|E| - rank(H|_E): zero iff the pattern is uniquely decodable.

    One MatrixF.rank of H|_E, for the decode command's unrecoverable
    message; sampled verify and the simulator decide the same condition
    for a whole block of patterns through unrecoverable, and this
    per-pattern rank is its test oracle."""
    coords = sorted(set(coords))
    if not coords:
        return 0
    return len(coords) - code.H.rank(coords)


# ---------------------------------------------------------------------------
# the l(P, h) parameter


def ell_exact(p_mat: MatrixF, h: int) -> int:
    """l(P, h) = max{|E| : |E| - rank(P|_E) <= h} = min(n, rank(P) + h).

    The nullity |E| - rank(P|_E) never falls when a column joins E, so it
    is at least |E| - rank(P) and no larger E qualifies; a column basis of
    P plus any min(h, n - rank(P)) further columns qualifies and reaches it.
    """
    if h < 0:
        raise ValueError("h must be non-negative")
    return min(p_mat.cols, p_mat.rank() + h)


def ell_bounds(topo: Topology, h: int) -> tuple[int, int]:
    """Closed-form bounds gN(delta-1)+h <= l(P,h) <= g(N(delta-1)+t)+h."""
    lo = topo.g * topo.N * (topo.delta - 1) + h
    hi = topo.g * (topo.N * (topo.delta - 1) + topo.t) + h
    return lo, hi


def construction3_pattern_check(code: MrLrcCode, coords) -> bool:
    """The pc2 decodability certificate: |E| <= ell and |E|-rank(P|_E) <= h."""
    if code.kind != "pc2":
        raise WrongKind("pattern check applies to kind pc2 only")
    coords = sorted(set(coords))
    if len(coords) > code.ell:
        return False
    if not coords:
        return True
    p_mat = code.local_parity_matrix()
    defect = len(coords) - p_mat.rank(coords)
    return defect <= code.h


# ---------------------------------------------------------------------------
# field-size lower bounds


@dataclass(frozen=True)
class LowerBound:
    """Evaluated field-size lower bound with its regime.

    regime "A" applies when a+2 <= h <= g, regime "B" when
    2 <= h <= min(a+1, g); otherwise "none".  Vacuous bounds (floor < 2)
    are reported, never suppressed: the -4 slack makes small-parameter
    bounds trivially true and hiding them would misrepresent the formula.
    """

    regime: str
    value: Fraction | None
    floor: int | None
    vacuous: bool | None
    asymptotic: int | None

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "value": None if self.value is None else str(self.value),
            "floor": self.floor,
            "vacuous": self.vacuous,
            "asymptotic": self.asymptotic,
        }


def lower_bound_field(topo: Topology, h: int) -> LowerBound:
    """Evaluate the applicable lower-bound formula in exact rationals.

    regime A: t (g/(h-1) - 1) C(r+delta-1-t, delta-1)^N - 4
    regime B: t (g/(h-1) - 1) C(r+floor((h-2)/N)-t, floor((h-2)/N))^N - 4
    """
    g, N, a = topo.g, topo.N, topo.N * (topo.delta - 1)
    if h < 2 or h > g:
        return LowerBound("none", None, None, None, _asymptotic(topo, h))
    if a + 2 <= h:
        binom = comb(topo.seg, topo.delta - 1)
        regime = "A"
    else:  # h <= a + 1
        e = (h - 2) // N
        binom = comb(topo.r + e - topo.t, e)
        regime = "B"
    value = Fraction(topo.t) * (Fraction(g, h - 1) - 1) * bounded_power(binom, N) - 4
    fl = floor(value)
    return LowerBound(regime, value, fl, fl < 2, _asymptotic(topo, h))


def _asymptotic(topo: Topology, h: int) -> int | None:
    """The Omega argument g t r^min(N(delta-1), N floor((h-2)/N))."""
    if h < 2:
        return None
    expo = min(topo.N * (topo.delta - 1), topo.N * ((h - 2) // topo.N))
    return topo.g * topo.t * bounded_power(topo.r, expo)


# ---------------------------------------------------------------------------
# the field-size summary of the CLI and the comparison script


def table1_row(topo: Topology, k: int | None = None, h: int | None = None) -> dict:
    """Field-size summary for all three kinds, marking inapplicable ones;
    raises ConstraintViolated on a size outside [0, g(t+N(r-t))]."""
    k, h = split_size(topo, k, h)
    row: dict = {"k": k, "h": h}
    for kind in KINDS:
        try:
            plan = plan_field(topo, kind, h=h)
            row[kind] = {
                "q": plan.q, "m": plan.m,
                "bound_value": plan.bound_value,
                "field_size": plan.field_size,
                "exact": plan.exact,
            }
            if kind == "pc2":
                row[kind]["ell"] = plan.ell
        except BoundTooLong:
            raise
        except ValueError as exc:
            row[kind] = {"inapplicable": str(exc)}
    lo, hi = ell_bounds(topo, h)
    row["ell_bounds"] = [lo, hi]
    row["lower_bound"] = lower_bound_field(topo, h).to_json_dict()
    return row


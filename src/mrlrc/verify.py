"""Exhaustive and sampled verification of the maximal-recovery property,
erasure decoding, the exact l(P, h) parameter, and the field-size lower
bound evaluators.

A code is maximally recoverable iff for every maximal locally correctable
pattern E the restriction of the code to the complement of E is MDS of
dimension k and length k + h.  verify_mr_exhaustive checks exactly that
on one of two independent routes.  Generator-side, every k x k minor of
G on the complement must be invertible; a k-subset of coordinates lies
in the complement of many patterns, so each distinct one is ranked once
per sweep.  Parity-side, rank(H|_(E u F)) = |E| + h for every h-subset F
of the complement; H is eliminated on E, which leaves an h x (k + h)
projection that must be MDS, and consecutive patterns share the
elimination of the groups they erase alike.  Both routes name the first
failing subset in itertools.combinations order, so they report what a
subset-by-subset rank sweep reports.  The sweep also re-checks the
local-distance premise on every repair set, so a mutilated bundle cannot
pass by losing its locality.

An erasure pattern E is recoverable iff rank(H|_E) = |E|.
erasure_rank_defect, which sampled verification, the simulator's global
path and the decode command's unrecoverable message read, ranks H|_E
alone; decode_erasures reduces H|_E augmented by the syndrome of the kept
symbols once, and reads off unrecoverable, inconsistent or the completed
word from that one elimination.

Reports serialize to JSON without timing fields, so two runs with the
same seed produce byte-identical documents.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, floor

from .elim import first_dependent, reduce_rows
from .matrix import MatrixF
from .constructions import (
    KINDS, MrLrcCode, plan_field, premise_violations, split_size,
)
from .topology import (
    Topology, draw_maximal_pattern, enumerate_maximal_patterns,
    per_group_maximal_sets,
)
from .rng import ALGORITHM, Xoshiro256

SCHEMA_VERSION = 1


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


def verify_mr_exhaustive(code: MrLrcCode, side: str = "generator",
                         fail_fast: bool = False) -> MrReport:
    """Sweep every maximal locally correctable pattern.

    side "generator": the restriction of G to the pattern complement must
    be MDS of dimension k (every k x k minor invertible); each distinct
    k-subset of coordinates is ranked once per call.
    side "parity": rank(H|_(E u F)) = |E| + h for every h-subset F of the
    complement; H is eliminated on E, one group prefix at a time shared
    by consecutive patterns, and the h x (k + h) projection left over must
    be MDS.  Neither route uses the other's mechanism, so a fault in one
    does not hide in the other.

    Each failure names the first failing subset in
    itertools.combinations order, as a subset-by-subset rank sweep would.
    The local-distance premise (d >= delta on every repair set) is checked
    first: the pattern criterion certifies maximal recoverability only for
    codes that are LRCs of the stated type.  With fail_fast the sweep
    stops at the first failure.  Codes with more maximal patterns than
    topology.DEFAULT_PATTERN_CAP raise EnumerationCapExceeded.
    """
    if side not in ("generator", "parity"):
        raise ValueError("side must be 'generator' or 'parity'")
    topo = code.topo
    failures = [MrFailure(pat, detail) for pat, detail in premise_violations(code)]
    checked = 0
    if failures and fail_fast:
        return MrReport(code_id=code_id(code), mode="exhaustive",
                        patterns_checked=0, failures=failures,
                        bound_values=_bound_row(code))
    if side == "generator":
        memo: dict[int, bool] = {}  # bitmask of S -> rank(G|_S) == k
    else:
        prefixes = _GroupPrefixes(code.H, topo.N * (topo.delta - 1))
    for pat in enumerate_maximal_patterns(topo):
        checked += 1
        comp = sorted(set(range(1, topo.n + 1)) - set(pat))
        if side == "generator":
            found = _first_singular_minor(code.G, comp, code.k, memo)
            detail = "singular minor on surviving columns"
        else:
            found = prefixes.first_rank_defect(pat, comp, code.h)
            detail = "rank defect after adding erasures"
        if found is not None:
            failures.append(MrFailure(pat, f"{detail} {list(found)}"))
        if failures and fail_fast:
            break
    return MrReport(code_id=code_id(code), mode="exhaustive",
                    patterns_checked=checked, failures=failures,
                    bound_values=_bound_row(code))


def _first_singular_minor(g_mat: MatrixF, comp, k: int,
                          memo: dict[int, bool]) -> tuple | None:
    """The first k-subset S of comp, in combinations order, with
    rank(G|_S) < k, or None.

    memo maps the bitmask of S to whether G|_S has rank k.  The subsets
    are walked as tuples of bits 1 << c, so the bitmask of S is the sum of
    its tuple and the coordinate of a bit is its bit_length - 1.
    """
    for bits in itertools.combinations([1 << c for c in comp], k):
        key = sum(bits)
        full = memo.get(key)
        if full is None:
            full = memo[key] = g_mat.rank(
                [b.bit_length() - 1 for b in bits]) == k
        if not full:
            return tuple(b.bit_length() - 1 for b in bits)
    return None


class _GroupPrefixes:
    """The parity route's eliminations of H, shared across patterns.

    A maximal pattern erases m = N(delta-1) coordinates in each of the g
    groups, pat[i*m:(i+1)*m] in group i, and enumerate_maximal_patterns
    varies the last groups fastest.  states[i] holds H's rows, in their
    original column order, after forward elimination on the erased
    columns of the first i groups, with its pivot count; a pattern pops
    back to the prefix it shares with the previous one and eliminates
    only the groups after it.  The pivots are those of one elimination on
    pat's columns in order, so the projection is the same.
    """

    def __init__(self, h_mat: MatrixF, m: int):
        self.ctx = h_mat.ctx
        self.m = m
        self.groups: list[tuple] = []
        self.states = [([list(row) for row in h_mat.data], 0)]

    def first_rank_defect(self, pat, comp, h: int) -> tuple | None:
        """The first h-subset F of comp, in combinations order, with
        rank(H|_(pat u F)) < |pat| + h, or None.

        After forward elimination on pat the rows below its |pat| pivots
        are zero on pat; on comp they are the projection P, and
        rank(H|_(pat u F)) = |pat| + rank(P|_F).  When H|_pat is itself
        rank-deficient every F fails, the first being comp[:h].
        """
        m = self.m
        groups = [pat[i:i + m] for i in range(0, len(pat), m)] if m else []
        keep = 0
        for old, new in zip(self.groups, groups):
            if old != new:
                break
            keep += 1
        del self.groups[keep:], self.states[keep + 1:]
        rows, r = self.states[-1]
        for grp in groups[keep:]:
            tail = rows[r:]
            pivots, _ = reduce_rows(tail, self.ctx, [c - 1 for c in grp])
            rows = rows[:r] + tail
            r += len(pivots)
            self.groups.append(grp)
            self.states.append((rows, r))
        e = len(pat)
        if r < e:
            return tuple(comp[:h])
        found = first_dependent([[row[c - 1] for c in comp] for row in rows[e:]],
                                self.ctx, h)
        return None if found is None else tuple(comp[j] for j in found)


def verify_mr_sampled(code: MrLrcCode, trials: int, seed: int) -> MrReport:
    """Seeded random sweep: maximal pattern (uniform per group) plus at
    most h extra erasures; checks rank(H|_E) = |E|.  Codes with more
    maximal patterns per group than topology.DEFAULT_PATTERN_CAP raise
    EnumerationCapExceeded."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    topo = code.topo
    rng = Xoshiro256(seed)
    per_group = per_group_maximal_sets(topo)
    failures = []
    for _ in range(trials):
        coords = draw_maximal_pattern(topo, per_group, code.h, rng)
        if erasure_rank_defect(code, coords):
            failures.append(MrFailure(tuple(sorted(coords)), "rank defect"))
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
    """
    word = list(word)
    if len(word) != code.n:
        raise ValueError(f"word length must be n = {code.n}")
    top = code.tower.top
    for v in word:
        if v is not None and not top.is_element(v):
            raise ValueError(f"{v} is not an element of {top!r}")
    add, mul = top.add, top.mul
    erased = [j for j, v in enumerate(word) if v is None]
    e = len(erased)
    rows = []
    for h_row in code.H.data:
        acc = 0
        for v, x in zip(word, h_row):
            if v and x:
                acc = add(acc, mul(v, x))
        rows.append([h_row[j] for j in erased] + [top.neg(acc)])
    pivots, _ = reduce_rows(rows, top, range(e), reduced=True)
    if len(pivots) < e:
        return None
    if any(row[e] for row in rows[e:]):
        raise InvalidInput("unerased symbols are inconsistent with the code"
                           if erased else "word is not a codeword")
    for j, row in zip(erased, rows):
        word[j] = row[e]
    return tuple(word)


def erasure_rank_defect(code: MrLrcCode, coords) -> int:
    """|E| - rank(H|_E): zero iff the pattern is uniquely decodable."""
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
    value = Fraction(topo.t) * (Fraction(g, h - 1) - 1) * binom ** N - 4
    fl = floor(value)
    return LowerBound(regime, value, fl, fl < 2, _asymptotic(topo, h))


def _asymptotic(topo: Topology, h: int) -> int | None:
    """The Omega argument g t r^min(N(delta-1), N floor((h-2)/N))."""
    if h < 2:
        return None
    expo = min(topo.N * (topo.delta - 1), topo.N * ((h - 2) // topo.N))
    return topo.g * topo.t * topo.r ** expo


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
        except ValueError as exc:
            row[kind] = {"inapplicable": str(exc)}
    lo, hi = ell_bounds(topo, h)
    row["ell_bounds"] = [lo, hi]
    row["lower_bound"] = lower_bound_field(topo, h).to_json_dict()
    return row


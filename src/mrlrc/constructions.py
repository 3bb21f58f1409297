"""The three explicit MR-LRC constructions, the field-size planner, and
the MRLRC v1 bundle format.

All three constructions share the same skeleton: a small field GF(q) with
q >= max{g+1, r+delta-1} supplies the local MDS codes, and an extension
GF(q^m) supplies the sum-rank-metric outer ingredient built from
norm-distinct units a_1..a_g and Frobenius powers.  Each kind places the
rows of a banded local generator on a group, contracts the columns of one
GF(q) matrix against the polynomial basis of GF(q^m) into elements
gamma_c, and takes every global row from the Frobenius rows
gamma_c^(q^l) a_i^((q^l-1)/(q-1)).

  kind "gen":  generator-side.  An outer linearized RS code of dimension
               k over the partition (g, t+N(r-t)) is expanded by the
               local matrix D = [I_t B..B; 0 diag(C..C)]; the global
               generator has entries gamma_c^(q^l) a_i^((q^l-1)/(q-1))
               where gamma = beta * D.  Extension degree m = t + N(r-t).

  kind "pc1":  parity-check side.  Local parities P (one band per repair
               set, built from A = [I_t B; 0 C; 0 D] with the top
               delta-1 rows spanning an MDS code) are stacked over heavy
               rows (G_1 Q | ... | G_g Q), with (G_i) an h-dimensional
               linearized RS generator for the partition (g, hN) and Q
               the D band placed on the repair segments.  The heavy block
               is computed as the Frobenius rows of Q's contracted
               columns gamma_c = sum_j beta_j Q[j, c]: x -> x^(q^l) is
               GF(q)-linear and Q has entries in GF(q), so
               (G_i Q)[l, c] = a_i^((q^l-1)/(q-1)) gamma_c^(q^l).
               Extension degree m = hN; requires h <= r.

  kind "pc2":  parity-check side with an l-wise independent set.  Local
               parities as in pc1 (without the D band) are stacked over
               heavy rows beta_j^(q^l) a_i^(...), where the beta_j are
               built by column-expanding a tall RS evaluation matrix over
               GF(q^s) into GF(q) and contracting against a basis of
               GF(q^m), m = s*l, q^s >= n/g - 1, l = g(N(delta-1)+t)+h.

The planner reports the closed-form field-size bound for each kind
(the value max{g+1, r+delta-1}^(t+N(r-t)), max{g+1, r+delta-1}^(hN) or
(n/g-1)^(g(N(delta-1)+t)+h)); the realized field uses the least prime
power >= max{g+1, r+delta-1}, so for "gen"/"pc1" the realized size equals
the bound whenever that max is a prime power, while for "pc2" it also
needs n/g - 1 to be a power of q.  FieldPlan.exact records whether the
realized size equals the bound.

construct asserts the independence claim each parity-check kind rests on
(pc1's top delta-1 band rows span an MDS code, pc2's beta are l-wise
independent) with _check_independent, then the premises of the code.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from math import comb, log10
from operator import attrgetter

from .elim import reduce_rows
from .ff import (
    ORDER_LIMIT, DegreeOverflow, FieldTower, make_tower, is_prime_power, next_prime_power,
)
from .matrix import MatrixF, RankDeficient, block_diag, read_srmat, write_srmat
from .localmds import structured_mds, vandermonde_columns
from .sumrank import frobenius_rows
from .topology import Topology, make_topology

KINDS = ("gen", "pc1", "pc2")
# column subsets _check_independent may walk: of pc2's beta, and of pc1's
# top delta-1 local rows (C(24, 12), the most any 24 columns have)
ELL_WISE_SUBSET_CAP = 2000
LOCAL_MDS_SUBSET_CAP = comb(24, 12)


class ConstraintViolated(ValueError):
    """A construction precondition failed; the message names the inequality."""


class NotInformationAvailable(ValueError):
    """The core set T contains no information set for this code."""


class BoundTooLong(ValueError):
    """A bound has more decimal digits than CPython writes out; the cap
    stays, since the int-to-decimal conversion takes quadratic time."""

    def __init__(self):
        super().__init__(f"a bound has more than {sys.get_int_max_str_digits()} "
                         "decimal digits, the limit for writing an integer")


def bounded_power(base: int, expo: int) -> int:
    """base ** expo, or BoundTooLong before any multiplication when it
    would have more decimal digits than sys.get_int_max_str_digits().

    Only a power whose floor(expo * log10(base)) + 1 digits clear the
    limit by more than float error can hide is refused; one near the limit
    is computed, and writing it decides."""
    limit = sys.get_int_max_str_digits()
    if limit and base > 1 and expo * log10(base) > limit + 1:
        raise BoundTooLong()
    return base ** expo


@dataclass(frozen=True)
class FieldPlan:
    """Field-size plan for one construction kind on one topology.

    k and h are the dimension and the heavy-parity count, k + h =
    g(t+N(r-t)); p, s, m describe the realized tower GF(q=p^s) <=
    GF(q^m); bound_value is the closed-form field-size bound for the kind.
    For pc2, ell is the independence level and sub_s the degree with
    q^sub_s >= n/g - 1.
    """

    kind: str
    k: int
    h: int
    p: int
    s: int
    m: int
    bound_value: int
    ell: int | None = None
    sub_s: int | None = None

    @property
    def q(self) -> int:
        return self.p ** self.s

    @property
    def field_size(self) -> int:
        return bounded_power(self.q, self.m)

    @property
    def exact(self) -> bool:
        """Whether the realized field size q^m equals bound_value."""
        return self.field_size == self.bound_value


def split_size(topo: Topology, k: int | None = None,
               h: int | None = None) -> tuple[int, int]:
    """(k, h) with k + h = g(t+N(r-t)), from exactly one of them.

    The generator-side construction is sized by k and the parity-check
    ones by h; this is the one place that converts between them.  Raises
    ConstraintViolated naming the given size when it lies outside
    [0, g(t+N(r-t))].
    """
    if (k is None) == (h is None):
        raise ValueError("give exactly one of k, h")
    cap = topo.max_dimension()
    name, size = ("k", k) if h is None else ("h", h)
    if not 0 <= size <= cap:
        raise ConstraintViolated(f"0 <= {name} <= g(t+N(r-t)) violated: "
                                 f"{name} = {size}, bound = {cap}")
    return (size, cap - size) if h is None else (cap - size, size)


def plan_field(topo: Topology, kind: str, k: int | None = None,
               h: int | None = None) -> FieldPlan:
    """Evaluate the field-size row for the given kind, sized by exactly one
    of k and h; raises ConstraintViolated naming any violated inequality.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    r, delta, t, g, N = topo.r, topo.delta, topo.t, topo.g, topo.N
    # The parity-check kinds need the [I_t B; 0 C] band split, hence
    # t <= delta-1.  The generator kind only needs t <= r (which the
    # topology guarantees); t <= delta-1 there governs availability, not
    # recoverability.
    if kind != "gen" and t > min(delta - 1, r):
        raise ConstraintViolated(
            f"t <= min(delta-1, r) violated: t = {t}, delta-1 = {delta - 1}, r = {r}")
    k, h = split_size(topo, k, h)
    if kind == "pc1" and h > r:
        raise ConstraintViolated(f"h <= r violated: h = {h} > r = {r}")
    q_raw = max(g + 1, r + delta - 1)
    if kind == "gen":
        m = t + N * (r - t)
        bound = bounded_power(q_raw, m)
    elif kind == "pc1":
        m = max(1, h * N)
        bound = bounded_power(q_raw, h * N)
    else:
        ell = g * (N * (delta - 1) + t) + h
        target = topo.group_width - 1  # n/g - 1
        bound = bounded_power(target, ell)
    # no such field is built: refused before any search, but after the
    # bound, which is too long to write on either side of the limit alike
    if q_raw > ORDER_LIMIT:
        raise DegreeOverflow(f"q >= max(g+1, r+delta-1) = {q_raw} exceeds the "
                             f"field order limit {ORDER_LIMIT}")
    q = next_prime_power(q_raw)
    p, s = is_prime_power(q)
    if kind == "pc2":
        sub_s = 1
        while q ** sub_s < target:
            sub_s += 1
        m = sub_s * ell
    else:
        sub_s = ell = None
    # gen and pc1 refuse a realized field that no FieldCtx builds, as
    # construct would (q^41 > 2^40 for every q >= 2, so a huge m never
    # builds q^m); pc2 keeps its planned row past the limit, where the
    # field-size comparison still reports its bound
    if kind != "pc2" and q ** min(m, 41) > ORDER_LIMIT:
        raise DegreeOverflow(f"p^e = {p}^{s * m} exceeds the {ORDER_LIMIT} limit")
    return FieldPlan(kind, k, h, p, s, m, bound, ell=ell, sub_s=sub_s)


@dataclass(frozen=True)
class MrLrcCode:
    """A constructed MR-LRC: its topology, its field plan and its matrices.

    G and H always satisfy G H^T = 0 with rank(G) = k and rank(H) = n - k.
    kind, k, h, ell and the tower read the plan, and so do the multipliers
    a and beta (see multipliers).  For pc1 and pc2 the first gN(delta-1)
    rows of H are the local parity matrix P.
    """

    topo: Topology
    plan: FieldPlan
    G: MatrixF
    H: MatrixF

    kind = property(attrgetter("plan.kind"))
    k = property(attrgetter("plan.k"))
    h = property(attrgetter("plan.h"))
    ell = property(attrgetter("plan.ell"))
    n = property(attrgetter("topo.n"))

    @property
    def tower(self) -> FieldTower:
        return make_tower(self.plan.p, self.plan.s, self.plan.m)

    def local_parity_matrix(self) -> MatrixF:
        """P: the first gN(delta-1) rows of H (kinds pc1/pc2)."""
        rows = self.topo.local_parity_count()
        return MatrixF(self.H.ctx, self.H.data[:rows], cols=self.H.cols)


def dual_matrix(mat: MatrixF) -> MatrixF:
    """Basis of the dual code, one codeword per row: M' with M M'^T = 0.

    Turns a parity-check matrix into a generator and back; the input must
    have full row rank, which the kernel's size shows: cols - rank vectors."""
    kernel = mat.right_kernel()
    if kernel.cols != mat.cols - mat.rows:
        raise RankDeficient("matrix must have full row rank")
    return kernel.transpose()


def local_generator(topo: Topology, kind: str, ctx) -> MatrixF:
    """The banded local-code generator A of gen or pc2, over GF(q)."""
    if kind not in ("gen", "pc2"):
        raise ValueError(f"local generator of kind {kind!r}: "
                         "only 'gen' and 'pc2' have one")
    k_loc = topo.r if kind == "gen" else topo.delta - 1
    return structured_mds(ctx, topo.r + topo.delta - 1, k_loc, topo.t)


def _pc1_local(topo: Topology, h: int, ctx) -> MatrixF:
    """pc1's band A = [I_t B; 0 C; 0 D], whose top delta-1 rows must span
    an MDS code: since t <= delta-1 they span an RS subcode, asserted."""
    r, delta, t = topo.r, topo.delta, topo.t
    band = structured_mds(ctx, r + delta - 1, h + delta - 1, t)
    _check_independent(MatrixF(ctx, band.data[:delta - 1], cols=band.cols),
                       delta - 1, LOCAL_MDS_SUBSET_CAP, "pc1's top delta-1 local rows")
    return band


def _place(topo: Topology, band, segment_sets) -> list[list[int]]:
    """Lay rows of a banded local generator over one group of width t + N seg.

    For each set of repair segments (0-based j) in turn, every row of band
    gives one row: its first t entries on the core T, its last seg entries
    on each segment of the set, zeros elsewhere.  Builds gen's D (B rows on
    all segments at once, C rows one segment at a time), P_0 and pc1's Q.
    """
    t, seg = topo.t, topo.seg
    out = []
    for segments in segment_sets:
        for src in band:
            row = [0] * topo.group_width
            row[:t] = src[:t]
            for j in segments:
                row[t + j * seg:t + (j + 1) * seg] = src[t:]
            out.append(row)
    return out


def _contract(tower: FieldTower, columns) -> tuple:
    """The GF(q^m) elements whose polynomial-basis coordinates are the
    given GF(q) columns."""
    return tuple(tower.from_base_coords(col) for col in columns)


def _check_code(code: MrLrcCode) -> None:
    """Construction invariants: the shapes, then premise_violations."""
    if code.G.rows != code.k or code.G.cols != code.n or code.H.cols != code.n:
        raise AssertionError("matrix shapes do not match the parameters")
    violations = premise_violations(code)
    if violations:
        raise AssertionError(violations[0][1])


def premise_violations(code: MrLrcCode) -> list[tuple[tuple, str]]:
    """(pattern, detail) for every broken premise of the pattern criterion
    for maximal recoverability: G H^T = 0, rank(G) = k, rank(H) = n - k
    (each with pattern ()), then the local property on every repair set R
    (with R's coordinates): no codeword leaves the distance->=delta local
    MDS code there, G|_R Pi^T = 0 for the local parity rows Pi.

    One product settles G H^T and every G|_R Pi^T: each row of H, then
    of Pi placed on each repair set in turn (_placed_local_rows), is
    dotted once against G's rows, and each block of the result is read
    off in that order.  A placed row is zero off its repair set, so its
    dots read only its repair set's coordinates of G.
    """
    checks, placed = _placed_local_rows(code.topo, code.kind, code.tower)
    dots, g_rows = code.G.ctx.dots, code.G.data
    nonzero = [any(dots(row, g_rows)) for row in (*code.H.data, *placed)]
    lo = code.H.rows
    out = [((), "G H^T != 0")] if any(nonzero[:lo]) else []
    if code.G.rank() != code.k:
        out.append(((), f"rank(G) != k = {code.k}"))
    if code.H.rank() != code.n - code.k:
        out.append(((), f"rank(H) != n - k = {code.n - code.k}"))
    per = len(placed) // len(checks)
    for check in checks:
        if any(nonzero[lo:lo + per]):
            out.append(check)
        lo += per
    return out


def _placed_local_rows(topo: Topology, kind: str, tower: FieldTower) -> tuple[list, list]:
    """(checks, rows) for premise_violations: per repair set R_(i,j), in
    order, its sorted coordinates and the detail a violation names; and
    the local parity rows Pi, embedded in the top field, placed on each
    repair set in the same order (Pi's column c on R's c-th coordinate,
    zero off R).  Pi is the dual of gen's local generator, or the top
    delta-1 band rows of the parity-check kinds."""
    if kind == "gen":
        pi = dual_matrix(local_generator(topo, "gen", tower.base))
        detail = "restriction to R_({},{}) leaves the local MDS code"
    else:
        pi = local_generator(topo, "pc2", tower.base)  # A' = [I_t B; 0 C]
        detail = "local parities violated on R_({},{})"
    embed = tower.embed
    pi_rows = [[embed(v) for v in row] for row in pi.data]
    checks, rows = [], []
    for i, sets in enumerate(topo.repair, start=1):
        for j, rs in enumerate(sets, start=1):
            rs = tuple(sorted(rs))
            checks.append((rs, detail.format(i, j)))
            for src in pi_rows:
                row = [0] * topo.n
                for c, v in zip(rs, src):
                    row[c - 1] = v
                rows.append(row)
    return checks, rows


def multipliers(topo: Topology, plan: FieldPlan) -> tuple[tuple, tuple]:
    """(a, beta): the norm-distinct units a_1..a_g of the plan's tower and
    the heavy-row multipliers, its polynomial basis for gen and for pc1 with
    h >= 1 (none for h = 0).  pc2's beta is l-wise independent: the columns
    of a tall RS evaluation matrix over GF(q^sub_s), any min(l, n/g) of
    which are independent, expanded into GF(q) coordinates and contracted."""
    tower = make_tower(plan.p, plan.s, plan.m)
    a = tower.distinct_norm_elements(topo.g)
    if plan.kind != "pc2":
        return a, (tower.polynomial_basis if plan.kind == "gen" or plan.h else ())
    sub_tower = make_tower(plan.p, plan.s, plan.sub_s)
    h_tilde = vandermonde_columns(sub_tower.top, plan.ell, topo.group_width)
    return a, _contract(tower, (
        [c for x in h_tilde.column(j) for c in sub_tower.base_coords(x)]
        for j in range(topo.group_width)))


def _build_gen(topo: Topology, plan: FieldPlan, tower: FieldTower):
    """(G, H) of the generator-side construction of dimension plan.k."""
    t, r, N = topo.t, topo.r, topo.N
    a, _ = multipliers(topo, plan)
    a_loc = local_generator(topo, "gen", tower.base).data
    # D: [I_t | B B .. B] over [0 | diag(C, .., C)]
    d_rows = (_place(topo, a_loc[:t], [range(N)])
              + _place(topo, a_loc[t:r], [(j,) for j in range(N)]))
    g_mat = frobenius_rows(tower, _contract(tower, zip(*d_rows)), a, plan.k)
    return g_mat, dual_matrix(g_mat)


def _parity_check_code(topo: Topology, plan: FieldPlan, tower: FieldTower,
                       a_loc, gamma, a):
    """pc1/pc2 assembly of (G, H): H is diag(P_0, .., P_0) over the plan.h
    Frobenius rows of gamma, where P_0 places the top delta-1 rows of a_loc
    on each repair segment; G is its dual."""
    embed = tower.embed
    p0 = _place(topo, a_loc[:topo.delta - 1], [(j,) for j in range(topo.N)])
    p_emb = MatrixF(tower.top, [[embed(v) for v in row] for row in p0])
    h_mat = block_diag([p_emb] * topo.g).vstack(frobenius_rows(tower, gamma, a, plan.h))
    return dual_matrix(h_mat), h_mat


def _build_pc1(topo: Topology, plan: FieldPlan, tower: FieldTower):
    """First parity-check construction; the plan enforces h <= r.

    The heavy rows (G_1 Q | .. | G_g Q) are the Frobenius rows of Q's
    contracted columns (see the module docstring)."""
    a_loc = _pc1_local(topo, plan.h, tower.base).data
    q_rows = _place(topo, a_loc[topo.delta - 1:], [(j,) for j in range(topo.N)])
    a, _ = multipliers(topo, plan)
    return _parity_check_code(topo, plan, tower, a_loc,
                              _contract(tower, zip(*q_rows)), a)


def _build_pc2(topo: Topology, plan: FieldPlan, tower: FieldTower):
    """Second parity-check construction: the heavy rows are the Frobenius
    rows of the l-wise independent beta (see multipliers), asserted on
    their GF(q) coordinates."""
    a, beta = multipliers(topo, plan)
    coords = [tower.base_coords(x) for x in beta]
    _check_independent(MatrixF(tower.base, list(zip(*coords)), cols=len(coords)),
                       min(plan.ell, len(coords)), ELL_WISE_SUBSET_CAP,
                       "the beta multipliers' GF(q) coordinates")
    return _parity_check_code(topo, plan, tower,
                              local_generator(topo, "pc2", tower.base).data, beta, a)


def _check_independent(mat: MatrixF, size: int, cap: int, what: str) -> None:
    """Assert that any size columns of mat are linearly independent.

    The constructions guarantee it; construct asserts it anyway.  Always
    checks rank(mat) >= size, and walks every size-subset of the columns
    (MatrixF.first_dependent) when there are at most cap of them.  A
    failure names the first dependent subset (1-based), which is the first
    size columns when the rank falls short."""
    if mat.rank() < size:
        sel = tuple(range(1, size + 1))
    elif comb(mat.cols, size) <= cap:
        sel = mat.first_dependent(size)
    else:
        return
    if sel is not None:
        raise AssertionError(f"columns {sel} of {what} are linearly dependent")


_BUILDERS = {"gen": _build_gen, "pc1": _build_pc1, "pc2": _build_pc2}


def construct(topo: Topology, kind: str, k: int | None = None,
              h: int | None = None) -> MrLrcCode:
    """Build the code of the given kind, sized by exactly one of the
    dimension k and the heavy-parity count h (see split_size)."""
    plan = plan_field(topo, kind, k=k, h=h)
    g_mat, h_mat = _BUILDERS[kind](topo, plan, make_tower(plan.p, plan.s, plan.m))
    code = MrLrcCode(topo, plan, g_mat, h_mat)
    _check_code(code)
    return code


def encode(code: MrLrcCode, message) -> tuple:
    """Codeword x G for a length-k message over GF(q^m): one dots call of
    the message against G's columns, n of them even when k = 0."""
    msg = tuple(message)
    if len(msg) != code.k:
        raise ValueError(f"message length must be k = {code.k}")
    top = code.tower.top
    for v in msg:
        if not top.is_element(v):
            raise ValueError(f"{v} is not an element of {top!r}")
    cols = zip(*code.G.data) if code.k else [()] * code.n
    return tuple(top.dots(msg, cols))


def systematic_info_placement(code: MrLrcCode) -> tuple[MrLrcCode, tuple]:
    """Row-reduce G to be systematic on k coordinates inside T = u T_i.

    Establishes information availability; requires k <= gt and raises
    NotInformationAvailable (with the achieved rank) when T contains no
    information set.  One reduced elimination of G pivoting on the T
    columns in increasing order pivots on the leftmost independent ones
    and leaves the identity there, the only row-equivalent form of G that
    has it.  Returns the placed code and those k pivot coordinates
    (1-based).
    """
    topo = code.topo
    if code.k > topo.g * topo.t:
        raise ConstraintViolated(
            f"k <= gt violated: k = {code.k} > {topo.g * topo.t}")
    t_cols = sorted(c - 1 for core in topo.cores for c in core)
    rows = [list(row) for row in code.G.data]
    pivots, _ = reduce_rows(rows, code.G.ctx, t_cols, reduced=True)
    if len(pivots) < code.k:
        raise NotInformationAvailable(
            f"rank of G restricted to T is {len(pivots)} < k = {code.k}")
    return (replace(code, G=MatrixF(code.G.ctx, rows, cols=code.n)),
            tuple(c + 1 for c in pivots))


# ---------------------------------------------------------------------------
# MRLRC v1 bundles


def write_bundle(code: MrLrcCode, out_dir, name: str = "bundle") -> str:
    """Write the MRLRC v1 JSON descriptor plus SRMAT matrix files.

    Returns the path of the JSON file.  Output is byte-deterministic:
    fixed key order, no timestamps.
    """
    os.makedirs(out_dir, exist_ok=True)
    g_name, h_name = f"{name}.G.srmat", f"{name}.H.srmat"
    write_srmat(code.G, os.path.join(out_dir, g_name))
    write_srmat(code.H, os.path.join(out_dir, h_name))
    topo = code.topo
    a, beta = multipliers(topo, code.plan)
    doc = {
        "format": "MRLRC v1",
        "kind": code.kind,
        "r": topo.r,
        "delta": topo.delta,
        "t": topo.t,
        "g": topo.g,
        "N": topo.N,
        "k": code.k,
        "h": code.h,
        "p": code.plan.p,
        "s": code.plan.s,
        "m": code.plan.m,
        "modulus": list(code.tower.top.modulus),
        "a": list(a),
        "beta": list(beta),
        "matrices": {"G": g_name, "H": h_name},
    }
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


_BUNDLE_INTS = ("r", "delta", "t", "g", "N", "k", "h", "p", "s", "m")
_BUNDLE_INT_LISTS = ("modulus", "a", "beta")


def _check_bundle_fields(doc) -> None:
    """Raise ValueError unless doc is an MRLRC v1 object whose fields have
    their JSON types: ints, lists of ints, and a matrices object with a
    string H and an optional string G."""
    if not isinstance(doc, dict) or doc.get("format") != "MRLRC v1":
        raise ValueError("not an MRLRC v1 bundle")
    for key in _BUNDLE_INTS:
        if type(doc.get(key)) is not int:
            raise ValueError(f"{key} must be an integer, got {doc.get(key)!r}")
    for key in _BUNDLE_INT_LISTS:
        val = doc.get(key)
        if type(val) is not list or any(type(x) is not int for x in val):
            raise ValueError(f"{key} must be a list of integers, got {val!r}")
    mats = doc.get("matrices")
    if (type(mats) is not dict or type(mats.get("H")) is not str
            or type(mats.get("G", "")) is not str):
        raise ValueError(f"matrices must be an object with a string H and an "
                         f"optional string G, got {mats!r}")


def _check_bundle_matrix(mat: MatrixF, ctx, rows: int, cols: int) -> None:
    if mat.ctx != ctx:
        raise ValueError("matrix field does not match the bundle tower")
    if (mat.rows, mat.cols) != (rows, cols):
        raise ValueError("matrix shapes do not match the bundle parameters")


def read_bundle(path) -> MrLrcCode:
    """Load an MRLRC v1 bundle.

    Validates the format only (field types; k, the tower and its modulus, a
    and beta against the plan; shapes, field); semantic properties of
    tampered matrices are the verify command's job, so that a corrupted
    bundle still loads and then fails verification with a concrete witness.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to parse") from None
    _check_bundle_fields(doc)
    topo = make_topology(doc["r"], doc["delta"], doc["t"], doc["g"], doc["N"])
    plan = plan_field(topo, doc["kind"], h=doc["h"])
    tower = make_tower(plan.p, plan.s, plan.m)
    a, beta = multipliers(topo, plan)
    planned = {"k": plan.k, "p": plan.p, "s": plan.s, "m": plan.m,
               "modulus": list(tower.top.modulus), "a": list(a), "beta": list(beta)}
    for key, want in planned.items():
        if doc[key] != want:
            raise ValueError(f"bundle {key} = {doc[key]} differs from the "
                             f"plan's {want}")
    base_dir = os.path.dirname(os.path.abspath(path))
    n, k = topo.n, plan.k
    # H is checked before G is derived from it: a mis-shaped H would
    # otherwise size the dual's kernel
    h_mat = read_srmat(os.path.join(base_dir, doc["matrices"]["H"]))
    _check_bundle_matrix(h_mat, tower.top, n - k, n)
    g_path = doc["matrices"].get("G")
    g_mat = (read_srmat(os.path.join(base_dir, g_path)) if g_path
             else dual_matrix(h_mat))
    _check_bundle_matrix(g_mat, tower.top, k, n)
    return MrLrcCode(topo, plan, g_mat, h_mat)

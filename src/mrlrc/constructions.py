"""The three explicit MR-LRC constructions, the field-size planner, and
the MRLRC v1 bundle format.

All three constructions share the same skeleton: a small field GF(q) with
q >= max{g+1, r+delta-1} supplies the local MDS codes, and an extension
GF(q^m) supplies the sum-rank-metric outer ingredient built from
norm-distinct units a_1..a_g and Frobenius powers.

  kind "gen":  generator-side.  An outer linearized RS code of dimension
               k over the partition (g, t+N(r-t)) is expanded by the
               local matrix D = [I_t B..B; 0 diag(C..C)]; the global
               generator has entries gamma_c^(q^l) a_i^((q^l-1)/(q-1))
               where gamma = beta * D.  Extension degree m = t + N(r-t).

  kind "pc1":  parity-check side.  Local parities P (one band per repair
               set, built from A = [I_t B; 0 C; 0 D] with the top
               delta-1 rows spanning an MDS code) are stacked over heavy
               rows (G_1 Q | ... | G_g Q), with (G_i) an h-dimensional
               linearized RS generator for the partition (g, hN).
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
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, replace
from math import comb

from .ff import FieldTower, make_tower, is_prime_power, next_prime_power
from .matrix import MatrixF, RankDeficient, block_diag, map_entries, read_srmat, write_srmat
from .localmds import MdsSpec, band_rows, structured_mds, vandermonde_columns
from .sumrank import SumRankPartition, frobenius_rows, lrs_generator
from .topology import Topology, heavy_parity_count, make_topology

KINDS = ("gen", "pc1", "pc2")


class ConstraintViolated(ValueError):
    """A construction precondition failed; the message names the inequality."""


class NotInformationAvailable(ValueError):
    """The core set T contains no information set for this code."""


@dataclass(frozen=True)
class FieldPlan:
    """Field-size plan for one construction kind on one topology.

    q, p, s, m describe the realized tower GF(q=p^s) <= GF(q^m);
    bound_value is the closed-form field-size bound for the kind;
    exact records whether q^m equals bound_value.  For pc2, ell is the
    independence level and sub_s the degree with q^sub_s >= n/g - 1.
    """

    kind: str
    q: int
    p: int
    s: int
    m: int
    bound_value: int
    exact: bool
    ell: int | None = None
    sub_s: int | None = None

    @property
    def field_size(self) -> int:
        return self.q ** self.m


def plan_field(topo: Topology, kind: str, k: int | None = None,
               h: int | None = None) -> FieldPlan:
    """Evaluate the field-size row for the given kind.

    Exactly one of k (kind "gen") or h (kinds "pc1"/"pc2") is required;
    raises ConstraintViolated naming any violated inequality.
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
    dim_cap = topo.max_dimension()
    if kind == "gen":
        if k is None:
            raise ValueError("kind 'gen' plans from the dimension k")
        if not 0 <= k <= dim_cap:
            raise ConstraintViolated(
                f"k <= g(t+N(r-t)) violated: k = {k}, bound = {dim_cap}")
        h = dim_cap - k
    else:
        if h is None:
            raise ValueError(f"kind {kind!r} plans from the heavy-parity count h")
        if not 0 <= h <= dim_cap:
            raise ConstraintViolated(
                f"h <= g(t+N(r-t)) violated: h = {h}, bound = {dim_cap}")
        if kind == "pc1" and h > r:
            raise ConstraintViolated(f"h <= r violated: h = {h} > r = {r}")
    q_raw = max(g + 1, r + delta - 1)
    q = next_prime_power(q_raw)
    p, s = is_prime_power(q)
    if kind == "gen":
        m = t + N * (r - t)
        bound = q_raw ** m
        return FieldPlan(kind, q, p, s, m, bound, exact=(q == q_raw))
    if kind == "pc1":
        m = max(1, h * N)
        bound = q_raw ** (h * N)
        return FieldPlan(kind, q, p, s, m, bound,
                         exact=(q == q_raw and h >= 1))
    # pc2
    ell = g * (N * (delta - 1) + t) + h
    target = topo.group_width - 1  # n/g - 1
    sub_s = 1
    while q ** sub_s < target:
        sub_s += 1
    m = sub_s * ell
    bound = target ** ell
    return FieldPlan(kind, q, p, s, m, bound,
                     exact=(q ** sub_s == target), ell=ell, sub_s=sub_s)


@dataclass(frozen=True)
class MrLrcCode:
    """A constructed MR-LRC: topology, tower, generator and parity-check.

    G and H always satisfy G H^T = 0 with rank(G) = k and rank(H) = n - k.
    For kind pc2, ell is the independence level of the heavy-row beta set
    and the first gN(delta-1) rows of H are the local parity matrix P.
    """

    topo: Topology
    kind: str
    tower: FieldTower
    k: int
    h: int
    G: MatrixF
    H: MatrixF
    a: tuple
    beta: tuple
    plan: FieldPlan
    ell: int | None = None
    info_pivots: tuple | None = None

    @property
    def n(self) -> int:
        return self.topo.n

    def local_parity_matrix(self) -> MatrixF:
        """P: the first gN(delta-1) rows of H (kinds pc1/pc2)."""
        rows = self.topo.local_parity_count()
        return MatrixF(self.H.ctx, self.H.data[:rows], cols=self.H.cols)


def generator_from_parity(h_mat: MatrixF) -> MatrixF:
    """Basis of the right kernel, transposed: G with G H^T = 0."""
    if h_mat.rank() != h_mat.rows:
        raise RankDeficient("parity-check matrix must have full row rank")
    return h_mat.right_kernel().transpose()


def parity_from_generator(g_mat: MatrixF) -> MatrixF:
    """Parity-check of the code generated by g_mat (full-rank input)."""
    if g_mat.rank() != g_mat.rows:
        raise RankDeficient("generator matrix must have full row rank")
    return g_mat.right_kernel().transpose()


def local_generator(topo: Topology, kind: str, ctx) -> MatrixF:
    """The banded local-code generator A for the given kind, over GF(q)."""
    r, delta, t = topo.r, topo.delta, topo.t
    n_loc = r + delta - 1
    if kind == "gen":
        return structured_mds(MdsSpec(ctx, n_loc, r), t, (t, r - t))
    if kind == "pc1":
        raise ValueError("pc1 local generator depends on h; use _pc1_local")
    return structured_mds(MdsSpec(ctx, n_loc, delta - 1), t, (t, delta - 1 - t))


def _pc1_local(topo: Topology, h: int, ctx) -> MatrixF:
    r, delta, t = topo.r, topo.delta, topo.t
    return structured_mds(MdsSpec(ctx, r + delta - 1, h + delta - 1), t,
                          (t, delta - 1 - t, h), check_prefix=delta - 1)


def _local_parity_block(topo: Topology, b: MatrixF, c: MatrixF) -> MatrixF:
    """P_0: N(delta-1) x (t + N seg) over GF(q), one band per repair set.

    Band j enforces the A' = [I_t B; 0 C] parities on repair set R_(i,j):
    rows [I_t | 0 .. B at segment j .. 0] and [0 | 0 .. C at segment j .. 0].
    """
    ctx = b.ctx
    t, N, seg = topo.t, topo.N, topo.seg
    width = topo.group_width
    rows = []
    for j in range(N):
        for local_row in range(t):
            row = [0] * width
            row[local_row] = 1
            row[t + j * seg:t + (j + 1) * seg] = b.data[local_row]
            rows.append(row)
        for local_row in range(c.rows):
            row = [0] * width
            row[t + j * seg:t + (j + 1) * seg] = c.data[local_row]
            rows.append(row)
    return MatrixF(ctx, rows, cols=width)


def _check_code(code: MrLrcCode) -> None:
    """Construction invariants: duality, ranks, and the local property."""
    g_mat, h_mat = code.G, code.H
    n = code.n
    if g_mat.rows != code.k or g_mat.cols != n or h_mat.cols != n:
        raise AssertionError("matrix shapes do not match the parameters")
    if h_mat.rows < n - code.k or h_mat.rank() != n - code.k:
        raise AssertionError("parity-check rank must be n - k")
    if code.k and g_mat.rank() != code.k:
        raise AssertionError("generator rank must be k")
    if not g_mat.mul(h_mat.transpose()).is_zero():
        raise AssertionError("G H^T != 0")
    violations = local_property_violations(code)
    if violations:
        raise AssertionError(violations[0][1])


def local_property_violations(code: MrLrcCode) -> list[tuple[tuple, str]]:
    """(repair set, detail) for every repair set R on which a codeword can
    leave the distance->=delta local MDS code; checked on the generator
    rows against the local ingredients."""
    topo = code.topo
    tower = code.tower
    out = []
    if code.kind == "gen":
        a_loc = local_generator(topo, "gen", tower.base)
        a_emb = map_entries(a_loc, tower.top, tower.embed)
        rank_a = a_emb.rank()
    else:
        a_loc = local_generator(topo, "pc2", tower.base)  # A' = [I_t B; 0 C]
        a_t = map_entries(a_loc, tower.top, tower.embed).transpose()
    for i, sets in enumerate(topo.repair, start=1):
        for j, rs in enumerate(sets, start=1):
            rs = tuple(sorted(rs))
            sub = code.G.restrict_columns(rs)
            if code.kind == "gen":
                stacked = MatrixF(tower.top, a_emb.data + sub.data)
                if stacked.rank() != rank_a:
                    out.append((rs, f"restriction to R_({i},{j}) leaves "
                                    "the local MDS code"))
            elif not sub.mul(a_t).is_zero():
                out.append((rs, f"local parities violated on R_({i},{j})"))
    return out


def construct_gen(topo: Topology, k: int) -> MrLrcCode:
    """Generator-side construction of dimension k; h = g(t+N(r-t)) - k."""
    plan = plan_field(topo, "gen", k=k)
    h = heavy_parity_count(topo, k)
    tower = make_tower(plan.p, plan.s, plan.m)
    base, top = tower.base, tower.top
    t, N, seg = topo.t, topo.N, topo.seg
    a_loc = local_generator(topo, "gen", base)
    b, c = band_rows(a_loc, (t, topo.r - t))
    b_cols = [row[t:] for row in b.data]
    c_cols = [row[t:] for row in c.data]
    # D: [I_t | B B .. B] over [0 | diag(C, .., C)]
    width = topo.group_width
    d_rows = []
    for i in range(t):
        row = [0] * width
        row[i] = 1
        for j in range(N):
            row[t + j * seg:t + (j + 1) * seg] = b_cols[i]
        d_rows.append(row)
    for j in range(N):
        for i in range(topo.r - t):
            row = [0] * width
            row[t + j * seg:t + (j + 1) * seg] = c_cols[i]
            d_rows.append(row)
    d_mat = MatrixF(base, d_rows, cols=width)
    beta = tower.polynomial_basis
    gamma = tuple(
        tower.from_base_coords(d_mat.column(cidx)) for cidx in range(width)
    )
    a = tower.distinct_norm_elements(topo.g)
    g_mat = frobenius_rows(tower, gamma, a, k)
    h_mat = parity_from_generator(g_mat) if k else MatrixF.identity(top, topo.n)
    code = MrLrcCode(topo=topo, kind="gen", tower=tower, k=k, h=h,
                     G=g_mat, H=h_mat, a=a, beta=beta, plan=plan)
    _check_code(code)
    return code


def construct_pc1(topo: Topology, h: int) -> MrLrcCode:
    """First parity-check construction; k = g(t+N(r-t)) - h, requires h <= r."""
    plan = plan_field(topo, "pc1", h=h)
    k = topo.max_dimension() - h
    tower = make_tower(plan.p, plan.s, plan.m)
    base, top = tower.base, tower.top
    t, N, seg, delta = topo.t, topo.N, topo.seg, topo.delta
    a_loc = _pc1_local(topo, h, base)
    b, c, d = band_rows(a_loc, (t, delta - 1 - t, h))
    b_strip = MatrixF(base, [row[t:] for row in b.data], cols=seg)
    c_strip = MatrixF(base, [row[t:] for row in c.data], cols=seg)
    d_strip = MatrixF(base, [row[t:] for row in d.data], cols=seg)
    p0 = _local_parity_block(topo, b_strip, c_strip)
    width = topo.group_width
    q_rows = []
    for j in range(N):
        for i in range(h):
            row = [0] * width
            row[t + j * seg:t + (j + 1) * seg] = d_strip.data[i]
            q_rows.append(row)
    q_mat = MatrixF(base, q_rows, cols=width)
    p_emb = map_entries(p0, top, tower.embed)
    q_emb = map_entries(q_mat, top, tower.embed)
    if h:
        part = SumRankPartition(tower, topo.g, h * N)
        lrs = lrs_generator(part, h)
        a, beta = lrs.a, lrs.beta
        heavy_blocks = []
        for i in range(topo.g):
            gi = lrs.generator.restrict_columns(
                range(i * h * N + 1, (i + 1) * h * N + 1))
            heavy_blocks.append(gi.mul(q_emb))
        heavy = heavy_blocks[0]
        for blk in heavy_blocks[1:]:
            heavy = heavy.hstack(blk)
        h_mat = block_diag([p_emb] * topo.g).vstack(heavy)
    else:
        a = tower.distinct_norm_elements(topo.g)
        beta = ()
        h_mat = block_diag([p_emb] * topo.g)
    g_mat = generator_from_parity(h_mat)
    code = MrLrcCode(topo=topo, kind="pc1", tower=tower, k=k, h=h,
                     G=g_mat, H=h_mat, a=a, beta=beta, plan=plan)
    _check_code(code)
    return code


def construct_pc2(topo: Topology, h: int) -> MrLrcCode:
    """Second parity-check construction; k = g(t+N(r-t)) - h.

    The heavy-row multipliers beta_1..beta_(n/g) form an l-wise
    GF(q)-linearly independent set, l = g(N(delta-1)+t)+h, obtained by
    column-expanding a tall RS evaluation matrix over GF(q^s) and
    contracting against the polynomial basis of GF(q^m), m = s*l.
    """
    plan = plan_field(topo, "pc2", h=h)
    k = topo.max_dimension() - h
    tower = make_tower(plan.p, plan.s, plan.m)
    base, top = tower.base, tower.top
    t, delta = topo.t, topo.delta
    width = topo.group_width
    ell, sub_s = plan.ell, plan.sub_s
    a_loc = local_generator(topo, "pc2", base)
    b, c = band_rows(a_loc, (t, delta - 1 - t))
    b_strip = MatrixF(base, [row[t:] for row in b.data], cols=topo.seg)
    c_strip = MatrixF(base, [row[t:] for row in c.data], cols=topo.seg)
    p0 = _local_parity_block(topo, b_strip, c_strip)
    p_emb = map_entries(p0, top, tower.embed)
    # tall RS evaluation matrix over GF(q^sub_s): any min(ell, n/g) columns
    # are independent; expand its entries column-wise into GF(q) rows
    sub_tower = make_tower(plan.p, plan.s, sub_s)
    h_tilde = vandermonde_columns(sub_tower.top, ell, width)
    expanded_rows = [[0] * width for _ in range(sub_s * ell)]
    for i in range(ell):
        for j in range(width):
            for u, coord in enumerate(sub_tower.base_coords(h_tilde[i, j])):
                expanded_rows[i * sub_s + u][j] = coord
    alpha = tower.polynomial_basis  # m = sub_s * ell elements
    beta = tuple(
        tower.from_base_coords([expanded_rows[v][j] for v in range(sub_s * ell)])
        for j in range(width)
    )
    a = tower.distinct_norm_elements(topo.g)
    heavy = frobenius_rows(tower, beta, a, h)
    h_mat = block_diag([p_emb] * topo.g)
    if h:
        h_mat = h_mat.vstack(heavy)
    g_mat = generator_from_parity(h_mat)
    code = MrLrcCode(topo=topo, kind="pc2", tower=tower, k=k, h=h,
                     G=g_mat, H=h_mat, a=a, beta=beta, plan=plan, ell=ell)
    _check_code(code)
    _check_ell_wise_independent(code)
    return code


def _check_ell_wise_independent(code: MrLrcCode, subset_cap: int = 2000) -> None:
    """Any min(ell, n/g) of the beta multipliers must be GF(q)-independent.

    Guaranteed by the RS expansion; asserted anyway.  Exhausts all subsets
    of size min(ell, n/g) up to subset_cap of them, and always checks that
    the full set has the maximal possible rank."""
    tower = code.tower
    base = tower.base
    cols = [tower.base_coords(x) for x in code.beta]
    full = MatrixF(base, list(zip(*cols)), cols=len(cols))
    size = min(code.ell, len(cols))
    if full.rank() < size:
        raise AssertionError("beta multipliers are not ell-wise independent")
    if comb(len(cols), size) <= subset_cap:
        for sel in itertools.combinations(range(1, len(cols) + 1), size):
            if full.restrict_columns(sel).rank() != size:
                raise AssertionError(
                    f"beta subset {sel} is GF(q)-linearly dependent")


def construct(topo: Topology, kind: str, k: int | None = None,
              h: int | None = None) -> MrLrcCode:
    """Dispatch to the requested construction from k or h."""
    if kind == "gen":
        if k is None:
            k = topo.max_dimension() - h
        return construct_gen(topo, k)
    if h is None:
        h = heavy_parity_count(topo, k)
    if kind == "pc1":
        return construct_pc1(topo, h)
    if kind == "pc2":
        return construct_pc2(topo, h)
    raise ValueError(f"unknown kind {kind!r}")


def encode(code: MrLrcCode, message) -> tuple:
    """Codeword x G for a length-k message over GF(q^m)."""
    msg = tuple(message)
    if len(msg) != code.k:
        raise ValueError(f"message length must be k = {code.k}")
    row = MatrixF(code.tower.top, [msg], cols=code.k)
    return row.mul(code.G).data[0]


def systematic_info_placement(code: MrLrcCode) -> MrLrcCode:
    """Row-reduce G to be systematic on k coordinates inside T = u T_i.

    Establishes information availability; requires k <= gt and raises
    NotInformationAvailable (with the achieved rank) when T contains no
    information set.
    """
    topo = code.topo
    if code.k > topo.g * topo.t:
        raise ConstraintViolated(
            f"k <= gt violated: k = {code.k} > {topo.g * topo.t}")
    t_coords = sorted(c for core in topo.cores for c in core)
    sub = code.G.restrict_columns(t_coords)
    # greedy leftmost independent columns of G|_T
    pivots = []
    for idx, coord in enumerate(t_coords):
        trial = pivots + [idx + 1]
        if sub.restrict_columns(trial).rank() == len(trial):
            pivots.append(idx + 1)
        if len(pivots) == code.k:
            break
    if len(pivots) < code.k:
        raise NotInformationAvailable(
            f"rank of G restricted to T is {len(pivots)} < k = {code.k}")
    pivot_coords = [t_coords[i - 1] for i in pivots]
    g_sys = code.G.systematic_form(pivot_coords)
    return replace(code, G=g_sys, info_pivots=tuple(pivot_coords))


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
        "a": list(code.a),
        "beta": list(code.beta),
        "matrices": {"G": g_name, "H": h_name},
    }
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def read_bundle(path) -> MrLrcCode:
    """Load an MRLRC v1 bundle.

    Validates the format only (shapes, field, canonical modulus); semantic
    properties of tampered matrices are the verify command's job, so that
    a corrupted bundle still loads and then fails verification with a
    concrete witness.
    """
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    if doc.get("format") != "MRLRC v1":
        raise ValueError("not an MRLRC v1 bundle")
    kind = doc["kind"]
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    mode = "availability" if doc["t"] <= doc["delta"] - 1 else "plain"
    topo = make_topology(doc["r"], doc["delta"], doc["t"], doc["g"], doc["N"],
                         mode=mode)
    tower = make_tower(doc["p"], doc["s"], doc["m"])
    if list(tower.top.modulus) != doc["modulus"]:
        raise ValueError("bundle modulus differs from the canonical choice")
    base_dir = os.path.dirname(os.path.abspath(path))
    h_mat = read_srmat(os.path.join(base_dir, doc["matrices"]["H"]))
    g_path = doc["matrices"].get("G")
    g_mat = (read_srmat(os.path.join(base_dir, g_path)) if g_path
             else generator_from_parity(h_mat))
    if g_mat.ctx != tower.top or h_mat.ctx != tower.top:
        raise ValueError("matrix field does not match the bundle tower")
    n = topo.n
    if g_mat.cols != n or h_mat.cols != n or g_mat.rows != doc["k"]:
        raise ValueError("matrix shapes do not match the bundle parameters")
    if kind == "gen":
        plan = plan_field(topo, kind, k=doc["k"])
    else:
        plan = plan_field(topo, kind, h=doc["h"])
    return MrLrcCode(topo=topo, kind=kind, tower=tower, k=doc["k"],
                     h=doc["h"], G=g_mat, H=h_mat, a=tuple(doc["a"]),
                     beta=tuple(doc["beta"]), plan=plan,
                     ell=plan.ell if kind == "pc2" else None)

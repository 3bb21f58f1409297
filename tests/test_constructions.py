"""Field-size planner, the three constructions, conversions, bundles."""

import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlrc import constructions
from mrlrc.elim import inverse
from mrlrc.cli import main
from mrlrc.ff import make_tower
from mrlrc.matrix import MatrixF, RankDeficient, map_entries, read_srmat, write_srmat
from mrlrc.constructions import (
    KINDS, BoundTooLong, ConstraintViolated, MrLrcCode, NotInformationAvailable,
    bounded_power, construct, dual_matrix, encode, local_generator, multipliers,
    plan_field, premise_violations, read_bundle, split_size, systematic_info_placement,
    write_bundle,
)
from mrlrc.topology import make_topology
from mrlrc.verify import table1_row, verify_mr_exhaustive, verify_mr_sampled
from test_byte_stability import bvs, mutants


# -- planner


def test_bounded_power_refuses_only_unwritable_powers():
    limit = sys.get_int_max_str_digits()
    # a power within float error of the limit is computed; writing it decides
    assert bounded_power(10, limit - 1) == 10 ** (limit - 1)
    assert bounded_power(10, limit + 1) == 10 ** (limit + 1)
    with pytest.raises(BoundTooLong, match=f"more than {limit} decimal digits"):
        bounded_power(10, limit + 2)
    assert bounded_power(1, 10 ** 18) == 1 and bounded_power(0, 10 ** 18) == 0
    # each kind's bound is refused before its power, not marked inapplicable
    topo = make_topology(10 ** 8, 2, 1, 1, 1)
    for kind in KINDS:
        with pytest.raises(BoundTooLong):
            plan_field(topo, kind, k=1)


def test_plan_gen_fig1():
    plan = plan_field(make_topology(3, 3, 2, 8, 2), "gen", k=16)
    assert (plan.q, plan.m, plan.bound_value) == (9, 4, 6561)
    assert plan.exact and plan.field_size == 6561


def test_plan_pc1_example():
    plan = plan_field(make_topology(2, 2, 1, 2, 2), "pc1", h=2)
    assert (plan.q, plan.m, plan.bound_value) == (3, 4, 81)
    assert plan.exact


def test_plan_pc1_h_exceeds_r():
    with pytest.raises(ConstraintViolated, match="h <= r"):
        plan_field(make_topology(2, 2, 1, 2, 2), "pc1", h=3)


def test_plan_pc2_example():
    plan = plan_field(make_topology(2, 2, 1, 2, 1), "pc2", h=1)
    assert (plan.q, plan.ell, plan.sub_s, plan.m) == (3, 5, 1, 5)
    assert plan.bound_value == 2 ** 5   # (n/g - 1)^ell
    assert plan.field_size == 3 ** 5    # realized over GF(3)


def test_plan_pc2_exact_when_target_is_power_of_q():
    # n/g - 1 = t + N(r+delta-1-t) - 1 = 4 = q with q = max{g+1, 3} = 4
    plan = plan_field(make_topology(2, 2, 1, 3, 2), "pc2", h=1)
    assert plan.q == 4 and plan.sub_s == 1
    assert plan.exact and plan.field_size == plan.bound_value


def test_plan_k_too_large():
    with pytest.raises(ConstraintViolated, match=r"k <= g\(t\+N\(r-t\)\)"):
        plan_field(make_topology(2, 2, 1, 2, 2), "gen", k=7)


def test_plan_t_constraint_only_for_parity_kinds():
    topo = make_topology(3, 2, 2, 2, 2)  # t = 2 > delta - 1 = 1
    plan_field(topo, "gen", k=6)  # allowed: recoverability only needs t <= r
    with pytest.raises(ConstraintViolated, match="t <= min"):
        plan_field(topo, "pc1", h=1)
    with pytest.raises(ConstraintViolated, match="t <= min"):
        plan_field(topo, "pc2", h=1)


# -- generator-side construction


def test_gen_desk_example():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "gen", k=3)
    assert (code.n, code.h) == (6, 1)
    assert (code.plan.q, code.plan.m) == (3, 2)
    assert verify_mr_exhaustive(code).passed


def test_gen_equals_outer_times_diag():
    # the explicit gamma-power matrix is the outer LRS generator times diag(D)
    from mrlrc.sumrank import SumRankPartition, lrs_generator
    from mrlrc.matrix import block_diag

    topo = make_topology(2, 2, 1, 2, 2)
    k = 5
    code = construct(topo, "gen", k=k)
    tower = code.tower
    part = SumRankPartition(tower, topo.g, tower.m)
    outer = lrs_generator(part, k)
    # rebuild D from the local generator bands
    a_loc = local_generator(topo, "gen", tower.base)
    t, seg = topo.t, topo.seg
    width = topo.group_width
    rows = []
    for i in range(t):
        row = [0] * width
        row[i] = 1
        for j in range(topo.N):
            row[t + j * seg:t + (j + 1) * seg] = a_loc.data[i][t:]
        rows.append(row)
    for j in range(topo.N):
        for i in range(t, topo.r):
            row = [0] * width
            row[t + j * seg:t + (j + 1) * seg] = a_loc.data[i][t:]
            rows.append(row)
    d_emb = map_entries(MatrixF(tower.base, rows), tower.top, tower.embed)
    product = outer.generator.mul(block_diag([d_emb] * topo.g))
    assert product == code.G


PC1_SWEEP = [
    ((r, delta, t, g, n_avail), h)
    for r in (1, 2, 3) for delta in (2, 3) for t in (1, 2)
    if t <= min(delta - 1, r)
    for g in (1, 2, 3) for n_avail in (1, 2) for h in range(1, r + 1)
]


@pytest.mark.parametrize("params,h", PC1_SWEEP, ids=[
    "r{}-d{}-t{}-g{}-N{}".format(*params) + f"-h{h}" for params, h in PC1_SWEEP])
def test_pc1_heavy_rows_equal_lrs_blocks_times_q(params, h):
    # the heavy rows are (G_1 Q | ... | G_g Q), with (G_i) the blocks of
    # the h-dimensional LRS generator for the partition (g, hN) and Q the
    # D band of the local generator placed on the repair segments
    from mrlrc.constructions import _pc1_local
    from mrlrc.sumrank import SumRankPartition, lrs_generator

    topo = make_topology(*params)
    code = construct(topo, "pc1", h=h)
    tower = code.tower
    t, seg, hn = topo.t, topo.seg, h * topo.N
    d_band = _pc1_local(topo, h, tower.base).data[topo.delta - 1:]
    q_rows = []
    for j in range(topo.N):
        for src in d_band:
            row = [0] * topo.group_width
            row[t + j * seg:t + (j + 1) * seg] = src[t:]
            q_rows.append(row)
    q_emb = map_entries(MatrixF(tower.base, q_rows), tower.top, tower.embed)
    lrs = lrs_generator(SumRankPartition(tower, topo.g, hn), h)
    blocks = [lrs.generator.restrict_columns(range(i * hn + 1, (i + 1) * hn + 1))
              .mul(q_emb).data for i in range(topo.g)]
    heavy = tuple(sum(block_rows, ()) for block_rows in zip(*blocks))
    assert code.H.data[topo.local_parity_count():] == heavy
    assert multipliers(topo, code.plan) == (lrs.a, lrs.beta)


def test_gen_h0_square_restrictions():
    from mrlrc.topology import enumerate_maximal_patterns

    topo = make_topology(2, 2, 1, 2, 1)
    k = topo.max_dimension()
    code = construct(topo, "gen", k=k)
    assert code.h == 0
    for pat in enumerate_maximal_patterns(topo):
        comp = [c for c in topo.coords if c not in set(pat)]
        sub = code.G.restrict_columns(comp)
        assert sub.rows == sub.cols == k
        assert sub.det() != 0
    assert verify_mr_exhaustive(code).passed


def test_gen_availability_parity_accounting():
    # t = delta-1 = 1, N = 2, k = gt: local parities kN, halving the
    # per-symbol-repair-set baseline kN(delta-1) of t=1 designs
    topo = make_topology(2, 2, 1, 4, 2)
    k = topo.g * topo.t
    assert topo.local_parity_count() == k * topo.N
    code = construct(topo, "gen", k=k)
    _, pivots = systematic_info_placement(code)
    assert pivots == tuple(sorted(c for core in topo.cores for c in core))


def test_gen_duality_invariants():
    topo = make_topology(2, 3, 1, 2, 1)
    code = construct(topo, "gen", k=3)
    assert code.G.mul(code.H.transpose()).is_zero()
    assert code.G.rank() == code.k
    assert code.H.rank() == code.n - code.k
    assert code.plan.field_size == code.tower.top.order


# -- parity-check constructions


def test_pc1_desk_example():
    topo = make_topology(2, 2, 1, 2, 2)
    code = construct(topo, "pc1", h=2)
    assert (code.n, code.k) == (10, 4)
    assert code.tower.top.order == 81
    assert verify_mr_exhaustive(code).passed


def test_pc1_h0_product_of_local_codes():
    topo = make_topology(2, 2, 1, 2, 2)
    code = construct(topo, "pc1", h=0)
    assert code.k == topo.max_dimension()
    assert code.H.rows == topo.local_parity_count()
    assert verify_mr_exhaustive(code).passed


def test_pc1_h_too_large():
    with pytest.raises(ConstraintViolated, match="h <= r"):
        construct(make_topology(2, 2, 1, 2, 2), "pc1", h=3)


def test_pc1_heavy_row_count():
    topo = make_topology(2, 2, 1, 2, 2)
    code = construct(topo, "pc1", h=1)
    assert code.H.rows == topo.local_parity_count() + 1
    g2 = dual_matrix(code.H)
    assert g2.rows == code.k


def test_pc2_desk_example():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "pc2", h=1)
    assert code.ell == 5
    assert code.tower.top.order == 3 ** 5
    assert verify_mr_exhaustive(code).passed


def test_pc2_beta_subsets_independent():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "pc2", h=1)
    tower = code.tower
    _, beta = multipliers(topo, code.plan)
    size = min(code.ell, len(beta))
    cols = [tower.base_coords(x) for x in beta]
    full = MatrixF(tower.base, list(zip(*cols)), cols=len(cols))
    for sel in itertools.combinations(range(1, len(beta) + 1), size):
        assert full.restrict_columns(sel).rank() == size


def test_pc2_h0():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "pc2", h=0)
    assert code.k == topo.max_dimension()
    assert verify_mr_exhaustive(code).passed


# pc1 (2,3,1,1,1) h=1: a band of 2 + 3 - 1 = 4 columns over GF(4), whose
# top delta-1 = 2 rows have C(4, 2) = 6 column pairs to walk
PC1_SMALL = (2, 3, 1, 1, 1)


def _plant_in_band(monkeypatch, edit):
    # every band structured_mds builds in constructions, its rows edited
    real = constructions.structured_mds

    def planted(ctx, n, k, t):
        rows = [list(row) for row in real(ctx, n, k, t).data]
        edit(rows)
        return MatrixF(ctx, rows, cols=n)

    monkeypatch.setattr(constructions, "structured_mds", planted)


def _copy_column(src, dst):
    def edit(rows):
        for row in rows:
            row[dst] = row[src]
    return edit


def _zero_top_row(rows):
    rows[0] = [0] * len(rows[0])


def test_pc1_past_its_walk_cap_builds_on_the_rank_check(monkeypatch):
    # C(26, 9) = 3,124,550 subsets of the top delta-1 = 9 rows exceed
    # LOCAL_MDS_SUBSET_CAP, so only the rank is checked; bounds lists the
    # same sizes as realized
    topo = make_topology(17, 10, 1, 1, 1)
    walks = []
    real = MatrixF.first_dependent
    monkeypatch.setattr(MatrixF, "first_dependent",
                        lambda mat, size: walks.append(size) or real(mat, size))
    code = construct(topo, "pc1", h=1)
    assert (code.n, code.k, code.tower.top.order) == (26, 16, 27)
    assert walks == []
    assert table1_row(topo, h=1)["pc1"]["field_size"] == 27


def test_pc1_planted_dependency_within_the_cap_is_named(monkeypatch):
    _plant_in_band(monkeypatch, _copy_column(2, 3))
    with pytest.raises(AssertionError, match=r"^columns \(3, 4\) of pc1's top "
                       r"delta-1 local rows are linearly dependent$"):
        construct(make_topology(*PC1_SMALL), "pc1", h=1)


def test_pc1_past_the_cap_checks_rank_only(monkeypatch):
    # with the cap below the 6 pairs, a planted dependency of full rank
    # builds, and a zero top row, which drops the rank, is still refused
    monkeypatch.setattr(constructions, "LOCAL_MDS_SUBSET_CAP", 5)
    _plant_in_band(monkeypatch, _copy_column(2, 3))
    code = construct(make_topology(*PC1_SMALL), "pc1", h=1)
    assert code.H.column(2) == code.H.column(3)
    monkeypatch.undo()
    monkeypatch.setattr(constructions, "LOCAL_MDS_SUBSET_CAP", 5)
    _plant_in_band(monkeypatch, _zero_top_row)
    with pytest.raises(AssertionError, match=r"^columns \(1, 2\) of pc1's top"):
        construct(make_topology(*PC1_SMALL), "pc1", h=1)


def test_pc2_planted_dependent_beta_is_named(monkeypatch):
    # pc2 (6,2,1,1,1) h=1: 7 beta multipliers, any ell = 3 independent,
    # C(7, 3) = 35 subsets walked; equal beta_6 and beta_7 keep full rank,
    # and the first dependent subset is (1, 6, 7)
    real = constructions.multipliers

    def planted(topo, plan):
        a, beta = real(topo, plan)
        return a, beta[:6] + beta[5:6]

    monkeypatch.setattr(constructions, "multipliers", planted)
    with pytest.raises(AssertionError, match=r"^columns \(1, 6, 7\) of the beta "
                       r"multipliers' GF\(q\) coordinates are linearly dependent$"):
        construct(make_topology(6, 2, 1, 1, 1), "pc2", h=1)


def test_gen_vs_pc1_same_verification_suite():
    # parameters admissible to both constructions: both pass the same sweep
    topo = make_topology(2, 2, 1, 2, 2)
    h = 1
    k = topo.max_dimension() - h
    for code in (construct(topo, "gen", k=k), construct(topo, "pc1", h=h)):
        for side in ("generator", "parity"):
            assert verify_mr_exhaustive(code, side=side).passed


# -- conversions and placement


def test_round_trip_generator_parity():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "gen", k=3)
    h2 = dual_matrix(code.G)
    g2 = dual_matrix(h2)
    stacked = MatrixF(code.G.ctx, code.G.data + g2.data)
    assert stacked.rank() == code.k  # same row space
    with pytest.raises(RankDeficient):
        dual_matrix(MatrixF(code.G.ctx, [[0] * code.n]))


def test_parity_from_identity_block():
    from mrlrc.ff import field_ctx

    f3 = field_ctx(3)
    h = MatrixF(f3, [[0, 0, 1, 0], [0, 0, 0, 1]])
    g = dual_matrix(h)
    stacked = MatrixF(f3, list(g.data) + [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert g.rows == 2 and stacked.rank() == 2


def test_info_placement_requires_small_k():
    topo = make_topology(2, 2, 1, 2, 2)
    code = construct(topo, "gen", k=5)  # k = 5 > gt = 2
    with pytest.raises(ConstraintViolated, match="k <= gt"):
        systematic_info_placement(code)


def test_info_placement_fig1():
    topo = make_topology(3, 3, 2, 8, 2)
    code = construct(topo, "gen", k=16)  # k = gt
    placed, pivots = systematic_info_placement(code)
    t_coords = tuple(sorted(c for core in topo.cores for c in core))
    assert pivots == t_coords
    sub = placed.G.restrict_columns(t_coords)
    assert sub == MatrixF.identity(placed.G.ctx, 16)


def info_placement_oracle(code):
    """Greedy leftmost independent columns of G|_T, one rank per
    candidate, then (G|_P)^-1 G."""
    pivots = []
    for coord in sorted(c for core in code.topo.cores for c in core):
        if len(pivots) == code.k:
            break
        if code.G.rank(pivots + [coord]) == len(pivots) + 1:
            pivots.append(coord)
    if len(pivots) < code.k:
        return None, tuple(pivots)
    t_inv = inverse(code.G.restrict_columns(pivots).data, code.G.ctx)
    return MatrixF(code.G.ctx, t_inv, cols=code.k).mul(code.G), tuple(pivots)


# the reference topologies and the benchmark's exhaustive_table ones
INFO_TOPOLOGIES = [(2, 2, 1, 2, 2), (2, 3, 1, 2, 1), (3, 2, 2, 2, 2),
                   (2, 2, 1, 2, 1), (2, 2, 1, 3, 2), (2, 2, 1, 3, 1)]


def plans(kind, params, k):
    try:
        plan_field(make_topology(*params), kind, k=k)
    except ConstraintViolated:
        return False
    return True


INFO_CASES = [
    (kind, params, k)
    for params in INFO_TOPOLOGIES for kind in KINDS
    for k in range(params[3] * params[2] + 1)
    if plans(kind, params, k)
]


@pytest.mark.parametrize("kind,params,k", INFO_CASES, ids=[
    f"{kind}-" + "r{}-d{}-t{}-g{}-N{}".format(*params) + f"-k{k}"
    for kind, params, k in INFO_CASES])
def test_info_placement_matches_greedy_oracle(kind, params, k):
    code = construct(make_topology(*params), kind, k=k)
    placed, pivots = systematic_info_placement(code)
    assert (placed.G, pivots) == info_placement_oracle(code)
    assert placed.G.rows == k and placed.G.cols == code.n


@pytest.mark.parametrize("kept", [0, 1])
def test_info_placement_needs_an_information_set_in_t(kept):
    # G zeroed on T but for its first `kept` columns has rank kept there
    topo = make_topology(2, 2, 1, 2, 2)
    code = construct(topo, "gen", k=2)
    zeroed = sorted(c - 1 for core in topo.cores for c in core)[kept:]
    g = MatrixF(code.G.ctx, [[0 if j in zeroed else v for j, v in enumerate(row)]
                             for row in code.G.data])
    with pytest.raises(NotInformationAvailable,
                       match=rf"^rank of G restricted to T is {kept} < k = 2$"):
        systematic_info_placement(dataclasses.replace(code, G=g))


def test_construct_dispatch():
    topo = make_topology(2, 2, 1, 2, 2)
    by_k = construct(topo, "pc1", k=5)
    assert by_k.h == split_size(topo, k=5)[1] == 1
    by_h = construct(topo, "gen", h=1)
    assert by_h.k == topo.max_dimension() - 1


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_construct_from_k_equals_construct_from_h(data):
    # one size rule: k and h = g(t+N(r-t)) - k build the same code
    r = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, r))
    topo = make_topology(r, data.draw(st.integers(2, 3)), t,
                data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
    cap = topo.max_dimension()
    k = data.draw(st.integers(0, cap))
    for kind in KINDS:
        try:
            plan = plan_field(topo, kind, k=k)
        except ConstraintViolated:
            continue  # the kind does not apply to this topology and size
        if plan.field_size > 2 ** 16:
            continue  # keep the property fast: table fields only
        by_k, by_h = construct(topo, kind, k=k), construct(topo, kind, h=cap - k)
        assert (by_k.G, by_k.H, by_k.plan) == (by_h.G, by_h.H, by_h.plan)
        assert (by_k.plan.k, by_k.plan.h) == (k, cap - k)


# -- encode and bundles


def test_encode_shape_and_membership():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "gen", k=3)
    cw = encode(code, (1, 2, 3))
    assert len(cw) == code.n
    col = MatrixF(code.tower.top, [(v,) for v in cw], cols=1)
    assert code.H.mul(col).is_zero()
    with pytest.raises(ValueError):
        encode(code, (1, 2))


def test_bundle_round_trip(tmp_path):
    topo = make_topology(2, 2, 1, 2, 2)
    placed, _ = systematic_info_placement(construct(topo, "gen", k=2))
    for name, code in (("gen", construct(topo, "gen", k=5)),
                       ("pc1", construct(topo, "pc1", h=2)),
                       ("pc2", construct(make_topology(2, 2, 1, 2, 1), "pc2", h=1)),
                       ("placed", placed)):
        assert read_bundle(write_bundle(code, tmp_path / name)) == code
    # equality compares every field, and a code's fields are only what a
    # bundle cannot derive from its plan
    assert [f.name for f in dataclasses.fields(MrLrcCode)] == [
        "topo", "plan", "G", "H"]


def test_bundle_bytes_deterministic(tmp_path):
    topo = make_topology(2, 2, 1, 2, 2)
    code = construct(topo, "gen", k=5)
    p1 = write_bundle(code, tmp_path / "one")
    p2 = write_bundle(construct(topo, "gen", k=5), tmp_path / "two")
    for suffix in (".json", ".G.srmat", ".H.srmat"):
        assert (Path(str(p1)[:-5] + suffix).read_bytes()
                == Path(str(p2)[:-5] + suffix).read_bytes())


def test_bundle_rejects_tampered_modulus(tmp_path, capsys):
    # a tower edit keeps the bundle self-consistent: the canonical modulus
    # of the edited tower, and both matrices over its top field
    for params, k, edit in (
        ((2, 2, 1, 2, 1), 3, {"modulus": [2, 1, 1]}),
        # GF(2^6) <= GF(2^6), where the plan says GF(4) <= GF(4^3)
        ((3, 2, 1, 2, 1), 4, {"s": 6, "m": 1}),
        # GF(5) <= GF(5^2) and GF(3) <= GF(3^3), where the plan says
        # GF(3) <= GF(3^2)
        ((2, 2, 1, 2, 1), 3, {"p": 5}),
        ((2, 2, 1, 2, 1), 3, {"m": 3}),
    ):
        out = tmp_path / "-".join(edit)
        path = write_bundle(construct(make_topology(*params), "gen", k=k), out)
        doc = {**json.loads(Path(path).read_text()), **edit}
        if "modulus" not in edit:
            top = make_tower(doc["p"], doc["s"], doc["m"]).top
            doc["modulus"] = list(top.modulus)
            for name in doc["matrices"].values():
                mat = read_srmat(out / name)
                write_srmat(MatrixF(top, mat.data, cols=mat.cols), out / name)
        Path(path).write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="differs from the plan's"):
            read_bundle(path)
        assert main(["verify", path]) == 1
        assert "cannot load bundle" in capsys.readouterr().err


def test_bundle_rejects_tampered_multipliers(tmp_path, capsys):
    # a and beta follow from the plan's tower; each edit loads and verifies
    # when the bundle's own values are trusted
    gen = construct(make_topology(2, 2, 1, 2, 2), "gen", k=5)
    pc1 = construct(make_topology(2, 2, 1, 2, 2), "pc1", h=2)
    pc2 = construct(make_topology(2, 2, 1, 2, 1), "pc2", h=1)
    for name, code, edit in (
        ("gen-foreign", gen, lambda doc: {"a": [10 ** 30, -5], "beta": []}),
        ("gen-a-reversed", gen, lambda doc: {"a": doc["a"][::-1]}),
        ("pc2-beta-reversed", pc2, lambda doc: {"beta": doc["beta"][::-1]}),
        ("pc1-beta-empty", pc1, lambda doc: {"beta": []}),
    ):
        path = write_bundle(code, tmp_path / name)
        doc = json.loads(Path(path).read_text())
        Path(path).write_text(json.dumps({**doc, **edit(doc)}))
        with pytest.raises(ValueError, match="differs from the plan's"):
            read_bundle(path)
        assert main(["verify", path]) == 1
        assert "cannot load bundle" in capsys.readouterr().err


def test_bundle_rejects_untrusted_k_and_h(tmp_path):
    path = write_bundle(construct(make_topology(2, 2, 1, 2, 2), "gen", k=5), tmp_path)
    doc = json.loads(Path(path).read_text())
    for bad in ({"h": 0}, {"h": 2}, {"k": 4}, {"h": "x"}, {"k": 5.0}, {"h": True}):
        Path(path).write_text(json.dumps({**doc, **bad}))
        with pytest.raises(ValueError):
            read_bundle(path)
    Path(path).write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="not an MRLRC v1 bundle"):
        read_bundle(path)


def test_local_property_enforced_at_build():
    # direct check: generator rows restricted to a repair set obey the
    # local parities (pc kinds) / live in the local code (gen kind)
    topo = make_topology(2, 3, 1, 2, 1)
    code = construct(topo, "gen", k=3)
    tower = code.tower
    a_loc = local_generator(topo, "gen", tower.base)
    a_emb = map_entries(a_loc, tower.top, tower.embed)
    for sets in topo.repair:
        for rs in sets:
            sub = code.G.restrict_columns(sorted(rs))
            stacked = MatrixF(tower.top, a_emb.data + sub.data)
            assert stacked.rank() == a_emb.rank()


def test_local_generator_serves_gen_and_pc2_only():
    code = construct(make_topology(2, 2, 1, 2, 2), "gen", k=5)
    with pytest.raises(ValueError, match="'gen' and 'pc2'"):
        local_generator(code.topo, "pc1", code.tower.base)


def test_gen_delta_one_has_no_local_parities():
    # delta = 1: the local code is all of GF(q)^r, its dual has no rows,
    # and the local-property product G|_R Pi^T has no columns to check
    code = construct(make_topology(2, 1, 1, 2, 1), "gen", k=3)
    assert (code.n, code.k, code.h) == (4, 3, 1)
    assert dual_matrix(local_generator(code.topo, "gen", code.tower.base)).rows == 0
    for side in ("generator", "parity"):
        assert verify_mr_exhaustive(code, side=side).passed


def premise_oracle(code):
    """premise_violations as one matrix product per check: G H^T, the two
    ranks, then G|_R Pi^T for each repair set R in turn, Pi embedded
    once per code."""
    out = []
    if not code.G.mul(code.H.transpose()).is_zero():
        out.append(((), "G H^T != 0"))
    if code.G.rank() != code.k:
        out.append(((), f"rank(G) != k = {code.k}"))
    if code.H.rank() != code.n - code.k:
        out.append(((), f"rank(H) != n - k = {code.n - code.k}"))
    topo, tower = code.topo, code.tower
    if code.kind == "gen":
        pi = dual_matrix(local_generator(topo, "gen", tower.base))
        detail = "restriction to R_({},{}) leaves the local MDS code"
    else:
        pi = local_generator(topo, "pc2", tower.base)
        detail = "local parities violated on R_({},{})"
    pi_t = map_entries(pi, tower.top, tower.embed).transpose()
    for i, sets in enumerate(topo.repair, start=1):
        for j, rs in enumerate(sets, start=1):
            rs = tuple(sorted(rs))
            if not code.G.restrict_columns(rs).mul(pi_t).is_zero():
                out.append((rs, detail.format(i, j)))
    return out


# the reference codes (pc1 and pc2 among them), a delta = 1 gen code,
# whose local code has no parity rows, a k = 0 code, whose G has no rows,
# and a pc2 code over GF(3^14), whose products run the generic dots
PREMISE_CODES = tuple(bvs.REFERENCE_CODES) + (
    ("gen", (2, 1, 1, 2, 1), {"k": 3}),
    ("gen", (2, 2, 1, 2, 1), {"k": 0}),
    ("pc2", (2, 2, 1, 2, 2), {"h": 1}),
)


@pytest.mark.parametrize("spec", PREMISE_CODES,
                         ids=[f"{k}{p}{a}" for k, p, a in PREMISE_CODES])
def test_premise_product_matches_per_check_oracle(spec):
    # the code, its one-entry G and H mutants (with k = 0, H zeroed at
    # (0, 0), which leaves rank(H) < n), and per repair set a G mutant
    # changed on a coordinate of that set alone, which leaves the local
    # code there whenever it has parity rows (delta >= 2)
    code = bvs.build(*spec)
    ctx = code.G.ctx
    assert premise_violations(code) == premise_oracle(code) == []
    for copy in (mutants(code) if code.k
                 else [dataclasses.replace(code, H=code.H.with_entry(0, 0, 0))]):
        got = premise_violations(copy)
        assert got and got == premise_oracle(copy), spec
    for sets in code.topo.repair if code.k else ():
        for rs in sets:
            c = max(rs) - 1
            copy = dataclasses.replace(code, G=code.G.with_entry(0, c, ctx.add(code.G[0, c], 1)))
            got = premise_violations(copy)
            assert got == premise_oracle(copy), (spec, rs)
            flagged = tuple(sorted(rs)) in [pat for pat, _ in got]
            assert flagged == (code.topo.delta >= 2), (spec, rs)


def test_gen_zero_dimension_edge():
    topo = make_topology(2, 2, 1, 2, 1)
    code = construct(topo, "gen", k=0)
    assert code.k == 0 and code.h == topo.max_dimension()
    assert code.H.rank() == code.n
    assert encode(code, ()) == (0,) * code.n
    assert verify_mr_exhaustive(code).passed


def test_gen_zero_dimension_bundle_bytes(tmp_path):
    # the dual of the 0 x n generator is I_n; these bytes were recorded
    # when H = I_n was built by a special case
    write_bundle(construct(make_topology(2, 2, 1, 2, 2), "gen", k=0), tmp_path)
    digests = {
        "bundle.json": "8d7687ac76bc8200eba375d5ebafef9613f40a93756df5116766e9ab85900d91",
        "bundle.G.srmat": "b01b643dfbf9910da1227c1b57258e809991fcc40afeb6557634f7b285ad8185",
        "bundle.H.srmat": "aa4778b8872b3bbec8ac4e9e1dfe62dfc7933a8762f9e480903d009cee912088",
    }
    for name, digest in digests.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_pc2_needs_degree_two_subextension():
    # n/g - 1 = 6 > q = 3 forces q^s >= 6 with s = 2; field GF(3^10)
    topo = make_topology(2, 2, 1, 1, 3)
    plan = plan_field(topo, "pc2", h=1)
    assert (plan.q, plan.sub_s, plan.ell, plan.m) == (3, 2, 5, 10)
    code = construct(topo, "pc2", h=1)
    assert code.tower.top.order == 3 ** 10
    assert verify_mr_exhaustive(code).passed


def test_pc1_single_availability_is_classical_pmds():
    # N = 1 reduces to disjoint (r, delta) groups with h heavy parities
    topo = make_topology(3, 2, 1, 3, 1)
    code = construct(topo, "pc1", h=2)
    assert code.tower.top.order == 16
    assert code.topo.group_width == topo.r + topo.delta - 1
    rep = verify_mr_exhaustive(code)
    assert rep.passed and rep.patterns_checked == (topo.r + 1) ** topo.g


def test_gen_wide_local_distance_sampled():
    # delta = 3 with a two-symbol core and availability 2; the maximal
    # pattern space is large, so verification is sampled here (the small
    # delta = 3 case is swept exhaustively elsewhere)
    topo = make_topology(3, 3, 2, 2, 2)
    code = construct(topo, "gen", k=6)
    assert code.plan.field_size == 5 ** 4
    for seed in (9, 10):
        assert verify_mr_sampled(code, trials=300, seed=seed).passed

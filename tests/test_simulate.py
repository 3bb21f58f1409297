"""Failure simulator: outcome envelopes, cost accounting, determinism."""

import itertools
from types import SimpleNamespace

import pytest

from mrlrc import simulate
from mrlrc.constructions import construct
from mrlrc.simulate import SimConfig, run_simulation
from mrlrc.topology import make_topology


@pytest.fixture(scope="module")
def code():
    return construct(make_topology(2, 2, 1, 2, 2), "gen", k=5)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(trials=0, model="uniform_nodes", seed=1, failures=1)
    with pytest.raises(ValueError):
        SimConfig(trials=5, model="asteroid", seed=1)
    with pytest.raises(ValueError):
        SimConfig(trials=5, model="uniform_nodes", seed=1)
    with pytest.raises(ValueError, match="extra"):
        SimConfig(trials=5, model="adversarial_maximal", seed=1, extra=-1)
    SimConfig(trials=5, model="adversarial_maximal", seed=1, extra=0)


def test_config_refuses_a_flag_its_model_ignores():
    # failures sizes uniform_nodes only and extra adversarial_maximal only;
    # with any other model either would be read by nothing
    for model in ("per_group_burst", "adversarial_maximal"):
        with pytest.raises(ValueError, match="failures applies to uniform_nodes only"):
            SimConfig(trials=5, model=model, seed=1, failures=3)
    for model, failures in (("uniform_nodes", 3), ("per_group_burst", None)):
        with pytest.raises(ValueError, match="extra applies to adversarial_maximal only"):
            SimConfig(trials=5, model=model, seed=1, failures=failures, extra=0)


def test_uniform_nodes_failures_beyond_n_rejected(code):
    # n = 10: all nodes may fail, one more is refused instead of clipped
    n = code.n
    rep = run_simulation(code, SimConfig(trials=5, model="uniform_nodes",
                                         seed=2, failures=n))
    assert rep.data_loss == 5
    with pytest.raises(ValueError, match=f"failures = {n + 1} > n = {n}"):
        run_simulation(code, SimConfig(trials=5, model="uniform_nodes",
                                       seed=2, failures=n + 1))


def test_outcomes_sum_to_trials(code):
    cfg = SimConfig(trials=300, model="uniform_nodes", seed=4, failures=3)
    rep = run_simulation(code, cfg)
    assert rep.local_repair + rep.global_repair + rep.data_loss == 300


def test_single_failure_always_local_within_r_reads(code):
    cfg = SimConfig(trials=400, model="uniform_nodes", seed=9, failures=1)
    rep = run_simulation(code, cfg)
    assert rep.local_repair == 400
    assert rep.data_loss == 0
    assert rep.max_trial_reads <= code.topo.r
    assert rep.reads_per_repaired == code.topo.r


def test_per_group_burst_always_local(code):
    cfg = SimConfig(trials=300, model="per_group_burst", seed=21)
    rep = run_simulation(code, cfg)
    assert rep.local_repair == 300
    assert rep.data_loss == 0


def test_adversarial_envelope_zero_loss(code):
    cfg = SimConfig(trials=500, model="adversarial_maximal", seed=33)
    rep = run_simulation(code, cfg)
    assert rep.data_loss == 0
    assert rep.local_repair + rep.global_repair == 500


def test_adversarial_beyond_envelope_can_lose():
    # pushing extra failures past h must eventually show data loss
    code = construct(make_topology(2, 2, 1, 2, 2), "pc1", h=1)
    cfg = SimConfig(trials=400, model="adversarial_maximal", seed=2,
                    extra=code.h + 3)
    rep = run_simulation(code, cfg)
    assert rep.data_loss > 0


def test_seed_determinism(code):
    cfg = SimConfig(trials=200, model="adversarial_maximal", seed=17)
    r1 = run_simulation(code, cfg)
    r2 = run_simulation(code, cfg)
    assert r1.to_json() == r2.to_json()
    r3 = run_simulation(code, SimConfig(trials=200, model="adversarial_maximal",
                                        seed=18))
    assert r1.to_json() != r3.to_json()


def test_zero_failures_trivial(code):
    cfg = SimConfig(trials=10, model="uniform_nodes", seed=1, failures=0)
    rep = run_simulation(code, cfg)
    assert rep.local_repair == 10
    assert rep.symbols_read == 0 and rep.symbols_repaired == 0
    assert rep.reads_per_repaired is None


def test_overhead_columns_availability_design():
    # with k = gt and t = delta-1, local parities are kN, versus the
    # kN(delta-1) needed when every core symbol sits in its own repair sets
    topo = make_topology(3, 3, 2, 8, 2)
    code = construct(topo, "gen", k=16)
    rep = run_simulation(code, SimConfig(trials=5, model="adversarial_maximal",
                                         seed=1))
    assert rep.local_parities == 32
    assert rep.baseline_local_parities == 64
    doc = rep.to_json_dict()
    assert doc["overhead"] == {"local_parities": 32,
                               "baseline_local_parities": 64}


def set_local_repair(topo, erased):
    """The local phase by set algebra, as the simulator once computed it:
    each group takes its first witness repair set (by the definition in
    mrlrc.topology), repairs its erasures, then those of every other
    repair set outside the core, and removes them from the erased set."""
    d1 = topo.delta - 1
    reads = repaired = width = 0
    remaining = set(erased)
    for i in range(topo.g):
        group_erased = remaining & topo.groups[i]
        if not group_erased:
            continue
        core, sets = topo.cores[i], topo.repair[i]
        witnesses = [j for j in range(topo.N)
                     if len(group_erased & sets[j]) <= d1 and all(
                         len(group_erased & (sets[l] - core)) <= d1
                         for l in range(topo.N) if l != j)]
        if not witnesses:
            continue
        witness = witnesses[0]
        in_witness = group_erased & sets[witness]
        if in_witness:
            reads += topo.r
            repaired += len(in_witness)
            remaining -= in_witness
        parallel = 0
        for l in range(topo.N):
            if l == witness:
                continue
            in_other = remaining & (sets[l] - core)
            if in_other:
                reads += topo.r
                repaired += len(in_other)
                remaining -= in_other
                parallel += 1
        width = max(width, parallel)
    return not remaining, reads, repaired, width


@pytest.mark.parametrize("params", [
    (2, 1, 2, 2, 1), (2, 1, 1, 2, 2), (2, 2, 1, 2, 2), (2, 2, 2, 1, 3),
    (1, 3, 1, 1, 3), (2, 3, 1, 1, 2), (3, 2, 2, 2, 1), (1, 2, 1, 2, 3),
])
def test_local_repair_matches_set_oracle(params):
    # every subset of [n]: the part-count arithmetic against set algebra
    topo = make_topology(*params)
    code = SimpleNamespace(topo=topo)
    for size in range(topo.n + 1):
        for erased in itertools.combinations(topo.coords, size):
            assert simulate._local_repair(code, set(erased)) == \
                set_local_repair(topo, erased), erased

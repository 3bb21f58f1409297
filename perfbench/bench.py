"""Phases, output checks and metrics of one benchmark run.

Imported by run.py once src/ is on the path.  The workload process is a
closed loop with one caller: each call into mrlrc starts when the previous
one has returned.  Inputs come from random.Random streams keyed by the
benchmark seed, so mrlrc receives only generated messages, patterns and
seeds.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

from mrlrc import constructions, simulate, verify

import oracle
from calibration import SpeedProbe, bracketed
from tracing import Tracer
from workloads import WORKLOADS, setup_codes

SETUP_REPEATS = 5
MIN_ROUNDS = 2                # so every sweep rate is a median of two sweeps or more
ORACLE_SAMPLES = 8            # (maximal pattern, h extras) rank checks per code
MICRO_REPEATS = 5
MICRO_OPS = {"add": 2000, "mul": 2000, "inv": 200}
PHASES = ("generator", "parity", "sampled", "simulate", "encode", "decode")
RATE_METRIC = {
    "generator": "verify_generator_patterns_per_s",
    "parity": "verify_parity_patterns_per_s",
    "sampled": "verify_sampled_trials_per_s",
    "simulate": "simulate_trials_per_s",
    "encode": "encode_words_per_s",
    "decode": "decode_words_per_s",
}
WITNESS_COLS = re.compile(r"\[([0-9, ]*)\]")


class Bench:
    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.log: list[str] = []

    def rnd(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.seed,) + parts))

    # -- set-up and the checks that need no timing

    def setup_s(self) -> float:
        """Median set-up time over fresh interpreters, at reference speed."""
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "setup_child.py")
        times = [bracketed(self._setup_once, child, i)
                 for i in range(SETUP_REPEATS)]
        return statistics.median(times)

    def _setup_once(self, child: str, i: int) -> float:
        out = subprocess.run(
            [sys.executable, child, self.name,
             os.path.join(self.work_dir, f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        return json.loads(out.stdout.splitlines()[-1])["setup_s"]

    def load(self, codes) -> None:
        """Keep the codes and derive everything the oracle checks need."""
        self.codes = codes
        self.fields, self.group_sets, self.pattern_counts = [], [], []
        for i, (spec, code) in enumerate(zip(self.w.codes, codes)):
            path = os.path.join(self.work_dir, f"code{i}", "bundle.json")
            with open(path, encoding="ascii") as fh:
                doc = json.load(fh)
            field = oracle.GF(doc["p"], doc["modulus"])
            rnd = self.rnd("field", i)
            for a in (rnd.randrange(1, field.order) for _ in range(4)):
                if field.pow(a, field.order - 1) != 1:
                    self.errors.append(f"code {i}: bundle modulus is not irreducible")
            _kind, (r, delta, t, g, n_avail), _arg = spec
            sets = oracle.group_maximal_sets(r, delta, t, n_avail)
            self.fields.append(field)
            self.group_sets.append(sets)
            self.pattern_counts.append(len(sets) ** g)

    def draw_maximal(self, i: int, rnd: random.Random) -> list[int]:
        code = self.codes[i]
        width = code.n // code.topo.g
        out = []
        for grp in range(code.topo.g):
            out.extend(c + grp * width for c in rnd.choice(self.group_sets[i]))
        return out

    def draw_erasures(self, i: int, rnd: random.Random, extra: int) -> list[int]:
        """A maximal pattern plus `extra` more coordinates, sorted."""
        erased = self.draw_maximal(i, rnd)
        rest = [c for c in range(1, self.codes[i].n + 1) if c not in erased]
        return sorted(erased + rnd.sample(rest, extra))

    def check_oracle_ranks(self) -> None:
        """H has full column rank on sampled maximal patterns plus h extras."""
        for i, code in enumerate(self.codes):
            rnd = self.rnd("oracle", i)
            for _ in range(ORACLE_SAMPLES):
                cols = self.draw_erasures(i, rnd, code.h)
                sub = oracle.columns(code.H.data, cols)
                if oracle.rank(self.fields[i], sub) != len(cols):
                    self.errors.append(f"code {i}: H rank-deficient on {cols}")

    def check_mutants(self) -> None:
        """Copies with one changed entry fail on both routes, with witnesses
        that the oracle confirms.

        The G copy is forced singular on one k x k minor outside a maximal
        pattern, the H copy on one (n-k) x (n-k) column set made of a
        maximal pattern plus h more coordinates.
        """
        i = self.w.mutate
        code, field = self.codes[i], self.fields[i]
        rnd = self.rnd("mutant")
        erased = self.draw_maximal(i, rnd)
        comp = [c for c in range(1, code.n + 1) if c not in erased]
        g_cols = sorted(rnd.sample(comp, code.k))
        h_cols = sorted(erased + rnd.sample(comp, code.h))
        mutants = (("G", self._singular_copy(field, code.G.data, g_cols)),
                   ("H", self._singular_copy(field, code.H.data, h_cols)))
        for which, (row, col, value) in mutants:
            if which == "G":
                mut = replace(code, G=code.G.with_entry(row, col, value))
            else:
                mut = replace(code, H=code.H.with_entry(row, col, value))
            for side in ("generator", "parity"):
                rep = verify.verify_mr_exhaustive(mut, side=side)
                tag = f"{which}-mutant of code {i}, {side} route"
                if rep.passed:
                    self.errors.append(f"{tag}: passed")
                patterns = {tuple(f.pattern) for f in rep.failures}
                own = (which == "G") == (side == "generator")
                if own and tuple(sorted(erased)) not in patterns:
                    self.errors.append(f"{tag}: forced pattern {erased} not reported")
                for f in rep.failures:
                    if not self._witness_holds(mut, field, which, col + 1, f):
                        self.errors.append(f"{tag}: witness {f.to_json()} not confirmed")

    @staticmethod
    def _singular_copy(field, rows, cols):
        """(row, col, value): one entry that makes rows|cols singular.

        The determinant is affine in any single entry; solve for its root
        over the first entry whose cofactor is nonzero.
        """
        sub = oracle.columns(rows, cols)
        for r in range(len(sub)):
            for c in range(len(cols)):
                d0 = oracle.det(field, [[0 if (a, b) == (r, c) else v
                                         for b, v in enumerate(row)]
                                        for a, row in enumerate(sub)])
                d1 = oracle.det(field, [[1 if (a, b) == (r, c) else v
                                         for b, v in enumerate(row)]
                                        for a, row in enumerate(sub)])
                cof = field.sub(d1, d0)
                if cof:
                    value = field.mul(field.neg(d0), field.inv(cof))
                    return r, cols[c] - 1, value
        raise RuntimeError("no entry with a nonzero cofactor")

    def _witness_holds(self, mut, field, which, col, failure) -> bool:
        g_rows, h_rows = mut.G.data, mut.H.data
        n, k = mut.n, mut.k
        detail = failure.detail
        if detail == "G H^T != 0":
            return any(any(v for v in oracle.mat_vec(field, g_rows, h))
                       for h in h_rows)
        if detail.startswith("rank(G)"):
            return oracle.rank(field, g_rows) != k
        if detail.startswith("rank(H)"):
            return oracle.rank(field, h_rows) != n - k
        if detail.startswith(("restriction to R_", "local parities violated")):
            # only repair sets through the changed column of G can leave the
            # local code
            return which == "G" and col in failure.pattern
        match = WITNESS_COLS.search(detail)
        if match is None:
            return False
        cols = [int(v) for v in match.group(1).split(",")] if match.group(1) else []
        if detail.startswith("singular minor"):
            return (not set(cols) & set(failure.pattern) and
                    oracle.rank(field, oracle.columns(g_rows, cols)) < k)
        if detail.startswith("rank defect after adding erasures"):
            allc = sorted(set(failure.pattern) | set(cols))
            return oracle.rank(field, oracle.columns(h_rows, allc)) < len(allc)
        return False

    # -- phases: a round is a list of (call, units, check) run back to back

    def prepare(self, phase: str, rnd: random.Random) -> list:
        w, ops = self.w, []
        if phase in ("generator", "parity"):
            for i in w.exhaustive:
                count = self.pattern_counts[i]
                ops.append((
                    lambda code=self.codes[i], side=phase:
                        verify.verify_mr_exhaustive(code, side=side),
                    count,
                    lambda rep, count=count: rep.passed and rep.patterns_checked == count))
        elif phase == "sampled":
            trials = w.sampled_trials
            for code in self.codes:
                ops.append((
                    lambda code=code, seed=rnd.getrandbits(63):
                        verify.verify_mr_sampled(code, trials, seed),
                    trials,
                    lambda rep: rep.passed and rep.patterns_checked == trials))
        elif phase == "simulate":
            for code in self.codes:
                for model in simulate.MODELS:
                    failures = (code.h + code.topo.delta - 1
                                if model == "uniform_nodes" else None)
                    cfg = simulate.SimConfig(trials=w.sim_trials, model=model,
                                             seed=rnd.getrandbits(63),
                                             failures=failures)
                    ops.append((
                        lambda code=code, cfg=cfg: simulate.run_simulation(code, cfg),
                        w.sim_trials, _sim_ok))
        elif phase == "encode":
            for i, code in enumerate(self.codes):
                field = self.fields[i]
                for _ in range(w.encode_words):
                    msg = [rnd.randrange(field.order) for _ in range(code.k)]
                    ops.append((
                        lambda code=code, msg=msg: constructions.encode(code, msg),
                        1,
                        lambda word, code=code, field=field:
                            self._is_codeword(code, field, word)))
        elif phase == "decode":
            for i, code in enumerate(self.codes):
                for _ in range(w.decode_words):
                    msg = [rnd.randrange(self.fields[i].order) for _ in range(code.k)]
                    cw = tuple(constructions.encode(code, msg))
                    erased = set(self.draw_erasures(i, rnd, rnd.randrange(code.h + 1)))
                    word = [None if j + 1 in erased else v for j, v in enumerate(cw)]
                    ops.append((
                        lambda code=code, word=word: verify.decode_erasures(code, word),
                        1,
                        lambda out, cw=cw: out == cw))
        return ops

    @staticmethod
    def _is_codeword(code, field, word) -> bool:
        return (len(word) == code.n and all(0 <= v < field.order for v in word)
                and not any(oracle.mat_vec(field, code.H.data, word)))

    @staticmethod
    def execute(ops) -> list:
        results = []
        for call, _units, _check in ops:
            try:
                results.append(call())
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
        return results

    def settle(self, phase: str, ops, results) -> int:
        """Check a round's outputs; returns the units that succeeded."""
        done = 0
        for (_call, units, check), out in zip(ops, results):
            self.attempted += units
            if isinstance(out, Exception):
                if not self.failed:
                    self.log.append(f"first failed {phase} call: {out!r:.200}")
                self.failed += units
                continue
            done += units
            if not check(out):
                self.errors.append(f"{phase}: output check failed ({out!r:.200})")
        return done

    # -- the two kinds of run

    def timed(self, seconds: float) -> dict:
        start = time.perf_counter()
        values = {"setup_s": self.setup_s()}
        setup_done = time.perf_counter()
        self.load(setup_codes(self.name, self.work_dir))
        self.check_oracle_ranks()
        self.check_mutants()
        checks_done = time.perf_counter()
        values.update(self.measure(seconds))
        values["peak_rss_mib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        self.log.append(f"wall: set-up {setup_done - start:.2f} s, checks "
                        f"{checks_done - setup_done:.2f} s, phases "
                        f"{time.perf_counter() - checks_done:.2f} s")
        return values

    def measure(self, seconds: float) -> dict:
        """Rates of every phase over about `seconds` of measured calls.

        Phases are interleaved, each picked when it lags furthest behind
        its share of the time spent so far, so a slow spell of the machine
        hits every phase alike, and every slice is timed at reference
        speed (see calibration.py).  An exhaustive sweep is one slice per
        code; other phases run a whole round per slice.  The run ends on
        whole rounds only, after at least MIN_ROUNDS of each phase.
        Exhaustive rates add up the median time of each code's sweep; the
        others take the median rate over rounds.
        """
        shares = self.w.shares
        spent = dict.fromkeys(PHASES, 0.0)
        rounds = dict.fromkeys(PHASES, 0)
        pending: dict = {}                  # exhaustive phase -> (ops, next op)
        sweep_times = {p: {} for p in ("generator", "parity")}
        round_rates = {p: [] for p in PHASES}
        with SpeedProbe() as probe:
            while True:
                total = sum(spent.values())
                ready = [p for p in PHASES if total < seconds or p in pending
                         or rounds[p] < MIN_ROUNDS]
                if not ready:
                    break
                phase = max(ready, key=lambda p: shares[p] * total - spent[p])
                if phase in sweep_times:
                    round_ops, pos = pending.pop(phase, None) or (
                        self.prepare(phase, self.rnd(phase, rounds[phase])), 0)
                    ops = round_ops[pos:pos + 1]
                else:
                    ops = self.prepare(phase, self.rnd(phase, rounds[phase]))
                ref_dt, dt, results = probe.measured(self.execute, ops)
                units = self.settle(phase, ops, results)
                spent[phase] += dt
                if phase not in sweep_times:
                    round_rates[phase].append(units / ref_dt)
                    rounds[phase] += 1
                    continue
                if units:
                    sweep_times[phase].setdefault(pos, []).append(ref_dt)
                if pos + 1 < len(round_ops):
                    pending[phase] = (round_ops, pos + 1)
                else:
                    rounds[phase] += 1
        out = {}
        for phase in PHASES:
            if phase in sweep_times:
                times = sweep_times[phase]
                units = sum(self.pattern_counts[self.w.exhaustive[pos]]
                            for pos in times)
                rate = (units / sum(statistics.median(t) for t in times.values())
                        if times else 0.0)
            else:
                rate = statistics.median(round_rates[phase])
            out[RATE_METRIC[phase]] = rate
            self.log.append(f"{phase}: {rounds[phase]} rounds, "
                            f"{spent[phase]:.2f} s wall")
        return out

    def traced(self) -> dict:
        tracer = Tracer()
        tracer.install()
        try:
            codes = setup_codes(self.name, self.work_dir)
        finally:
            tracer.uninstall()
        self.load(codes)
        self.check_oracle_ranks()
        self.check_mutants()
        rounds = {phase: self.prepare(phase, self.rnd(phase, 0)) for phase in PHASES}
        untraced = self._one_round(rounds)
        tracer.install()
        try:
            traced = self._one_round(rounds)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer)
        values.update(self.ff_microbench())
        values["trace.wall_s"] = traced
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead"] = traced / untraced
        return values

    def _one_round(self, rounds) -> float:
        wall = 0.0
        for phase, ops in rounds.items():
            start = time.perf_counter()
            results = self.execute(ops)
            wall += time.perf_counter() - start
            self.settle(phase, ops, results)
        return wall

    def ff_microbench(self) -> dict:
        """ns per public FieldCtx add/mul/inv over the workload's own base
        and top fields, with their tables already built."""
        fields = {}
        for code in self.codes:
            for ctx in (code.tower.base, code.tower.top):
                fields[(ctx.p, ctx.e)] = ctx
        total = {op: [0.0, 0] for op in MICRO_OPS}
        rnd = self.rnd("micro")
        for ctx in fields.values():
            xs = [rnd.randrange(1, ctx.order) for _ in range(max(MICRO_OPS.values()))]
            ys = [rnd.randrange(1, ctx.order) for _ in xs]
            for op, count in MICRO_OPS.items():
                fn = getattr(ctx, op)
                a, b = xs[:count], ys[:count]
                times = []
                for _ in range(MICRO_REPEATS):
                    start = time.perf_counter()
                    if op == "inv":
                        for x in a:
                            fn(x)
                    else:
                        for x, y in zip(a, b):
                            fn(x, y)
                    times.append(time.perf_counter() - start)
                total[op][0] += statistics.median(times)
                total[op][1] += count
        return {f"ff.{op}_ns": t / c * 1e9 for op, (t, c) in total.items()}


def _sim_ok(rep) -> bool:
    """Outcomes partition the trials, and every model here draws only
    MR-correctable patterns; bursts stay local."""
    return (rep.local_repair + rep.global_repair + rep.data_loss == rep.trials
            and rep.data_loss == 0
            and (rep.model != "per_group_burst" or rep.global_repair == 0))


def layer_metrics(tracer: Tracer) -> dict:
    calls, self_s = tracer.summary()
    counts = tracer.counts
    out = {f"ff.{op}.calls": counts[f"ff.{op}.calls"] for op in ("mul", "add", "inv")}
    out["ff.tower.self_s"] = sum(self_s[f"ff.tower.{op}"]
                                 for op in ("frobenius", "base_coords", "embed"))
    for op in ("det", "rank", "solve_unique", "mul", "restrict_columns", "init"):
        out[f"matrix.{op}.calls"] = calls[f"matrix.{op}"]
        out[f"matrix.{op}.self_s"] = self_s[f"matrix.{op}"]
    out["matrix.init.entries"] = counts["matrix.init.entries"]
    name = "topology.enumerate_maximal_patterns"
    out[f"{name}.patterns"] = counts[f"{name}.patterns"]
    out[f"{name}.self_s"] = self_s[name]
    name = "topology.per_group_maximal_sets"
    out[f"{name}.calls"] = calls[name]
    out[f"{name}.self_s"] = self_s[name]
    for side in ("generator", "parity"):
        out[f"verify.exhaustive_{side}.self_s"] = self_s[f"verify.exhaustive_{side}"]
    name = "verify.decode_erasures"
    out[f"{name}.calls"] = calls[name]
    out[f"{name}.distinct_patterns"] = len(tracer.decoded_sets)
    out[f"{name}.self_s"] = self_s[name]
    out["simulate.local_repair"] = counts["simulate.local_repair"]
    out["simulate.global_repair"] = counts["simulate.global_repair"]
    out["simulate.run_simulation.self_s"] = self_s["simulate.run_simulation"]
    for fn in ("construct", "write_bundle", "read_bundle", "encode"):
        out[f"constructions.{fn}.self_s"] = self_s[f"constructions.{fn}"]
    out["constructions.encode.calls"] = calls["constructions.encode"]
    out["sumrank.lrs_generator.calls"] = counts["sumrank.lrs_generator.calls"]
    out["localmds.structured_mds.self_s"] = self_s["localmds.structured_mds"]
    out["rng.next_u64.calls"] = calls["rng.next_u64"]
    out["rng.self_s"] = sum(v for k, v in self_s.items() if k.startswith("rng."))
    return out

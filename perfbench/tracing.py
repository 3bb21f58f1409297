"""Span recorder and counters wrapped around mrlrc's public functions.

Tracing patches module and class attributes from outside; mrlrc itself is
never edited.  A function imported by name into several modules is
patched everywhere it is bound, so calls between mrlrc modules are seen
too.  Spans (name, start, end, parent) live in flat lists and are reduced
to per-name self times when the run ends; the scalar field ops get call
counters only, since they run millions of times and a span each would
dominate what it measures.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from mrlrc import cli, constructions, ff, localmds, matrix, rng, simulate
from mrlrc import sumrank, topology, verify
import mrlrc

MODULES = (mrlrc, ff, matrix, topology, localmds, sumrank, constructions,
           verify, simulate, rng, cli)


class Tracer:
    """Collects spans and counts while installed; restores mrlrc on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.decoded_sets: set = set()
        self._saved: list = []

    # -- wrappers

    def span(self, fn, name, after=None):
        """Wrap fn in a span; name may be a function of the call arguments."""
        names, start, end, parent, stack = (
            self.names, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fixed or name(*args, **kwargs))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def span_generator(self, fn, name, item_counter):
        """A span around each step of a generator, counting the items."""
        span_next = self.span(next, name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = span_next(it)
                except StopIteration:
                    return
                counts[item_counter] += 1
                yield item

        return wrapper

    def counted(self, fn, name):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- installation

    def _patch_class(self, cls, attr, wrapper):
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _patch_function(self, fn, wrapper):
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        fc = ff.FieldCtx
        for op in ("add", "mul", "inv"):
            self._patch_class(fc, op, self.counted(fc.__dict__[op], f"ff.{op}.calls"))
        tw = ff.FieldTower
        for op in ("frobenius", "base_coords", "embed"):
            self._patch_class(tw, op, self.span(tw.__dict__[op], f"ff.tower.{op}"))

        mf = matrix.MatrixF

        def count_entries(args, kwargs, out):
            m = args[0]
            counts["matrix.init.entries"] += m.rows * m.cols

        self._patch_class(mf, "__init__",
                          self.span(mf.__init__, "matrix.init", count_entries))
        for op in ("det", "rank", "solve_unique", "mul", "restrict_columns"):
            self._patch_class(mf, op, self.span(mf.__dict__[op], f"matrix.{op}"))

        self._patch_function(topology.enumerate_maximal_patterns, self.span_generator(
            topology.enumerate_maximal_patterns,
            "topology.enumerate_maximal_patterns",
            "topology.enumerate_maximal_patterns.patterns"))
        self._patch_function(topology.per_group_maximal_sets, self.span(
            topology.per_group_maximal_sets, "topology.per_group_maximal_sets"))

        def exhaustive_name(code, side="generator", *_, **__):
            return f"verify.exhaustive_{side}"

        self._patch_function(verify.verify_mr_exhaustive, self.span(
            verify.verify_mr_exhaustive, exhaustive_name))

        decoded = self.decoded_sets

        def note_pattern(args, kwargs, out):
            # a per-pattern memo is kept per code, so the code is part of the key
            decoded.add((id(args[0]), tuple(i for i, v in enumerate(args[1])
                                            if v is None)))

        self._patch_function(verify.decode_erasures, self.span(
            verify.decode_erasures, "verify.decode_erasures", note_pattern))

        def sim_outcomes(args, kwargs, rep):
            counts["simulate.local_repair"] += rep.local_repair
            counts["simulate.global_repair"] += rep.global_repair

        self._patch_function(simulate.run_simulation, self.span(
            simulate.run_simulation, "simulate.run_simulation", sim_outcomes))

        for fn in (constructions.construct, constructions.write_bundle,
                   constructions.read_bundle, constructions.encode):
            self._patch_function(fn, self.span(fn, f"constructions.{fn.__name__}"))
        self._patch_function(localmds.structured_mds, self.span(
            localmds.structured_mds, "localmds.structured_mds"))
        self._patch_function(sumrank.lrs_generator, self.counted(
            sumrank.lrs_generator, "sumrank.lrs_generator.calls"))

        xo = rng.Xoshiro256
        for op in ("next_u64", "randrange", "choice", "sample"):
            self._patch_class(xo, op, self.span(xo.__dict__[op], f"rng.{op}"))

    def uninstall(self):
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)

    # -- reduction

    def summary(self) -> tuple[Counter, dict]:
        """(span counts per name, self seconds per name)."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[i]
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        return calls, self_s

"""The names the benchmark's tracer patches exist, and uninstall restores them.

perfbench/tracing.py wraps mrlrc functions and methods by name; deleting
or renaming one of them breaks the traced benchmark run.  This test
installs the tracer and takes it off again, so such a deletion fails here.
"""

from pathlib import Path

from mrlrc import ff, sumrank, topology, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    lrs = sumrank.lrs_generator
    mul = ff.FieldCtx.__dict__["mul"]
    enum = topology.enumerate_maximal_patterns
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert sumrank.lrs_generator is not lrs
        assert ff.FieldCtx.__dict__["mul"] is not mul
        assert topology.enumerate_maximal_patterns is not enum
        assert verify.enumerate_maximal_patterns is not enum
    finally:
        tracer.uninstall()
    assert sumrank.lrs_generator is lrs
    assert ff.FieldCtx.__dict__["mul"] is mul
    assert topology.enumerate_maximal_patterns is enum
    assert verify.enumerate_maximal_patterns is enum

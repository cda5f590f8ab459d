"""The benchmark's tracer patches interpreter names by attribute. A refactor
that renames or drops one of them breaks the traced benchmark run; this
catches it in the ordinary test suite."""

from pathlib import Path

from logicweb import engine

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        targets = list(tracer._saved)
        for owner, attr, original in targets:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.remove()
    assert len(targets) >= 20
    for owner, attr, original in targets:
        assert getattr(owner, attr) is original, (owner, attr)


def test_engine_name_is_the_session_class():
    # the tracer's method patches must reach the class sessions are built from
    assert engine.Engine is engine.Session

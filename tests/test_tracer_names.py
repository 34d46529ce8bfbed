"""The benchmark's traced mode wraps finspace functions by name; every name
its counter groups read must still exist."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_group_has_a_wrapped_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    t.install()
    try:
        # raises KeyError for a group none of whose functions was wrapped
        metrics = tracer.layer_metrics(t, 1, 0.0, 0.0)
    finally:
        t.uninstall()
    assert sorted(metrics) == sorted(name for name, *_ in tracer.PER_LAYER)
    assert len(metrics) == 52

"""The benchmark's tracer (``perfbench/spans.py``) wraps curie functions
by module and attribute name, and a traced run fails on a name that no
longer exists; each one it names must stay defined where it says."""

import importlib

from conftest import REPO


def test_every_traced_benchmark_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for name, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert attr in vars(owner), f"{name}: {module_name}.{path} is gone"

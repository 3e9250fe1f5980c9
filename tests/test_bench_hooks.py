"""The benchmark in bench/ times the package from outside by replacing
functions under the (module, name) pairs listed in bench/spans.py; each pair
must stay a module-level name of that module."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_patch_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    pairs = [(module, name) for module, name, _ in spans.TIMED + spans.LEAVES] + list(spans.SOLVE_SITES)
    missing = [f"{module}.{name}" for module, name in pairs if not hasattr(importlib.import_module(module), name)]
    assert missing == []

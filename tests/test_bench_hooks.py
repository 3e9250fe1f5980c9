"""The benchmark in bench/ times the package from outside by replacing
functions under the (module, name) pairs listed in bench/spans.py; each pair
must stay a module-level name of that module."""

import importlib
from collections import Counter
from pathlib import Path

from caponshape.arrays import sample_covariance, synthesize_snapshots
from caponshape.beamformers import BeamformerKind, BeamformerSpec, solve_trials
from caponshape.cli import BENCHMARK_OPTIONS

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_patch_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    pairs = [(module, name) for module, name, _ in spans.TIMED + spans.LEAVES] + list(spans.SOLVE_SITES)
    missing = [f"{module}.{name}" for module, name in pairs if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_hooked_names_see_every_batched_call(monkeypatch, scenario, manifold, split, a0):
    # the per-layer figures prox.calls and solver.smooth_s come from wrapping
    # these names: each prox runs once per batch iteration and block of
    # weighted_sparse, the one kind admm_solve still solves; the interior-point
    # kinds call cone_solve once per batch and no prox, and smooth_solve runs
    # once per batch of mspr_relaxed
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in [(m, a) for m, a, _ in spans.LEAVES] + [("caponshape.beamformers", "smooth_solve"),
                                                                 ("caponshape.beamformers", "cone_solve")]:
        target = importlib.import_module(module)
        monkeypatch.setattr(target, name, counted(name, getattr(target, name)))
    draws = [synthesize_snapshots(scenario.with_seed(scenario.seed + t)).data for t in range(3)]
    covariances = [sample_covariance(x) for x in draws]
    calls.clear()
    out = solve_trials([BeamformerSpec(BeamformerKind.WEIGHTED_SPARSE, 0.2)] * 3, covariances, manifold, split, a0,
                       draws, BENCHMARK_OPTIONS)
    rounds = max(w.iterations for w in out)
    assert rounds > 0
    assert calls == Counter({"prox_l1": rounds})
    for kind in (BeamformerKind.SPARSE, BeamformerKind.MIXED_NORM, BeamformerKind.TVM_SPARSE):
        calls.clear()
        out = solve_trials([BeamformerSpec(kind, 0.2)] * 3, covariances, manifold, split, a0, None, BENCHMARK_OPTIONS)
        assert min(w.iterations for w in out) > 0
        assert calls == Counter({"cone_solve": 1}), kind
    calls.clear()
    solve_trials([BeamformerSpec(BeamformerKind.MSPR_RELAXED, 0.02)] * 3, covariances, manifold, split, a0,
                 None, BENCHMARK_OPTIONS)
    assert calls == Counter({"smooth_solve": 1})

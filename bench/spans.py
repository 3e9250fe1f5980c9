"""Per-layer spans and solve counters, recorded from outside the package.

Each public function is replaced, for the duration of one CLI call, by a
wrapper installed under the name its caller looks it up by (for example
``caponshape.solver.prox_l1``, the global ``_prox_block`` reads on every ADMM
iteration). The package itself is not modified.

A :class:`Recorder` always records each beamformer solve (kind, iterations,
``MAX_ITERS`` results and ``NumericalError`` raises) for the iteration
counts and the run's fingerprint: that costs one Python call per solve.
Throughput does not come from it; the workload fixes the solves per call.
With ``tracing=True`` it also times every layer boundary.
Proximal operators run hundreds of thousands of times per run, so they are
not kept as individual spans: their calls and seconds are summed into the
enclosing span instead.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import KINDS, SHAPED

# (module, attribute, layer name). Functions imported into two modules are
# wrapped in both, because each caller looks the name up in its own module.
TIMED = (
    ("caponshape.cli", "monte_carlo", "evaluation.monte_carlo"),
    ("caponshape.cli", "gamma_sweep", "evaluation.gamma_sweep"),
    ("caponshape.cli", "synthesize_snapshots", "arrays.synthesize"),
    ("caponshape.evaluation", "synthesize_snapshots", "arrays.synthesize"),
    ("caponshape.cli", "sample_covariance", "arrays.covariance"),
    ("caponshape.evaluation", "sample_covariance", "arrays.covariance"),
    ("caponshape.beamformers", "snm_weighting", "arrays.snm"),
    ("caponshape.beamformers", "difference_operator", "arrays.difference_operator"),
    ("caponshape.beamformers", "capon_closed_form", "beamformers.capon_closed_form"),
    ("caponshape.beamformers", "admm_solve", "solver.admm"),
    ("caponshape.beamformers", "smooth_solve", "solver.smooth"),
    ("caponshape.solver", "eliminate_constraint", "solver.eliminate"),
    ("caponshape.cli", "sinr", "evaluation.sinr"),
    ("caponshape.evaluation", "sinr", "evaluation.sinr"),
    ("caponshape.cli", "sidelobe_mean_db", "evaluation.sidelobe"),
    ("caponshape.evaluation", "sidelobe_mean_db", "evaluation.sidelobe"),
    ("caponshape.cli", "mspr", "evaluation.mspr"),
    ("caponshape.evaluation", "mspr", "evaluation.mspr"),
)
LEAVES = (
    ("caponshape.solver", "prox_l1", "prox.l1"),
    ("caponshape.solver", "prox_linf", "prox.linf"),
    ("caponshape.solver", "group_shrink", "prox.group_shrink"),
)
SOLVE_SITES = (("caponshape.cli", "solve_method"), ("caponshape.evaluation", "solve_method"))
ADMM_KINDS = tuple(kind for kind in SHAPED if kind != "mspr_relaxed")
ARRAYS = ("synthesize", "covariance", "snm", "difference_operator")
PROXES = ("l1", "linf", "group_shrink")


class Recorder:
    """Solve counts for one CLI call and, when tracing, its layer spans.

    ``totals[name]`` is ``[calls, seconds, self_seconds]``, where self time
    is a span's duration minus the part covered by its direct children.
    ``spans`` holds ``(id, parent_id, name, start, end, leaf_totals)``.
    """

    def __init__(self, tracing: bool):
        from caponshape.solver import NumericalError, SolverStatus

        self.tracing = tracing
        self.iterations = defaultdict(list)
        self.capped = Counter()
        self.numerical = Counter()
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans = []
        self._stack = []  # frames: [span_id, start, child_seconds, leaf_totals]
        self._next_id = 0
        self._numerical_error = NumericalError
        self._max_iters = SolverStatus.MAX_ITERS

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``name`` (untimed when not tracing)."""
        if not self.tracing:
            return fn(*args, **kwargs)
        stack = self._stack
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        frame = [self._next_id, time.perf_counter(), 0.0, None]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            if stack:
                stack[-1][2] += duration
            agg = self.totals[name]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[2]
            self.spans.append((frame[0], parent, name, frame[1], end, frame[3]))

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _leaf(self, name, fn):
        stack = self._stack
        agg = self.totals[name]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration
                if stack:
                    frame = stack[-1]
                    frame[2] += duration
                    if frame[3] is None:
                        frame[3] = {}
                    leaf = frame[3].setdefault(name, [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += duration

        return wrapper

    def _solve(self, fn):
        def wrapper(method, *args, **kwargs):
            kind = method.kind.value
            try:
                result = self.call(f"beamformers.solve.{kind}", fn, method, *args, **kwargs)
            except self._numerical_error:
                self.numerical[kind] += 1
                raise
            self.iterations[kind].append(result.iterations)
            if result.status is self._max_iters:
                self.capped[kind] += 1
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the wrappers into the package, restoring the originals on exit."""
        patches = [(module, attr, self._solve) for module, attr in SOLVE_SITES]
        if self.tracing:
            patches += [(m, a, lambda fn, n=name: self._timed(n, fn)) for m, a, name in TIMED]
            patches += [(m, a, lambda fn, n=name: self._leaf(n, fn)) for m, a, name in LEAVES]
        originals = []
        try:
            for module_name, attr, make in patches:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def _nearest_rank(values: list, q: float) -> int:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0


def layer_metrics(recorders: list) -> dict:
    """Per-layer metrics, as ``{name: (value, unit)}``, summed over the
    traced CLI calls of a run."""
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    iterations = defaultdict(list)
    capped, numerical = Counter(), Counter()
    for rec in recorders:
        for name, (calls, seconds, self_seconds) in rec.totals.items():
            agg = totals[name]
            agg[0] += calls
            agg[1] += seconds
            agg[2] += self_seconds
        for kind, values in rec.iterations.items():
            iterations[kind] += values
        capped.update(rec.capped)
        numerical.update(rec.numerical)

    metrics = {}
    for layer in ARRAYS:
        calls, seconds, _ = totals[f"arrays.{layer}"]
        metrics[f"arrays.{layer}_s"] = (seconds, "s")
        metrics[f"arrays.{layer}.calls"] = (calls, "count")
    for prox in PROXES:
        metrics[f"prox.{prox}_s"] = (totals[f"prox.{prox}"][1], "s")
    metrics["prox.calls"] = (sum(totals[f"prox.{prox}"][0] for prox in PROXES), "count")

    _, admm_s, admm_self_s = totals["solver.admm"]
    admm_iters = sum(sum(iterations[kind]) for kind in ADMM_KINDS)
    metrics["solver.admm_s"] = (admm_s, "s")
    metrics["solver.admm_self_s"] = (admm_self_s, "s")
    metrics["solver.smooth_s"] = (totals["solver.smooth"][1], "s")
    metrics["solver.eliminate_s"] = (totals["solver.eliminate"][1], "s")
    metrics["solver.us_per_admm_iter"] = (1e6 * admm_s / admm_iters if admm_iters else 0.0, "us")
    for kind in SHAPED:
        values = iterations[kind]
        metrics[f"solver.iters.{kind}.sum"] = (sum(values), "count")
        metrics[f"solver.iters.{kind}.p50"] = (_nearest_rank(values, 0.5), "count")
        metrics[f"solver.iters.{kind}.p90"] = (_nearest_rank(values, 0.9), "count")
        metrics[f"solver.iters.{kind}.max"] = (max(values, default=0), "count")
        metrics[f"solver.capped.{kind}"] = (capped[kind], "count")
    attempted = sum(len(v) for v in iterations.values()) + sum(numerical.values())
    metrics["solver.capped"] = (sum(capped.values()), "count")
    metrics["solver.numerical_failures"] = (sum(numerical.values()), "count")
    metrics["solver.fail_frac"] = ((sum(capped.values()) + sum(numerical.values())) / max(attempted, 1), "ratio")

    for kind in KINDS:
        metrics[f"beamformers.solve_s.{kind}"] = (totals[f"beamformers.solve.{kind}"][1], "s")
    metrics["beamformers.self_s"] = (sum(totals[f"beamformers.solve.{kind}"][2] for kind in KINDS), "s")
    metrics["evaluation.sinr_s"] = (totals["evaluation.sinr"][1], "s")
    metrics["evaluation.score_s"] = (totals["evaluation.sidelobe"][1] + totals["evaluation.mspr"][1], "s")
    metrics["evaluation.self_s"] = (totals["evaluation.monte_carlo"][2] + totals["evaluation.gamma_sweep"][2], "s")
    metrics["cli.self_s"] = (totals["cli"][2], "s")
    return metrics

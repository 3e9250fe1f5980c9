"""
Command-line front end.

Three subcommands over a single JSON config:

  pattern     one snapshot draw, one solve per method, beam-pattern CSVs
  montecarlo  repeated-draw SINR benchmark per mismatch value
  sweep       gamma grid sweep on the held-out tuning draw

This module alone reads and writes the config format; every field is typed
and a malformed one is a configuration error that names its key. Flags
override config fields (flag > file > built-in default). Exit codes:
0 success, 2 configuration error, 3 numerical failure. All file outputs are
deterministic functions of the config plus flags; floats are written with 9
significant digits, and JSON files are strict (a non-finite value is null).

Every subcommand solves with BENCHMARK_OPTIONS, including ``pattern``: its
``gamma: auto`` methods are tuned under those options, and a gamma is only
the SINR-best one for the solver settings it was tuned with.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import click
import numpy as np

# sample_covariance, synthesize_snapshots, mspr, sidelobe_mean_db and sinr are
# not called here but stay importable from this module, where bench/spans.py
# hooks them
from .arrays import (ArrayGeometry, Scenario, SourceSpec, build_manifold, db_to_linear, linear_to_db,  # noqa: F401
                     sample_covariance, snapshot_moments, split_manifold, steering_vector, synthesize_snapshots)
from .beamformers import BeamformerKind, BeamformerSpec, solve_method
from .evaluation import (  # noqa: F401
    DEFAULT_GAMMA_GRID,
    beam_pattern,
    best_point_index,
    gamma_sweep,
    mspr,
    monte_carlo,
    resolve_auto_gammas,
    sidelobe_mean_db,
    sinr,
    write_pattern_csv,
)
from .solver import NumericalError, SolverOptions, SolverStatus

__all__ = ["main", "RunConfig", "load_run_config", "BENCHMARK_OPTIONS"]

# Looser than the solver defaults: benchmark runs solve tens of thousands of
# instances. ``tol`` governs weighted_sparse alone, the one method still
# solved by ADMM, whose rho is fixed; sparse, mixed_norm and tvm_sparse stop
# at a fixed relative duality gap and mspr_relaxed within 1e-12 of 2 gamma
# (1 + p(z(0)) + p(z(nu))) of its secular root; none reaches ``max_iters``, so
# both option sets give the same solves.
# Against the default tolerance, per-trial SINR moves by up to ~0.04 dB for
# weighted_sparse (see the README); the mean-SINR margins are >= 1 dB.
BENCHMARK_OPTIONS = SolverOptions(max_iters=2000, tol=1e-4)


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    manifold_min_deg: float
    manifold_max_deg: float
    manifold_step_deg: float
    b: int
    methods: tuple
    output_dir: str
    trials: int
    mismatch_list: tuple


def _float_list(text: str, flag: str) -> tuple:
    """The values of a comma-separated list flag, each a finite number; an
    error names ``flag`` and the token it refuses."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"{flag} needs at least one value")
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{flag} takes finite numbers, got {tok!r}")
        values.append(value)
    return tuple(values)


_REQUIRED = object()
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", dict: "an object", list: "a list"}


def _check(value, kind: type, name: str):
    """``value`` as a ``kind`` (int, float, str, dict or list); raises
    ValueError naming the config key ``name`` otherwise. An int is a JSON
    integer, a float is any finite JSON number, and a boolean is neither."""
    if kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok or isinstance(value, bool):
        raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _get(doc: dict, key: str, kind: type, default=_REQUIRED, where: str = ""):
    """``doc[key]`` checked as a ``kind`` (see ``_check``), or ``default``
    when the key is absent; ``where`` names the object ``doc`` in errors."""
    name = f"{where}.{key}" if where else key
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"config is missing key {name!r}")
        return default
    return _check(doc[key], kind, name)


def _linear(doc: dict, key: str, where: str) -> float:
    """The power in dB under ``key``, as a linear power."""
    try:
        return db_to_linear(_get(doc, key, float, where=where))
    except OverflowError as exc:
        raise ValueError(f"{where}.{key} is too large for a linear power") from exc


def _source(doc, where: str) -> SourceSpec:
    doc = _check(doc, dict, where)
    return SourceSpec(_get(doc, "doa_deg", float, where=where), _linear(doc, "power_db", where))


def _scenario(doc: dict) -> Scenario:
    """The scenario object of a config (powers given in dB)."""
    geometry = _get(doc, "geometry", dict, where="scenario")
    interferers = _get(doc, "interferers", list, [], "scenario")
    return Scenario(
        geometry=ArrayGeometry(
            num_sensors=_get(geometry, "num_sensors", int, where="scenario.geometry"),
            spacing_ratio=_get(geometry, "spacing_ratio", float, where="scenario.geometry"),
        ),
        soi=_source(_get(doc, "soi", dict, where="scenario"), "scenario.soi"),
        interferers=tuple(_source(j, f"scenario.interferers[{i}]") for i, j in enumerate(interferers)),
        noise_power=_linear(doc, "noise_power_db", "scenario"),
        num_snapshots=_get(doc, "num_snapshots", int, where="scenario"),
        presumed_doa_deg=_get(doc, "presumed_doa_deg", float, where="scenario"),
        seed=_get(doc, "seed", int, where="scenario"),
    )


def _scenario_doc(scenario: Scenario) -> dict:
    """The config form of a scenario, as ``_scenario`` reads it."""

    def source(spec: SourceSpec) -> dict:
        return {"doa_deg": spec.doa_deg, "power_db": linear_to_db(spec.power)}

    geometry = scenario.geometry
    return {
        "geometry": {"num_sensors": geometry.num_sensors, "spacing_ratio": geometry.spacing_ratio},
        "soi": source(scenario.soi),
        "interferers": [source(j) for j in scenario.interferers],
        "noise_power_db": linear_to_db(scenario.noise_power),
        "num_snapshots": scenario.num_snapshots,
        "presumed_doa_deg": scenario.presumed_doa_deg,
        "seed": scenario.seed,
    }


def _method(doc, where: str) -> BeamformerSpec:
    """One entry of a config's method list: a case-insensitive ``kind``, a
    ``gamma`` that is a finite number or "auto" (the default), and the
    optional integers ``b`` and ``tv_orders``."""
    doc = _check(doc, dict, where)
    kinds = {kind.value: kind for kind in BeamformerKind}
    name = _get(doc, "kind", str, where=where)
    if name.lower() not in kinds:
        raise ValueError(f"{where}.kind must be one of {', '.join(kinds)}, got {name!r}")
    gamma = doc.get("gamma", "auto")
    return BeamformerSpec(
        kind=kinds[name.lower()],
        gamma=None if gamma == "auto" else _check(gamma, float, f'{where}.gamma (a number or "auto")'),
        b=_get(doc, "b", int, None, where),
        tv_orders=_get(doc, "tv_orders", int, None, where),
    )


def _method_doc(method: BeamformerSpec) -> dict:
    """The config form of a method, as ``_method`` reads it."""
    doc: dict = {"kind": method.kind.value}
    if method.kind is not BeamformerKind.CAPON:
        doc["gamma"] = "auto" if method.gamma is None else method.gamma
    if method.b is not None:
        doc["b"] = method.b
    if method.tv_orders is not None:
        doc["tv_orders"] = method.tv_orders
    return doc


def _report_name(mismatch: float) -> str:
    return f"sinr_mismatch_{mismatch:g}.json"


def load_run_config(
    config_path: str | None = None,
    out_dir: str | None = None,
    trials: int | None = None,
    mismatch_csv: str | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Parse the JSON config and apply flag overrides.

    Every config field is checked, overridden or not. Raises ValueError,
    naming the key, on malformed or inconsistent content, and when two
    mismatch values would write the same report file.
    """
    if config_path is None:
        text = resources.files("caponshape").joinpath("data/default_config.json").read_text()
    else:
        text = Path(config_path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    doc = _check(doc, dict, "config root")

    scenario = _scenario(_get(doc, "scenario", dict))
    manifold = _get(doc, "manifold", dict, {})
    methods = tuple(_method(entry, f"methods[{i}]") for i, entry in enumerate(_get(doc, "methods", list, [])))
    if not methods:
        raise ValueError("config must list at least one method")
    mismatch_list = tuple(
        _check(value, float, f"mismatch_list[{i}]") for i, value in enumerate(_get(doc, "mismatch_list", list, [0.0]))
    )
    if not mismatch_list:
        raise ValueError("mismatch_list must be a nonempty list")
    output_dir = _get(doc, "output_dir", str, "out")
    file_trials = _get(doc, "trials", int, 1000)

    if seed is not None:
        scenario = scenario.with_seed(seed)
    if mismatch_csv is not None:
        mismatch_list = _float_list(mismatch_csv, "--mismatch")
    seen: dict = {}
    for value in mismatch_list:
        name = _report_name(value)
        if name in seen:
            raise ValueError(f"mismatch values {seen[name]!r} and {value!r} would both write {name}")
        seen[name] = value
    return RunConfig(
        scenario=scenario,
        manifold_min_deg=_get(manifold, "min_deg", float, -90.0, "manifold"),
        manifold_max_deg=_get(manifold, "max_deg", float, 90.0, "manifold"),
        manifold_step_deg=_get(manifold, "step_deg", float, 1.0, "manifold"),
        b=_get(doc, "b", int, 15),
        methods=methods,
        output_dir=output_dir if out_dir is None else str(out_dir),
        trials=file_trials if trials is None else trials,
        mismatch_list=mismatch_list,
    )


def _round9(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.9g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _write_json(doc: dict, path: Path) -> None:
    with open(path, "w") as handle:
        json.dump(_round9(doc), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def _fmt(x) -> str:
    """9 significant digits; a non-finite value is an empty field, as it is
    null in JSON."""
    x = float(x)
    return f"{x:.9g}" if math.isfinite(x) else ""


def _common_options(f):
    for option in reversed(
        [
            click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file (default: packaged benchmark scenario)."),
            click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None, help="Output directory (default: config output_dir)."),
            click.option("--seed", type=int, default=None, help="Base RNG seed override."),
        ]
    ):
        f = option(f)
    return f


def _prepare(config: RunConfig):
    manifold = build_manifold(
        config.scenario.geometry,
        config.manifold_min_deg,
        config.manifold_max_deg,
        config.manifold_step_deg,
    )
    split = split_manifold(manifold, config.scenario.presumed_doa_deg, config.b)
    a = steering_vector(config.scenario.geometry, config.scenario.presumed_doa_deg)
    return manifold, split, a


def _exit_codes(command):
    """Map configuration errors to exit code 2 and numerical failures to 3,
    with a one-line message on stderr."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _out_path(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _warn(kind: str, capped: int = 0, total: str = "", points=()) -> None:
    """A method's stderr warnings: ``capped`` of its solves (``total`` says
    of how many, such as "4 solves") stopped at the iteration cap; so did
    some of ``points``, the sweep its gamma was selected from; and that
    selection sits on an endpoint of a grid of more than two points."""
    if capped:
        click.echo(f"warning: {kind} stopped at its iteration cap on {capped} of {total}", err=True)
    if points:
        _warn(kind, sum(p.status is SolverStatus.MAX_ITERS for p in points), f"{len(points)} grid points")
        best = best_point_index(points)
        if len(points) > 2 and best in (0, len(points) - 1):
            click.echo(f"warning: {kind} selects gamma {_fmt(points[best].gamma)}, a grid endpoint; widen the grid",
                       err=True)


@click.group()
def main():
    """Capon-family beamformers: beam patterns, gamma sweeps, Monte Carlo SINR."""


@main.command()
@_common_options
@_exit_codes
def pattern(config_path, out_dir, seed):
    """Solve every configured method on one draw and write pattern CSVs."""
    config = load_run_config(config_path, out_dir, seed=seed)
    manifold, split, a = _prepare(config)
    methods, sweeps = resolve_auto_gammas(config.methods, config.scenario, config.scenario.seed,
                                          manifold, config.b, BENCHMARK_OPTIONS)
    out = _out_path(config)

    r, mean = snapshot_moments(config.scenario)
    manifest = {"seed": config.scenario.seed, "scenario": _scenario_doc(config.scenario), "files": []}
    used_names: dict = {}
    for method, points in zip(methods, sweeps):
        result = solve_method(method, r, manifold, split, a, mean[:, np.newaxis], BENCHMARK_OPTIONS)
        _warn(method.kind.value, int(result.status is SolverStatus.MAX_ITERS), "1 solves", points)
        pat = beam_pattern(result.weights, manifold)
        stem = f"pattern_{method.kind.value}"
        count = used_names.get(stem, 0)
        used_names[stem] = count + 1
        name = f"{stem}.csv" if count == 0 else f"{stem}_{count + 1}.csv"
        write_pattern_csv(pat, out / name)
        entry = _method_doc(method)
        entry["file"] = name
        manifest["files"].append(entry)
    _write_json(manifest, out / "manifest.json")


@main.command()
@_common_options
@click.option("--trials", type=int, default=None, help="Monte Carlo trial count override.")
@click.option("--mismatch", "mismatch_csv", type=str, default=None, help="Comma-separated mismatch degrees override.")
@_exit_codes
def montecarlo(config_path, out_dir, seed, trials, mismatch_csv):
    """Run the repeated-draw SINR benchmark for every mismatch value."""
    config = load_run_config(config_path, out_dir, trials, mismatch_csv, seed)
    if config.trials < 1:
        raise ValueError(f"trials must be >= 1, got {config.trials}")
    manifold, _, _ = _prepare(config)
    out = _out_path(config)
    # tuned here, so that the tuning sweeps can be warned about; the held-out
    # draw does not depend on the mismatch, so one sweep serves every value
    methods, sweeps = resolve_auto_gammas(config.methods, config.scenario, config.scenario.seed,
                                          manifold, config.b, BENCHMARK_OPTIONS)
    reports = monte_carlo(config.scenario, methods, config.trials, config.scenario.seed, config.mismatch_list,
                          manifold, config.b, BENCHMARK_OPTIONS)

    summary_rows = []
    capped = [0] * len(methods)
    for mismatch, report in zip(config.mismatch_list, reports):
        _write_json(report.to_dict(), out / _report_name(mismatch))
        for j, entry in enumerate(report.methods):
            capped[j] += entry.solver_stats()[SolverStatus.MAX_ITERS.value]
            summary_rows.append(
                (
                    entry.method.kind.value,
                    0.0 if entry.method.gamma is None else entry.method.gamma,
                    mismatch,
                    entry.mean_sinr_db,
                    entry.std_db,
                    entry.failures,
                )
            )
    with open(out / "sinr_summary.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "gamma", "mismatch_deg", "mean_sinr_db", "std_db", "failures"])
        for kind, gamma, mismatch, mean, std, failures in summary_rows:
            writer.writerow([kind, _fmt(gamma), _fmt(mismatch), _fmt(mean), _fmt(std), failures])
    solves = config.trials * len(config.mismatch_list)
    for method, count, points in zip(methods, capped, sweeps):
        _warn(method.kind.value, count, f"{solves} solves", points)


@main.command()
@_common_options
@click.option("--gammas", "gammas_csv", type=str, default=None, help="Comma-separated gamma grid (default: 10 points per decade over [1e-3, 1e+1]).")
@_exit_codes
def sweep(config_path, out_dir, seed, gammas_csv):
    """Sweep gamma for every method on the held-out tuning draw (seed - 1)."""
    config = load_run_config(config_path, out_dir, seed=seed)
    # each gamma is checked where it becomes a BeamformerSpec
    grid = DEFAULT_GAMMA_GRID if gammas_csv is None else _float_list(gammas_csv, "--gammas")
    manifold, _, _ = _prepare(config)
    out = _out_path(config)
    held_out = config.scenario.with_seed(config.scenario.seed - 1)

    rows = []
    for method in config.methods:
        method_grid = (0.0,) if method.kind is BeamformerKind.CAPON else grid
        points = gamma_sweep(method, held_out, manifold, config.b, method_grid, BENCHMARK_OPTIONS)
        best = best_point_index(points)
        _warn(method.kind.value, points=points)
        for i, point in enumerate(points):
            rows.append(
                (
                    method.kind.value,
                    point.gamma,
                    point.sinr_db,
                    point.sidelobe_db,
                    point.mspr,
                    1 if i == best else 0,
                )
            )
    with open(out / "gamma_sweep.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "gamma", "sinr_db", "sidelobe_mean_db", "mspr", "selected"])
        for kind, gamma, sinr_db, side_db, ratio, selected in rows:
            ratio_text = "inf" if math.isinf(ratio) else _fmt(ratio)
            writer.writerow([kind, _fmt(gamma), _fmt(sinr_db), _fmt(side_db), ratio_text, selected])


if __name__ == "__main__":
    main()

"""
Command-line front end.

Three subcommands over a single JSON config:

  pattern     one snapshot draw, one solve per method, beam-pattern CSVs
  montecarlo  repeated-draw SINR benchmark per mismatch value
  sweep       gamma grid sweep on the held-out tuning draw

Flags override config fields (flag > file > built-in default). Exit codes:
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

from .arrays import Scenario, build_manifold, sample_covariance, scenario_from_dict, scenario_to_dict, split_manifold, steering_vector, synthesize_snapshots
from .beamformers import BeamformerKind, BeamformerSpec, solve_method
from .evaluation import (
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
# instances. Against the default tolerances, per-trial SINR moves by under
# 1e-3 dB for every method but weighted_sparse, which moves by up to ~0.04 dB
# (see the README); the mean-SINR margins are >= 1 dB.
BENCHMARK_OPTIONS = SolverOptions(
    rho=2.0,
    max_iters=2000,
    tol_primal=1e-4,
    tol_dual=1e-4,
    smooth_max_iters=300,
    smooth_grad_tol=1e-6,
)


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


def _default_config_text() -> str:
    return resources.files("caponshape").joinpath("data/default_config.json").read_text()


def load_run_config(
    config_path: str | None = None,
    out_dir: str | None = None,
    trials: int | None = None,
    mismatch_csv: str | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Parse the JSON config and apply flag overrides.

    Raises ValueError on malformed or inconsistent content.
    """
    if config_path is None:
        text = _default_config_text()
    else:
        text = Path(config_path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")

    try:
        scenario = scenario_from_dict(doc["scenario"])
    except KeyError as exc:
        raise ValueError(f"config is missing key {exc}") from exc

    manifold = doc.get("manifold", {})
    methods_doc = doc.get("methods", [])
    if not isinstance(methods_doc, list) or not methods_doc:
        raise ValueError("config must list at least one method")
    methods = tuple(BeamformerSpec.from_dict(entry) for entry in methods_doc)

    if seed is not None:
        scenario = scenario.with_seed(seed)
    trials_value = trials if trials is not None else int(doc.get("trials", 1000))
    if mismatch_csv is not None:
        tokens = [tok.strip() for tok in mismatch_csv.split(",") if tok.strip()]
        if not tokens:
            raise ValueError("--mismatch needs at least one value")
        mismatch_list = tuple(float(tok) for tok in tokens)
    else:
        raw = doc.get("mismatch_list", [0.0])
        if not isinstance(raw, list) or not raw:
            raise ValueError("mismatch_list must be a nonempty list")
        mismatch_list = tuple(float(v) for v in raw)

    return RunConfig(
        scenario=scenario,
        manifold_min_deg=float(manifold.get("min_deg", -90.0)),
        manifold_max_deg=float(manifold.get("max_deg", 90.0)),
        manifold_step_deg=float(manifold.get("step_deg", 1.0)),
        b=int(doc.get("b", 15)),
        methods=methods,
        output_dir=str(out_dir if out_dir is not None else doc.get("output_dir", "out")),
        trials=trials_value,
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
            click.option("--trials", type=int, default=None, help="Monte Carlo trial count override."),
            click.option("--mismatch", "mismatch_csv", type=str, default=None, help="Comma-separated mismatch degrees override."),
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


@click.group()
def main():
    """Capon-family beamformers: beam patterns, gamma sweeps, Monte Carlo SINR."""


@main.command()
@_common_options
@_exit_codes
def pattern(config_path, out_dir, trials, mismatch_csv, seed):
    """Solve every configured method on one draw and write pattern CSVs."""
    config = load_run_config(config_path, out_dir, trials, mismatch_csv, seed)
    manifold, split, a = _prepare(config)
    methods = resolve_auto_gammas(config.methods, config.scenario, config.scenario.seed,
                                  manifold, config.b, BENCHMARK_OPTIONS)
    out = _out_path(config)

    snapshots = synthesize_snapshots(config.scenario)
    r = sample_covariance(snapshots.data)
    manifest = {"seed": config.scenario.seed, "scenario": scenario_to_dict(config.scenario), "files": []}
    used_names: dict = {}
    for method in methods:
        result = solve_method(method, r, manifold, split, a, snapshots.data, BENCHMARK_OPTIONS)
        pat = beam_pattern(result.weights, manifold)
        stem = f"pattern_{method.kind.value}"
        count = used_names.get(stem, 0)
        used_names[stem] = count + 1
        name = f"{stem}.csv" if count == 0 else f"{stem}_{count + 1}.csv"
        write_pattern_csv(pat, out / name)
        entry = method.to_dict()
        entry["file"] = name
        manifest["files"].append(entry)
    _write_json(manifest, out / "manifest.json")


@main.command()
@_common_options
@_exit_codes
def montecarlo(config_path, out_dir, trials, mismatch_csv, seed):
    """Run the repeated-draw SINR benchmark for every mismatch value."""
    config = load_run_config(config_path, out_dir, trials, mismatch_csv, seed)
    if config.trials < 1:
        raise ValueError(f"trials must be >= 1, got {config.trials}")
    manifold, _, _ = _prepare(config)
    out = _out_path(config)
    # tuned once here: the held-out draw does not depend on the mismatch
    methods = resolve_auto_gammas(config.methods, config.scenario, config.scenario.seed,
                                  manifold, config.b, BENCHMARK_OPTIONS)

    summary_rows = []
    capped = [0] * len(methods)
    for mismatch in config.mismatch_list:
        report = monte_carlo(
            config.scenario,
            methods,
            config.trials,
            config.scenario.seed,
            mismatch,
            manifold,
            config.b,
            BENCHMARK_OPTIONS,
        )
        _write_json(report.to_dict(), out / f"sinr_mismatch_{mismatch:g}.json")
        for j, entry in enumerate(report.methods):
            capped[j] += entry.statuses.count(SolverStatus.MAX_ITERS)
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
    for method, count in zip(methods, capped):
        if count:
            click.echo(f"warning: {method.kind.value} stopped at its iteration cap on {count} of {solves} solves",
                       err=True)


@main.command()
@_common_options
@click.option("--gammas", "gammas_csv", type=str, default=None, help="Comma-separated gamma grid (default: 10 points per decade over [1e-3, 1e+1]).")
@_exit_codes
def sweep(config_path, out_dir, trials, mismatch_csv, seed, gammas_csv):
    """Sweep gamma for every method on the held-out tuning draw (seed - 1)."""
    config = load_run_config(config_path, out_dir, trials, mismatch_csv, seed)
    if gammas_csv is not None:
        tokens = [tok.strip() for tok in gammas_csv.split(",") if tok.strip()]
        if not tokens:
            raise ValueError("--gammas needs at least one value")
        grid = tuple(float(tok) for tok in tokens)
        if any(g < 0 for g in grid):
            raise ValueError("gamma values must be >= 0")
    else:
        grid = DEFAULT_GAMMA_GRID
    manifold, split, a = _prepare(config)
    out = _out_path(config)
    held_out = config.scenario.with_seed(config.scenario.seed - 1)

    rows = []
    on_edge = []
    for method in config.methods:
        if method.kind is BeamformerKind.CAPON:
            snapshots = synthesize_snapshots(held_out.with_soi_doa(held_out.presumed_doa_deg))
            r = sample_covariance(snapshots.data)
            result = solve_method(method, r, manifold, split, a, snapshots.data)
            rows.append(
                (
                    method.kind.value,
                    0.0,
                    sinr(result.weights, held_out.with_soi_doa(held_out.presumed_doa_deg)),
                    sidelobe_mean_db(result.weights, manifold, split),
                    mspr(result.weights, split),
                    1,
                )
            )
            continue
        points = gamma_sweep(method, held_out, manifold, config.b, grid, BENCHMARK_OPTIONS)
        best = best_point_index(points)
        if len(grid) > 2 and best in (0, len(points) - 1):
            on_edge.append((method.kind.value, points[best].gamma))
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
    for kind, gamma in on_edge:
        click.echo(f"warning: {kind} selects gamma {_fmt(gamma)}, a grid endpoint; widen the grid", err=True)


if __name__ == "__main__":
    main()

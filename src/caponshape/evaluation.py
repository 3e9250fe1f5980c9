"""
Beam patterns, output SINR, the mainlobe-to-sidelobe power ratio, gamma
sweeps, and the Monte Carlo benchmark.

All quality metrics are computed against the scenario's TRUE source angles
and powers; the beamformers themselves only ever see the presumed steering
direction and the sample covariance, which is what makes the mismatch
experiments meaningful.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# sample_covariance, synthesize_snapshots and solve_method are not called
# here but stay importable from this module, where bench/spans.py hooks them
from .arrays import (  # noqa: F401
    ArrayManifold,
    ManifoldSplit,
    Scenario,
    build_manifold,
    sample_covariance,
    snapshot_moments,
    split_manifold,
    steering_vector,
    synthesize_snapshots,
)
from .beamformers import BeamformerSpec, resolve_split, solve_method, solve_trials  # noqa: F401
from .solver import NumericalError, SolverOptions, SolverStatus, cholesky_solve

__all__ = [
    "DB_FLOOR",
    "DEFAULT_GAMMA_GRID",
    "BeamPattern",
    "MethodSinr",
    "SinrReport",
    "SweepPoint",
    "beam_pattern",
    "write_pattern_csv",
    "sinr",
    "optimal_sinr",
    "mspr",
    "sidelobe_mean_db",
    "gamma_sweep",
    "best_point_index",
    "select_gamma",
    "resolve_auto_gammas",
    "monte_carlo",
]

# finite stand-in for -inf when writing files
DB_FLOOR = -300.0

# 10 points per decade over [1e-3, 1e+1]
DEFAULT_GAMMA_GRID = tuple(np.logspace(-3.0, 1.0, 41))


@dataclass(frozen=True, eq=False)
class BeamPattern:
    """Complex array gains g_n = w^H a(alpha_n) over the manifold grid.

    ``power_db`` is 20 log10 of the gain moduli after dividing the gain
    vector by its Euclidean norm, so the normalized gains have unit L2 norm;
    exact zeros give -inf (floored only when serialized).
    """

    angles_deg: np.ndarray
    gains: np.ndarray
    power_db: np.ndarray


@dataclass(frozen=True)
class MethodSinr:
    """One method's Monte Carlo result. ``per_trial_db`` holds the SINR of
    every trial that did not fail; ``statuses``, ``iterations`` and
    ``subgrad_residuals`` hold the solver outcome of every trial."""

    method: BeamformerSpec
    mean_sinr_db: float
    std_db: float
    trials: int
    failures: int
    per_trial_db: tuple = field(repr=False, default=())
    statuses: tuple = field(repr=False, default=())
    iterations: tuple = field(repr=False, default=())
    subgrad_residuals: tuple = field(repr=False, default=())

    def solver_stats(self) -> dict:
        """Solver status counts, nearest-rank iteration quantiles over the
        trials, and the worst solver certificate (each trial's
        ``subgrad_residual``) over the trials that did not fail (NaN when
        every trial failed)."""
        stats = {status.value: 0 for status in SolverStatus}
        for status in self.statuses:
            stats[status.value] += 1
        ordered = sorted(self.iterations)
        for name, q in (("p50", 0.5), ("p90", 0.9), ("max", 1.0)):
            stats[f"iterations_{name}"] = ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0
        residuals = [res for res, status in zip(self.subgrad_residuals, self.statuses)
                     if status is not SolverStatus.NUMERICAL_FAILURE]
        stats["subgrad_residual_max"] = max(residuals, default=math.nan)
        return stats


@dataclass(frozen=True)
class SinrReport:
    """Per-method Monte Carlo SINR statistics for one mismatch value."""

    methods: tuple
    mismatch_deg: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "methods": [
                {
                    "kind": entry.method.kind.value,
                    "gamma": 0.0 if entry.method.gamma is None else entry.method.gamma,
                    "mean_sinr_db": entry.mean_sinr_db,
                    "std_db": entry.std_db,
                    "trials": entry.trials,
                    "failures": entry.failures,
                    "solver": entry.solver_stats(),
                }
                for entry in self.methods
            ],
            "mismatch_deg": self.mismatch_deg,
            "seed": self.seed,
        }


def beam_pattern(w: np.ndarray, manifold: ArrayManifold) -> BeamPattern:
    """Evaluate w against every manifold column and L2-normalize."""
    w = np.asarray(w, dtype=complex).ravel()
    if w.size != manifold.matrix.shape[0]:
        raise ValueError("weight vector length does not match the manifold")
    gains = w.conj() @ manifold.matrix
    norm = np.linalg.norm(gains)
    with np.errstate(divide="ignore"):
        if norm == 0.0:
            power_db = np.full(gains.size, -np.inf)
        else:
            power_db = 20.0 * np.log10(np.abs(gains) / norm)
    return BeamPattern(angles_deg=manifold.angles_deg.copy(), gains=gains, power_db=power_db)


def write_pattern_csv(pattern: BeamPattern, path) -> None:
    """CSV with header angle_deg,gain_db,gain_re,gain_im, one row per angle.

    The complex columns hold the L2-normalized gains (consistent with
    gain_db); floats carry 9 significant digits and -inf is floored at
    -300 dB.
    """
    norm = np.linalg.norm(pattern.gains)
    unit = pattern.gains / norm if norm > 0 else pattern.gains
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["angle_deg", "gain_db", "gain_re", "gain_im"])
        for angle, g, db in zip(pattern.angles_deg, unit, pattern.power_db):
            floored = DB_FLOOR if not math.isfinite(db) else max(db, DB_FLOOR)
            writer.writerow([f"{angle:.9g}", f"{floored:.9g}", f"{g.real:.9g}", f"{g.imag:.9g}"])


def _interference_noise_power(w: np.ndarray, scenario: Scenario) -> float:
    geom = scenario.geometry
    total = scenario.noise_power * float(np.linalg.norm(w) ** 2)
    for interferer in scenario.interferers:
        a_j = steering_vector(geom, interferer.doa_deg)
        total += interferer.power * abs(w.conj() @ a_j) ** 2
    return total


def sinr(w: np.ndarray, scenario: Scenario) -> float:
    """Output SINR in dB against the scenario's true sources.

    sigma_s^2 |w^H a(theta_0)|^2 over w^H (sum_j sigma_j^2 a_j a_j^H +
    sigma_n^2 I) w, floored at -300 dB when the numerator vanishes.
    Invariant under any nonzero complex scaling of w.
    """
    w = np.asarray(w, dtype=complex).ravel()
    if np.linalg.norm(w) == 0:
        raise ValueError("weight vector must be nonzero")
    a0 = steering_vector(scenario.geometry, scenario.soi.doa_deg)
    numerator = scenario.soi.power * abs(w.conj() @ a0) ** 2
    if numerator == 0.0:
        return DB_FLOOR
    value = 10.0 * math.log10(numerator / _interference_noise_power(w, scenario))
    return max(value, DB_FLOOR)


def optimal_sinr(scenario: Scenario) -> float:
    """Best achievable SINR (dB) given the true interference-plus-noise
    covariance: sigma_s^2 a_0^H R_in^-1 a_0."""
    geom = scenario.geometry
    a0 = steering_vector(geom, scenario.soi.doa_deg)
    r_in = scenario.noise_power * np.eye(geom.num_sensors, dtype=complex)
    for interferer in scenario.interferers:
        a_j = steering_vector(geom, interferer.doa_deg)
        r_in += interferer.power * np.outer(a_j, a_j.conj())
    x, ok = cholesky_solve(r_in[np.newaxis], a0[np.newaxis])
    if not ok[0]:
        raise NumericalError("interference-plus-noise covariance is not positive definite in floating point")
    return 10.0 * math.log10(scenario.soi.power * float(np.real(a0.conj() @ x[0])))


def mspr(w: np.ndarray, split: ManifoldSplit) -> float:
    """Mainlobe-to-sidelobe power ratio ||A_M^H w||^2 / ||A_S^H w||^2
    (linear; +inf when the sidelobe response is exactly zero)."""
    w = np.asarray(w, dtype=complex).ravel()
    main = float(np.linalg.norm(split.a_main.conj().T @ w) ** 2)
    side = float(np.linalg.norm(split.a_side.conj().T @ w) ** 2)
    if side == 0.0:
        return math.inf
    return main / side


def sidelobe_mean_db(w: np.ndarray, manifold: ArrayManifold, split: ManifoldSplit) -> float:
    """Mean normalized sidelobe power of w's beam pattern, in dB."""
    pattern = beam_pattern(w, manifold)
    norm = np.linalg.norm(pattern.gains)
    if norm == 0.0:
        return DB_FLOOR
    power = np.abs(pattern.gains[split.sidelobe_indices] / norm) ** 2
    mean = float(power.mean())
    if mean == 0.0:
        return DB_FLOOR
    return max(10.0 * math.log10(mean), DB_FLOOR)


@dataclass(frozen=True)
class SweepPoint:
    gamma: float
    sinr_db: float
    sidelobe_db: float
    mspr: float
    status: SolverStatus


def gamma_sweep(
    method: BeamformerSpec,
    scenario: Scenario,
    manifold: ArrayManifold | None = None,
    b: int = 15,
    grid=DEFAULT_GAMMA_GRID,
    options: SolverOptions = SolverOptions(),
) -> list:
    """Solve one method over a gamma grid on a single mismatch-free draw.

    The draw uses the scenario's own seed with the true SOI direction forced
    to the presumed one; each grid point records output SINR, mean sidelobe
    level, the mainlobe-to-sidelobe ratio and the solver status. The grid
    solves as one batch (``solve_trials``), which is given the draw's mean
    snapshot for every point and forms WEIGHTED_SPARSE's SNM weights from
    it; a point that fails numerically raises NumericalError.
    """
    if len(grid) == 0:
        raise ValueError("gamma grid must be nonempty")
    if manifold is None:
        manifold = build_manifold(scenario.geometry)
    validation = scenario.with_soi_doa(scenario.presumed_doa_deg)
    split = split_manifold(manifold, validation.presumed_doa_deg, b)
    a = steering_vector(validation.geometry, validation.presumed_doa_deg)
    r, mean = snapshot_moments(validation)
    methods = [method.with_gamma(float(gamma)) for gamma in grid]
    results = solve_trials(methods, [r] * len(grid), manifold, split, a, [mean[:, np.newaxis]] * len(grid), options)
    ratio_split = resolve_split(method, manifold, split)
    points = []
    for point, result in zip(methods, results):
        if result.status is SolverStatus.NUMERICAL_FAILURE:
            raise NumericalError(f"{method.kind.value} solve failed numerically at gamma {point.gamma:g}")
        points.append(
            SweepPoint(
                gamma=point.gamma,
                sinr_db=sinr(result.weights, validation),
                sidelobe_db=sidelobe_mean_db(result.weights, manifold, split),
                mspr=mspr(result.weights, ratio_split),
                status=result.status,
            )
        )
    return points


def best_point_index(points) -> int:
    """Index of the highest-SINR sweep point (the first one on ties)."""
    return max(range(len(points)), key=lambda i: (points[i].sinr_db, -i))


def select_gamma(
    method: BeamformerSpec,
    scenario: Scenario,
    manifold: ArrayManifold | None = None,
    b: int = 15,
    grid=DEFAULT_GAMMA_GRID,
    options: SolverOptions = SolverOptions(),
) -> float:
    """Argmax-SINR gamma over the sweep grid (first hit on ties)."""
    points = gamma_sweep(method, scenario, manifold, b, grid, options)
    return points[best_point_index(points)].gamma


def resolve_auto_gammas(
    methods,
    scenario: Scenario,
    base_seed: int,
    manifold: ArrayManifold | None = None,
    b: int = 15,
    options: SolverOptions = SolverOptions(),
) -> tuple:
    """The methods with every ``gamma: auto`` replaced by the argmax-SINR
    gamma of its sweep over the default grid on the held-out draw (seed
    base_seed - 1, no mismatch), and per method the SweepPoints of that
    sweep; a method with a fixed gamma passes through unchanged, with no
    points."""
    held_out = scenario.with_seed(base_seed - 1)
    sweeps = tuple(gamma_sweep(method, held_out, manifold, b, DEFAULT_GAMMA_GRID, options)
                   if method.gamma_is_auto else () for method in methods)
    resolved = tuple(method.with_gamma(points[best_point_index(points)].gamma) if points else method
                     for method, points in zip(methods, sweeps))
    return resolved, sweeps


def monte_carlo(
    scenario: Scenario,
    methods,
    trials: int,
    base_seed: int,
    mismatch_deg=0.0,
    manifold: ArrayManifold | None = None,
    b: int = 15,
    options: SolverOptions = SolverOptions(),
):
    """Repeated-draw SINR benchmark.

    Trial t re-synthesizes the scenario with seed base_seed + t and the true
    SOI direction moved to presumed + mismatch_deg; every method solves
    against the presumed direction and is scored against the truth. Methods
    with gamma = auto are tuned once per call by sweep on a held-out draw
    (seed base_seed - 1, no mismatch) and the tuned value is frozen across
    trials and mismatch values. Solver failures are excluded from the
    statistics and counted.

    ``mismatch_deg`` is a float, for which one SinrReport is returned, or a
    nonempty sequence of floats, for which a list of one SinrReport per
    value is returned, in order. Trial t has the same seed at every value,
    so its seed is drawn once for all of them, and each value's draw is kept
    as its covariance and mean snapshot (``snapshot_moments``). Each method
    then solves the draws of every value, concatenated in value order, in
    one ``solve_trials`` call, which forms WEIGHTED_SPARSE's SNM weights
    from the mean snapshots and passes its solvers consecutive slices
    of a bounded size; the results are split back by value to be scored. A
    solve's answer can depend on the batch it is part of up to rounding
    (an iteration count by one, the SINR by a few 1e-6 dB), so a call over
    several values need not match one call per value digit for digit.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    single = np.ndim(mismatch_deg) == 0
    mismatches = [float(mismatch_deg)] if single else [float(value) for value in mismatch_deg]
    if not mismatches:
        raise ValueError("mismatch_deg must hold at least one value")
    methods = list(methods)
    if not methods:
        raise ValueError("methods list must be nonempty")
    if manifold is None:
        manifold = build_manifold(scenario.geometry)
    split = split_manifold(manifold, scenario.presumed_doa_deg, b)
    a = steering_vector(scenario.geometry, scenario.presumed_doa_deg)

    resolved, _ = resolve_auto_gammas(methods, scenario, base_seed, manifold, b, options)

    # the solves need each draw's covariance and mean snapshot only (the
    # mean gives the SNM weights), so no draw forms its snapshots
    truths = [scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch) for mismatch in mismatches]
    doas = [truth.soi.doa_deg for truth in truths]
    moments = [snapshot_moments(scenario.with_seed(base_seed + t), doas) for t in range(trials)]
    # draw i * trials + t is trial t at mismatch value i
    draws = [moments[t][i] for i in range(len(mismatches)) for t in range(trials)]
    covariances = [r for r, _ in draws]
    means = [mean[:, np.newaxis] for _, mean in draws]
    solved = [solve_trials([method] * len(covariances), covariances, manifold, split, a, means, options)
              for method in resolved]

    reports = []
    for i, (mismatch, truth) in enumerate(zip(mismatches, truths)):
        entries = []
        for method, method_outcomes in zip(resolved, solved):
            outcomes = method_outcomes[i * trials:(i + 1) * trials]
            vals = tuple(sinr(out.weights, truth)
                         for out in outcomes if out.status is not SolverStatus.NUMERICAL_FAILURE)
            entries.append(
                MethodSinr(
                    method=method,
                    mean_sinr_db=float(np.mean(vals)) if vals else math.nan,
                    std_db=float(np.std(vals)) if vals else math.nan,
                    trials=trials,
                    failures=trials - len(vals),
                    per_trial_db=vals,
                    statuses=tuple(out.status for out in outcomes),
                    iterations=tuple(out.iterations for out in outcomes),
                    subgrad_residuals=tuple(out.subgrad_residual for out in outcomes),
                )
            )
        reports.append(SinrReport(methods=tuple(entries), mismatch_deg=mismatch, seed=int(base_seed)))
    return reports[0] if single else reports

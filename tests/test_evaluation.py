"""Beam patterns, SINR metrics, gamma sweeps, and the Monte Carlo loop."""

import csv
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from caponshape import evaluation
from caponshape.arrays import (
    ArrayGeometry,
    Scenario,
    SourceSpec,
    build_manifold,
    sample_covariance,
    snapshot_moments,
    split_manifold,
    steering_vector,
    synthesize_snapshots,
)
from caponshape.beamformers import BeamformerKind, BeamformerSpec, WeightVector, capon_closed_form, solve_method
from caponshape.cli import BENCHMARK_OPTIONS
from caponshape.evaluation import (
    DB_FLOOR,
    beam_pattern,
    gamma_sweep,
    monte_carlo,
    mspr,
    optimal_sinr,
    select_gamma,
    sidelobe_mean_db,
    sinr,
    write_pattern_csv,
)
from caponshape.solver import NumericalError, SolverStatus


def test_beam_pattern_peaks_at_the_matched_direction(scenario, manifold):
    w = steering_vector(scenario.geometry, 37.0)
    pattern = beam_pattern(w, manifold)
    peak = int(np.argmax(pattern.power_db))
    assert pattern.angles_deg[peak] == 37.0


def test_beam_pattern_power_is_normalized(covariance, manifold, a0):
    w = capon_closed_form(covariance, a0).weights
    pattern = beam_pattern(w, manifold)
    assert math.isclose(np.sum(10.0 ** (pattern.power_db / 10.0)), 1.0, rel_tol=1e-9)


def test_beam_pattern_rejects_wrong_length(manifold):
    with pytest.raises(ValueError):
        beam_pattern(np.ones(5), manifold)


def test_write_pattern_csv_format(tmp_path, covariance, manifold, a0):
    w = capon_closed_form(covariance, a0).weights
    path = tmp_path / "pattern.csv"
    write_pattern_csv(beam_pattern(w, manifold), path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["angle_deg", "gain_db", "gain_re", "gain_im"]
    assert len(rows) == 182
    for row in rows[1:]:
        db = float(row[1])
        mag = math.hypot(float(row[2]), float(row[3]))
        assert math.isclose(db, 20.0 * math.log10(mag), abs_tol=1e-4)


def test_write_pattern_csv_floors_exact_nulls(tmp_path):
    # w = [1, -1] has a hard zero against the broadside column [1, 1]
    geometry = ArrayGeometry(num_sensors=2, spacing_ratio=0.5)
    manifold = build_manifold(geometry)
    path = tmp_path / "pattern.csv"
    write_pattern_csv(beam_pattern(np.array([1.0, -1.0]), manifold), path)
    with open(path, newline="") as handle:
        rows = {float(row[0]): row for row in list(csv.reader(handle))[1:]}
    assert float(rows[0.0][1]) == DB_FLOOR
    assert float(rows[0.0][2]) == 0.0 and float(rows[0.0][3]) == 0.0


def _bare_scenario(num_sensors, soi_power, noise_power):
    return Scenario(
        geometry=ArrayGeometry(num_sensors=num_sensors, spacing_ratio=0.5),
        soi=SourceSpec(doa_deg=0.0, power=soi_power),
        interferers=(),
        noise_power=noise_power,
        num_snapshots=16,
        presumed_doa_deg=0.0,
        seed=1,
    )


def test_sinr_white_noise_hand_value():
    # matched weights against noise alone: SINR = M * soi_power / noise_power
    scen = _bare_scenario(8, 1.0, 1.0)
    a = steering_vector(scen.geometry, 0.0)
    assert math.isclose(sinr(a / 8.0, scen), 10.0 * math.log10(8.0), abs_tol=1e-12)


def test_sinr_is_scale_invariant(covariance, a0, scenario):
    w = capon_closed_form(covariance, a0).weights
    assert abs(sinr(w, scenario) - sinr(5j * w, scenario)) <= 1e-10


def test_sinr_floors_orthogonal_weights():
    scen = _bare_scenario(2, 1.0, 1.0)
    assert sinr(np.array([1.0, -1.0]), scen) == DB_FLOOR


def test_sinr_rejects_zero_weights(scenario):
    with pytest.raises(ValueError):
        sinr(np.zeros(8), scenario)


def test_optimal_sinr_white_noise_hand_value():
    scen = _bare_scenario(8, 10.0, 2.0)
    assert math.isclose(optimal_sinr(scen), 10.0 * math.log10(40.0), abs_tol=1e-12)


def test_optimal_sinr_bounds_any_beamformer(scenario, manifold, a0):
    validation = scenario.with_soi_doa(scenario.presumed_doa_deg)
    r = sample_covariance(synthesize_snapshots(validation).data)
    w = capon_closed_form(r, a0).weights
    assert sinr(w, validation) <= optimal_sinr(validation) + 1e-9


def test_optimal_sinr_rejects_a_covariance_that_does_not_factor(scenario):
    # positive definite on paper, but a 1e200 interferer swamps noise of 1e-12
    swamped = replace(scenario, noise_power=1e-12, interferers=(SourceSpec(30.0, 1e200),))
    with pytest.raises(NumericalError):
        optimal_sinr(swamped)


def test_mspr_is_scale_invariant(covariance, split, a0):
    w = capon_closed_form(covariance, a0).weights
    assert math.isclose(mspr(w, split), mspr(3j * w, split), rel_tol=1e-12)


def test_mspr_empty_sidelobe_is_infinite():
    geometry = ArrayGeometry(num_sensors=4, spacing_ratio=0.5)
    tiny = build_manifold(geometry, -1.0, 1.0, 1.0)
    full_window = split_manifold(tiny, 0.0, 1)
    assert full_window.sidelobe_indices.size == 0
    assert mspr(np.ones(4), full_window) == math.inf


def test_sidelobe_mean_db_matches_direct_computation(covariance, manifold, split, a0):
    w = capon_closed_form(covariance, a0).weights
    gains = w.conj() @ manifold.matrix
    power = np.abs(gains[split.sidelobe_indices] / np.linalg.norm(gains)) ** 2
    expected = 10.0 * math.log10(power.mean())
    assert math.isclose(sidelobe_mean_db(w, manifold, split), expected, abs_tol=1e-12)


def test_gamma_sweep_is_deterministic(scenario, manifold, config):
    method = BeamformerSpec(BeamformerKind.SPARSE)
    grid = (0.1, 1.0)
    first = gamma_sweep(method, scenario, manifold, config.b, grid, BENCHMARK_OPTIONS)
    second = gamma_sweep(method, scenario, manifold, config.b, grid, BENCHMARK_OPTIONS)
    assert first == second
    assert [p.gamma for p in first] == [0.1, 1.0]


def test_gamma_sweep_zero_point_is_the_closed_form(scenario, manifold, a0, config):
    point = gamma_sweep(BeamformerSpec(BeamformerKind.SPARSE), scenario, manifold,
                        config.b, (0.0,), BENCHMARK_OPTIONS)[0]
    validation = scenario.with_soi_doa(scenario.presumed_doa_deg)
    r = sample_covariance(synthesize_snapshots(validation).data)
    w = capon_closed_form(r, a0).weights
    # the solver route regularizes its z-system with a ~1e-10 * trace ridge,
    # which moves the SINR a few 1e-6 dB at this covariance scale
    assert math.isclose(point.sinr_db, sinr(w, validation), abs_tol=1e-4)


@pytest.mark.parametrize("kind", [k for k in BeamformerKind if k is not BeamformerKind.CAPON], ids=lambda k: k.value)
def test_gamma_sweep_matches_point_by_point_solves(scenario, manifold, split, a0, config, kind):
    # the grid solves as batches (gamma 0 apart from the positive gammas);
    # each point must match its own solve, to a bound fixed before running
    grid = (0.0, 0.1, 1.0)
    points = gamma_sweep(BeamformerSpec(kind), scenario, manifold, config.b, grid, BENCHMARK_OPTIONS)
    # the sweep's own covariance and SNM source: the smooth stop rounds
    # differently on covariances a few ulps apart
    validation = scenario.with_soi_doa(scenario.presumed_doa_deg)
    r, mean = snapshot_moments(validation)
    assert [p.gamma for p in points] == list(grid)
    for point in points:
        w = solve_method(BeamformerSpec(kind, point.gamma), r, manifold, split, a0, mean[:, np.newaxis],
                         BENCHMARK_OPTIONS).weights
        assert math.isclose(point.sinr_db, sinr(w, validation), rel_tol=0.0, abs_tol=1e-9)
        assert math.isclose(point.sidelobe_db, sidelobe_mean_db(w, manifold, split), rel_tol=0.0, abs_tol=1e-9)
        assert math.isclose(point.mspr, mspr(w, split), rel_tol=1e-9)


def test_gamma_sweep_rejects_empty_grid(scenario, manifold, config):
    with pytest.raises(ValueError):
        gamma_sweep(BeamformerSpec(BeamformerKind.SPARSE), scenario, manifold, config.b, ())


def test_select_gamma_is_the_sweep_argmax(scenario, manifold, config):
    method = BeamformerSpec(BeamformerKind.SPARSE)
    grid = (0.01, 0.1, 1.0)
    points = gamma_sweep(method, scenario, manifold, config.b, grid, BENCHMARK_OPTIONS)
    expected = max(points, key=lambda p: p.sinr_db).gamma
    assert select_gamma(method, scenario, manifold, config.b, grid, BENCHMARK_OPTIONS) == expected


def test_monte_carlo_single_trial_statistics(scenario, manifold, config):
    report = monte_carlo(scenario, [BeamformerSpec(BeamformerKind.CAPON)], 1,
                         scenario.seed, 0.0, manifold, config.b, BENCHMARK_OPTIONS)
    entry = report.methods[0]
    assert entry.trials == 1
    assert entry.failures == 0
    assert len(entry.per_trial_db) == 1
    assert entry.mean_sinr_db == entry.per_trial_db[0]
    assert entry.std_db == 0.0


def test_monte_carlo_is_reproducible(scenario, manifold, config):
    methods = [BeamformerSpec(BeamformerKind.CAPON), BeamformerSpec(BeamformerKind.SPARSE, 0.5)]
    runs = [
        monte_carlo(scenario, methods, 3, scenario.seed, 0.0, manifold, config.b, BENCHMARK_OPTIONS)
        for _ in range(2)
    ]
    for first, second in zip(runs[0].methods, runs[1].methods):
        assert first.per_trial_db == second.per_trial_db


def test_monte_carlo_validates_inputs(scenario, manifold, config):
    with pytest.raises(ValueError):
        monte_carlo(scenario, [BeamformerSpec(BeamformerKind.CAPON)], 0, scenario.seed)
    with pytest.raises(ValueError):
        monte_carlo(scenario, [], 1, scenario.seed)
    with pytest.raises(ValueError, match="at least one value"):
        monte_carlo(scenario, [BeamformerSpec(BeamformerKind.CAPON)], 1, scenario.seed, ())


def every_trial_fails(method, covariances, *args, **kwargs):
    return [WeightVector(np.full(8, np.nan, dtype=complex), math.nan, SolverStatus.NUMERICAL_FAILURE, 0)
            for _ in covariances]


def test_monte_carlo_counts_solver_failures(monkeypatch, scenario, manifold, config):
    monkeypatch.setattr("caponshape.evaluation.solve_trials", every_trial_fails)
    report = monte_carlo(scenario, [BeamformerSpec(BeamformerKind.CAPON)], 2,
                         scenario.seed, 0.0, manifold, config.b, BENCHMARK_OPTIONS)
    entry = report.methods[0]
    assert entry.failures == 2
    assert entry.per_trial_db == ()
    assert math.isnan(entry.mean_sinr_db)
    assert entry.solver_stats()["numerical_failure"] == 2


def test_monte_carlo_resolves_auto_gamma_once(scenario, manifold, config, monkeypatch):
    # the tuned value is chosen on the held-out draw (seed - 1) and then
    # frozen into the reported method spec, one sweep for every mismatch value
    expected = select_gamma(BeamformerSpec(BeamformerKind.MSPR_RELAXED),
                            scenario.with_seed(scenario.seed - 1), manifold, config.b,
                            options=BENCHMARK_OPTIONS)
    sweeps = []
    sweep = evaluation.gamma_sweep

    def counted(method, *args, **kwargs):
        sweeps.append(method.kind)
        return sweep(method, *args, **kwargs)

    monkeypatch.setattr("caponshape.evaluation.gamma_sweep", counted)
    for mismatch in (0.0, (0.0, 3.0)):
        sweeps.clear()
        reports = monte_carlo(scenario, [BeamformerSpec(BeamformerKind.MSPR_RELAXED)], 1,
                              scenario.seed, mismatch, manifold, config.b, BENCHMARK_OPTIONS)
        assert sweeps == [BeamformerKind.MSPR_RELAXED]
        for report in [reports] if isinstance(mismatch, float) else reports:
            resolved = report.methods[0].method
            assert not resolved.gamma_is_auto
            assert resolved.gamma == expected


def test_monte_carlo_over_mismatch_values_equals_one_call_per_value(scenario, manifold, config):
    # every trial's seed is drawn once for both values, and each method
    # solves the draws of both in one batch. capon and mspr_relaxed solve
    # each problem on its own, so they match one call per value exactly; a
    # convex solve rounds with its batch, so there its iterations may move by
    # 1 and its SINR by 1e-5 dB. Everything else must match exactly.
    gammas = {BeamformerKind.SPARSE: 0.3162277660168379, BeamformerKind.WEIGHTED_SPARSE: 10.0,
              BeamformerKind.MIXED_NORM: 0.19952623149688797, BeamformerKind.TVM_SPARSE: 0.19952623149688797,
              BeamformerKind.MSPR_RELAXED: 0.025118864315095794}
    methods = [BeamformerSpec(BeamformerKind.CAPON)] + [BeamformerSpec(kind, gamma) for kind, gamma in gammas.items()]
    joint = monte_carlo(scenario, methods, 3, scenario.seed, (0.0, 3.0), manifold, config.b, BENCHMARK_OPTIONS)
    assert [report.mismatch_deg for report in joint] == [0.0, 3.0]
    for mismatch, report in zip((0.0, 3.0), joint):
        alone = monte_carlo(scenario, methods, 3, scenario.seed, mismatch, manifold, config.b, BENCHMARK_OPTIONS)
        assert report.seed == alone.seed
        assert [entry.method.kind for entry in report.methods] == list(BeamformerKind)
        for entry, expected in zip(report.methods, alone.methods):
            kind = entry.method.kind
            assert entry.method == expected.method
            assert (entry.trials, entry.failures, entry.statuses) == (expected.trials, expected.failures,
                                                                      expected.statuses), kind
            if kind in (BeamformerKind.CAPON, BeamformerKind.MSPR_RELAXED):
                assert entry == expected, kind
            else:
                assert max(abs(x - y) for x, y in zip(entry.iterations, expected.iterations, strict=True)) <= 1, kind
                npt.assert_allclose(entry.per_trial_db, expected.per_trial_db, rtol=0, atol=1e-5, err_msg=kind.value)


def test_monte_carlo_admm_certificates_meet_the_tolerance(scenario, manifold, config):
    # an ADMM solve's certificate is the dual residual its stop test held
    # below tol
    gammas = {BeamformerKind.SPARSE: 0.3162277660168379, BeamformerKind.WEIGHTED_SPARSE: 10.0,
              BeamformerKind.MIXED_NORM: 0.19952623149688797, BeamformerKind.TVM_SPARSE: 0.19952623149688797}
    methods = [BeamformerSpec(kind, gamma) for kind, gamma in gammas.items()]
    for mismatch in (0.0, 3.0):
        report = monte_carlo(scenario, methods, 3, scenario.seed, mismatch, manifold, config.b, BENCHMARK_OPTIONS)
        for entry in report.methods:
            stats = entry.solver_stats()
            assert stats["converged"] == entry.trials, entry.method.kind
            assert 0.0 < stats["subgrad_residual_max"] < BENCHMARK_OPTIONS.tol, entry.method.kind


def test_sinr_report_to_dict_schema(scenario, manifold, config):
    report = monte_carlo(scenario, [BeamformerSpec(BeamformerKind.CAPON)], 1,
                         scenario.seed, 1.5, manifold, config.b, BENCHMARK_OPTIONS)
    doc = report.to_dict()
    assert set(doc) == {"methods", "mismatch_deg", "seed"}
    assert doc["mismatch_deg"] == 1.5
    assert doc["seed"] == scenario.seed
    entry = doc["methods"][0]
    assert set(entry) == {"kind", "gamma", "mean_sinr_db", "std_db", "trials", "failures", "solver"}
    assert entry["kind"] == "capon"
    assert entry["solver"] == {"converged": 1, "max_iters": 0, "numerical_failure": 0,
                               "iterations_p50": 0, "iterations_p90": 0, "iterations_max": 0,
                               "subgrad_residual_max": 0.0}

"""Array model: steering vectors, manifolds, snapshot synthesis, covariance
estimation, SNM weighting, difference operators, and scenario serialization."""

import numpy as np
import numpy.testing as npt
import pytest

from caponshape.arrays import (
    ArrayGeometry,
    Scenario,
    SourceSpec,
    build_manifold,
    db_to_linear,
    difference_operator,
    linear_to_db,
    sample_covariance,
    scenario_from_dict,
    scenario_to_dict,
    snm_weighting,
    split_manifold,
    steering_vector,
    synthesize_snapshots,
)


def test_steering_vector_broadside_is_all_ones():
    geom = ArrayGeometry(num_sensors=4, spacing_ratio=0.5)
    npt.assert_allclose(steering_vector(geom, 0.0), np.ones(4))


def test_steering_vector_first_element_always_one():
    geom = ArrayGeometry(num_sensors=6, spacing_ratio=0.37)
    for doa in (-90.0, -41.3, 17.0, 90.0):
        assert steering_vector(geom, doa)[0] == 1.0 + 0.0j


def test_steering_vector_half_wavelength_30_degrees():
    # sin 30 = 1/2 so the phase step is pi/2
    geom = ArrayGeometry(num_sensors=2, spacing_ratio=0.5)
    npt.assert_allclose(steering_vector(geom, 30.0), [1.0, 1.0j], atol=1e-12)


def test_steering_vector_rejects_out_of_range():
    geom = ArrayGeometry(num_sensors=2, spacing_ratio=0.5)
    with pytest.raises(ValueError):
        steering_vector(geom, 90.5)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(num_sensors=1, spacing_ratio=0.5)
    with pytest.raises(ValueError):
        ArrayGeometry(num_sensors=4, spacing_ratio=0.0)


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(doa_deg=95.0, power=1.0)
    with pytest.raises(ValueError):
        SourceSpec(doa_deg=10.0, power=0.0)


def test_manifold_default_grid(manifold):
    assert manifold.matrix.shape == (8, 181)
    assert manifold.angles_deg[0] == -90.0
    assert manifold.angles_deg[-1] == 90.0
    assert manifold.grid_step_deg == 1.0


def test_manifold_small_grid_middle_column():
    man = build_manifold(ArrayGeometry(4, 0.5), -1.0, 1.0, 1.0)
    assert man.angles_deg.tolist() == [-1.0, 0.0, 1.0]
    npt.assert_allclose(man.matrix[:, 1], np.ones(4))


def test_manifold_column_norms(manifold):
    npt.assert_allclose(np.linalg.norm(manifold.matrix, axis=0), np.sqrt(8.0))
    npt.assert_allclose(manifold.matrix[0], np.ones(181))


def test_manifold_rejects_bad_grid():
    geom = ArrayGeometry(4, 0.5)
    with pytest.raises(ValueError):
        build_manifold(geom, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_manifold(geom, -90.0, 90.0, -1.0)
    with pytest.raises(ValueError):
        build_manifold(geom, 0.0, 1.0, 0.3)  # step does not divide the span


def test_split_manifold_benchmark_window(manifold):
    split = split_manifold(manifold, 0.0, 15)
    assert split.mainlobe_indices.size == 31
    assert manifold.angles_deg[split.mainlobe_indices[0]] == -15.0
    assert manifold.angles_deg[split.mainlobe_indices[-1]] == 15.0
    assert manifold.angles_deg[split.center_index] == 0.0
    assert not split.truncated
    assert split.a_main.shape == (8, 31)
    assert split.a_side.shape == (8, 150)
    # disjoint and exhaustive
    combined = np.sort(np.concatenate([split.mainlobe_indices, split.sidelobe_indices]))
    npt.assert_array_equal(combined, np.arange(181))


def test_split_manifold_b_zero_snaps_to_nearest(manifold):
    split = split_manifold(manifold, 42.4, 0)
    assert split.mainlobe_indices.size == 1
    assert manifold.angles_deg[split.mainlobe_indices[0]] == 42.0


def test_split_manifold_truncates_at_edge(manifold):
    split = split_manifold(manifold, 90.0, 2)
    assert split.truncated
    assert split.mainlobe_indices.size == 3
    npt.assert_array_equal(manifold.angles_deg[split.mainlobe_indices], [88.0, 89.0, 90.0])


def test_split_manifold_rejects_oversized_window():
    man = build_manifold(ArrayGeometry(4, 0.5), -2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        split_manifold(man, 0.0, 3)
    with pytest.raises(ValueError):
        split_manifold(man, 0.0, -1)


def test_snapshots_deterministic(scenario):
    first = synthesize_snapshots(scenario)
    second = synthesize_snapshots(scenario)
    npt.assert_array_equal(first.data, second.data)
    npt.assert_array_equal(first.soi_amplitudes, second.soi_amplitudes)


def test_snapshots_shapes(scenario, snapshots):
    assert snapshots.data.shape == (8, scenario.num_snapshots)
    assert snapshots.soi_amplitudes.shape == (scenario.num_snapshots,)


def test_snapshots_single_source_columns_align_with_steering():
    geom = ArrayGeometry(4, 0.5)
    sc = Scenario(geom, SourceSpec(20.0, 1.0), (), 1e-12, 8, 20.0, 3)
    snap = synthesize_snapshots(sc)
    a = steering_vector(geom, 20.0)
    for k in range(8):
        col = snap.data[:, k]
        proj = a * (a.conj() @ col) / 4.0
        assert np.linalg.norm(col - proj) <= 1e-4 * np.linalg.norm(col)


def test_snapshot_row_power_matches_total_source_power():
    # law of large numbers on sensor 1: unit-modulus steering entries make
    # the row variance the sum of all impinging powers
    geom = ArrayGeometry(4, 0.5)
    sc = Scenario(geom, SourceSpec(0.0, 2.0), (SourceSpec(30.0, 1.5),), 0.5, 100_000, 0.0, 11)
    snap = synthesize_snapshots(sc)
    var = float(np.mean(np.abs(snap.data[0]) ** 2))
    assert abs(var - 4.0) / 4.0 < 0.02


def test_sample_covariance_rank_one():
    r = sample_covariance(np.array([[1.0], [1.0j]]))
    npt.assert_allclose(r.matrix, [[1.0, -1.0j], [1.0j, 1.0]])
    assert r.snapshot_count == 1


def test_sample_covariance_orthogonal_columns():
    npt.assert_allclose(sample_covariance(np.eye(2, dtype=complex)).matrix, 0.5 * np.eye(2))


def test_sample_covariance_hermitian_psd_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        r = sample_covariance(x).matrix
        npt.assert_allclose(r, r.conj().T, rtol=0, atol=1e-12)
        trace = float(np.real(np.trace(r)))
        assert trace >= 0.0
        assert np.linalg.eigvalsh(r).min() >= -1e-10 * trace


def test_sample_covariance_rejects_empty():
    with pytest.raises(ValueError):
        sample_covariance(np.zeros((4, 0)))


def test_snm_weighting_single_matched_snapshot():
    geom = ArrayGeometry(8, 0.5)
    man = build_manifold(geom)
    x = steering_vector(geom, 30.0).reshape(-1, 1)
    q = snm_weighting(man, x)
    peak = int(np.argmax(q))
    assert man.angles_deg[peak] == 30.0
    assert q[peak] == 1.0
    # with one matched snapshot the weights follow the beam of the matched
    # direction: q_n = |a(alpha_n)^H a(30)|^2 / M^2
    expected = (np.abs(man.matrix.conj().T @ x[:, 0]) / 8.0) ** 2
    npt.assert_allclose(q, expected, atol=1e-12)


def test_snm_weighting_range(manifold, snapshots):
    q = snm_weighting(manifold, snapshots.data)
    assert q.shape == (181,)
    assert q.min() >= 0.0
    assert q.max() == 1.0


def test_snm_weighting_rejects_zero_data(manifold):
    with pytest.raises(ValueError):
        snm_weighting(manifold, np.zeros((8, 4)))
    with pytest.raises(ValueError):
        snm_weighting(manifold, np.zeros((5, 4)))  # wrong sensor count


def test_difference_operator_first_order_stencil():
    d = difference_operator(1, 3)
    npt.assert_array_equal(d, [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_difference_operator_reversal_is_a_sign_flip(order):
    # the backward difference (rows and columns reversed) is (-1)^order times
    # the forward one, so a stacked [forward; backward] L2 norm is sqrt(2)
    # times the forward norm and the forward block alone suffices
    d = difference_operator(order, 181)
    npt.assert_array_equal(np.flipud(np.fliplr(d)), (-1) ** order * d)


def test_difference_operator_annihilates_low_degree_sequences():
    npt.assert_allclose(difference_operator(1, 10) @ np.ones(10), 0.0, atol=1e-12)
    npt.assert_allclose(difference_operator(2, 10) @ np.arange(10.0), 0.0, atol=1e-12)
    npt.assert_allclose(difference_operator(3, 10) @ np.arange(10.0) ** 2, 0.0, atol=1e-9)


def test_difference_operator_second_differences_of_squares():
    d = difference_operator(2, 4)
    npt.assert_allclose(d @ np.array([0.0, 1.0, 4.0, 9.0]), [2.0, 2.0])


def test_difference_operator_validation():
    assert difference_operator(3, 10).shape == (7, 10)
    with pytest.raises(ValueError):
        difference_operator(0, 5)
    with pytest.raises(ValueError):
        difference_operator(5, 5)


def test_scenario_round_trip(scenario):
    doc = scenario_to_dict(scenario)
    back = scenario_from_dict(doc)
    assert back == scenario
    assert scenario_to_dict(back) == doc


def test_scenario_validation():
    geom = ArrayGeometry(4, 0.5)
    soi = SourceSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        Scenario(geom, soi, (SourceSpec(30.0, 1.0), SourceSpec(30.0, 2.0)), 1.0, 10, 0.0, 1)
    with pytest.raises(ValueError):
        Scenario(geom, soi, (), 0.0, 10, 0.0, 1)
    with pytest.raises(ValueError):
        Scenario(geom, soi, (), 1.0, 0, 0.0, 1)
    with pytest.raises(ValueError):
        Scenario(geom, soi, (), 1.0, 10, 120.0, 1)


def test_scenario_from_dict_reports_missing_keys():
    with pytest.raises(ValueError):
        scenario_from_dict({"geometry": {"num_sensors": 4, "spacing_ratio": 0.5}})


def test_scenario_with_helpers(scenario):
    moved = scenario.with_soi_doa(3.0)
    assert moved.soi.doa_deg == 3.0
    assert moved.soi.power == scenario.soi.power
    assert moved.presumed_doa_deg == scenario.presumed_doa_deg
    reseeded = scenario.with_seed(99)
    assert reseeded.seed == 99
    assert reseeded.soi == scenario.soi


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert linear_to_db(100.0) == pytest.approx(20.0)
    assert db_to_linear(linear_to_db(3.7)) == pytest.approx(3.7, rel=1e-12)

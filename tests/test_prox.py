"""Proximal operators: hand values, structural identities, optimality
certificates, and brute-force spot checks."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_minimize, linf_polish

from caponshape.prox import group_shrink, project_l1_ball, prox_group_l2, prox_l1, prox_linf


def test_prox_l1_hand_values():
    npt.assert_allclose(prox_l1(np.array([3.0 + 0.0j]), 1.0), [2.0])
    npt.assert_allclose(prox_l1(np.array([3.0j]), 1.0), [2.0j])
    npt.assert_allclose(prox_l1(np.array([0.5 + 0.0j]), 1.0), [0.0])


def test_prox_l1_preserves_phase():
    v = np.array([2.0 * np.exp(0.7j), 0.3 * np.exp(-2.1j)])
    out = prox_l1(v, 0.5)
    assert np.angle(out[0]) == pytest.approx(0.7)
    assert abs(out[0]) == pytest.approx(1.5)
    assert out[1] == 0.0


def test_prox_l1_zero_threshold_is_identity():
    v = np.array([1.0 + 2.0j, -0.3j])
    npt.assert_array_equal(prox_l1(v, 0.0), v)
    with pytest.raises(ValueError):
        prox_l1(v, -0.1)


def test_project_l1_ball_inside_ball_is_identity():
    v = np.array([0.3 + 0.1j, -0.2j])
    npt.assert_array_equal(project_l1_ball(v, 2.0), v)


def test_project_l1_ball_zero_radius():
    v = np.array([1.0, 2.0j])
    npt.assert_array_equal(project_l1_ball(v, 0.0), np.zeros(2))
    with pytest.raises(ValueError):
        project_l1_ball(v, -1.0)


def test_project_l1_ball_hits_the_boundary():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        radius = float(rng.uniform(0.2, 0.8)) * np.abs(v).sum()
        p = project_l1_ball(v, radius)
        assert np.abs(p).sum() == pytest.approx(radius, rel=1e-10)


def test_project_l1_ball_is_the_closest_point():
    # no feasible candidate may be closer than the projection
    rng = np.random.default_rng(5)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    radius = 0.5 * np.abs(v).sum()
    p = project_l1_ball(v, radius)
    d_star = np.linalg.norm(v - p)
    for _ in range(200):
        q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q *= radius * rng.uniform() / np.abs(q).sum()
        assert np.linalg.norm(v - q) >= d_star - 1e-12


def test_prox_linf_water_filling_hand_value():
    # shave the largest modulus down until the removed mass totals t
    npt.assert_allclose(prox_linf(np.array([3.0 + 0.0j, 1.0 + 0.0j]), 1.0), [2.0, 1.0])


def test_prox_linf_small_vector_collapses_to_zero():
    v = np.array([0.2 + 0.1j, -0.05j])  # ||v||_1 <= t
    npt.assert_allclose(prox_linf(v, 5.0), np.zeros(2), atol=1e-15)


def test_prox_linf_zero_threshold_is_identity():
    v = np.array([1.0 - 1.0j, 0.4j])
    npt.assert_array_equal(prox_linf(v, 0.0), v)


def test_prox_linf_optimality_certificate():
    # v - x must lie in t times the subdifferential of the max modulus at x:
    # total residual mass t, supported on the argmax moduli, phases aligned
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t = float(rng.uniform(0.1, 1.2))
        x = prox_linf(v, t)
        r = v - x
        if np.abs(x).max() == 0.0:
            assert np.abs(v).sum() <= t + 1e-12
            continue
        assert np.abs(r).sum() == pytest.approx(t, abs=1e-10)
        peak = np.abs(x).max()
        for i in range(n):
            if abs(r[i]) > 1e-12:
                assert abs(x[i]) == pytest.approx(peak, abs=1e-9)
                align = r[i] * np.conj(x[i])
                assert align.real > 0.0
                assert abs(align.imag) <= 1e-9 * abs(align)


def test_prox_group_l2_single_group_shrinks_radially():
    v = np.array([3.0, 4.0j])  # norm 5, threshold 1 -> scale 4/5
    npt.assert_allclose(prox_group_l2(v, [np.arange(2)], 1.0), v * 0.8)


def test_prox_group_l2_per_group_arithmetic():
    # groups [3, 4] and [0.5]: the small group is inside the threshold
    v = np.array([3.0 + 0.0j, 4.0 + 0.0j, 0.5 + 0.0j])
    out = prox_group_l2(v, [np.array([0, 1]), np.array([2])], 1.0)
    npt.assert_allclose(out, [2.4, 3.2, 0.0])


def test_prox_group_l2_validates_partition():
    v = np.zeros(3, dtype=complex)
    with pytest.raises(ValueError):
        prox_group_l2(v, [np.array([0, 1])], 1.0)  # index 2 missing
    with pytest.raises(ValueError):
        prox_group_l2(v, [np.array([0, 1]), np.array([1, 2])], 1.0)  # overlap
    with pytest.raises(ValueError):
        prox_group_l2(v, [np.arange(3)], -1.0)


def test_group_shrink_matches_validated_form():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    groups = [np.array([0, 3]), np.array([1, 2, 5]), np.array([4])]
    npt.assert_array_equal(group_shrink(v, groups, 0.7), prox_group_l2(v, groups, 0.7))


def test_prox_operators_match_brute_force_spot_checks():
    rng = np.random.default_rng(31)
    for _ in range(3):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = float(rng.uniform(0.2, 1.0))

        bf = grid_minimize(lambda x: np.abs(x).sum(axis=1), v, t)
        assert np.abs(prox_l1(v, t) - bf).max() <= 1e-4

        bf = linf_polish(grid_minimize(lambda x: np.abs(x).max(axis=1), v, t), v, t)
        assert np.abs(prox_linf(v, t) - bf).max() <= 1e-4

        bf = grid_minimize(lambda x: np.linalg.norm(x, axis=1), v, t)
        assert np.abs(prox_group_l2(v, [np.arange(2)], t) - bf).max() <= 1e-4


def _rows(draw, n_max=8):
    """A (T, n) complex array and a nonnegative per-row threshold."""
    t_rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, n_max))
    # a 0.01 grid, so exact zeros and ties occur but no modulus is so small
    # that a threshold divided by it overflows
    parts = st.integers(-1000, 1000).map(lambda k: k / 100.0)
    re = np.array(draw(st.lists(parts, min_size=t_rows * n, max_size=t_rows * n))).reshape(t_rows, n)
    im = np.array(draw(st.lists(parts, min_size=t_rows * n, max_size=t_rows * n))).reshape(t_rows, n)
    thresholds = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=t_rows, max_size=t_rows)))
    return re + 1j * im, thresholds


@st.composite
def rows_and_thresholds(draw):
    return _rows(draw)


@given(rows_and_thresholds(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_row_wise_proxes_equal_stacked_single_row_calls(case, n_groups):
    v, t = case
    n = v.shape[1]
    groups = [g for g in np.array_split(np.arange(n)[::-1], min(n_groups, n))]
    for op in (prox_l1, prox_linf, project_l1_ball,
               lambda x, r: group_shrink(x, groups, r), lambda x, r: prox_group_l2(x, groups, r)):
        npt.assert_array_equal(op(v, t), np.stack([op(row, r) for row, r in zip(v, t)]))


@given(rows_and_thresholds())
@settings(max_examples=200, deadline=None)
def test_project_l1_ball_lands_in_the_ball_and_is_idempotent(case):
    v, radius = case
    p = project_l1_ball(v, radius)
    assert np.all(np.abs(p).sum(axis=1) <= radius * (1.0 + 1e-12) + 1e-12)
    npt.assert_allclose(project_l1_ball(p, radius), p, rtol=1e-12, atol=1e-12)


@given(rows_and_thresholds())
@example((np.array([[0.1 + 0.1j, -0.2j, 0.0, 0.05], [0.0, 0.0, 0.0, 0.0],
                    [3.0, -3.0j, 2.0 + 2.0j, 0.0], [1.0j, 1.0j, 1.0j, 1.0j]]), np.array([1.0, 0.5, 2.0, 0.0])))
@settings(max_examples=300, deadline=None)
def test_prox_linf_row_certificate(case):
    # per row, x = prox(v, t) is v with its moduli clipped at one level: zero
    # when ||v||_1 <= t, else the residual v - x carries total modulus t on
    # the peak moduli of x, phase-aligned, so Re<v - x, x> = t ||x||_inf
    v, t = case
    x = prox_linf(v, t)
    assert x.shape == v.shape
    for vi, xi, ti in zip(v, x, t):
        tol = 1e-12 * (1.0 + np.abs(vi).sum() + ti)
        npt.assert_array_less(np.abs(xi), np.abs(vi) + tol)
        assert np.all(np.abs(np.imag(xi * vi.conj())) <= tol * (1.0 + np.abs(vi)))
        assert np.all(np.real(xi * vi.conj()) >= 0.0)
        if np.abs(vi).sum() <= ti:
            assert np.all(xi == 0.0)
            continue
        r = vi - xi
        peak = np.abs(xi).max()
        assert abs(np.abs(r).sum() - ti) <= tol
        assert np.all(np.abs(np.abs(xi[np.abs(r) > tol]) - peak) <= tol)
        assert abs(np.real(np.vdot(xi, r)) - ti * peak) <= tol * (1.0 + peak)


def test_row_wise_prox_rejects_a_negative_row_threshold():
    v = np.ones((2, 3), dtype=complex)
    for op in (prox_l1, prox_linf, project_l1_ball):
        with pytest.raises(ValueError):
            op(v, np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        prox_group_l2(v, [np.arange(3)], np.array([0.5, -0.1]))

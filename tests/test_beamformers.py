"""The six beamformer front ends: closed form, gamma-zero reductions,
shaping behavior on the benchmark draw, and the dispatch layer."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from caponshape.arrays import (
    difference_operator,
    sample_covariance,
    snm_weighting,
    split_manifold,
    steering_vector,
    synthesize_snapshots,
)
from caponshape.beamformers import (
    BeamformerKind,
    BeamformerSpec,
    capon_closed_form,
    mixed_norm_capon,
    mspr_capon,
    solve_method,
    solve_trials,
    sparse_capon,
    tvm_capon,
    weighted_sparse_capon,
)
from caponshape.cli import BENCHMARK_OPTIONS
from caponshape.evaluation import sidelobe_mean_db, sinr
from caponshape.solver import (
    NumericalError,
    PenaltyKind,
    PenaltyTerm,
    ProblemSpec,
    SolverOptions,
    SolverStatus,
    admm_solve,
    eliminate_constraint,
    smooth_gradient,
)

# swept once on the held-out tuning draw and frozen for the comparisons below
GAMMAS = {
    BeamformerKind.SPARSE: 0.3162277660168379,
    BeamformerKind.WEIGHTED_SPARSE: 10.0,
    BeamformerKind.MIXED_NORM: 0.19952623149688797,
    BeamformerKind.TVM_SPARSE: 0.19952623149688797,
    BeamformerKind.MSPR_RELAXED: 0.025118864315095794,
}


def test_capon_identity_covariance(a0):
    w = capon_closed_form(np.eye(8), a0)
    npt.assert_allclose(w.weights, a0 / 8.0, atol=1e-12)
    assert w.iterations == 0
    assert not w.ridged
    assert w.status is SolverStatus.CONVERGED


def test_capon_diagonal_hand_value():
    w = capon_closed_form(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
    npt.assert_allclose(w.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_capon_ridge_rescue_is_flagged():
    w = capon_closed_form(np.diag([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0], dtype=complex))
    assert w.ridged
    assert w.constraint_residual <= 1e-9


def test_capon_rejects_dead_covariance():
    with pytest.raises(NumericalError):
        capon_closed_form(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]))


def test_capon_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        capon_closed_form(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        capon_closed_form(np.zeros((2, 3)), np.ones(2))


def test_gamma_zero_reduces_every_kind_to_closed_form(covariance, manifold, split, a0, snapshots):
    w_cf = capon_closed_form(covariance, a0).weights
    scale = np.linalg.norm(w_cf)
    outputs = {
        "sparse": sparse_capon(covariance, manifold, a0, 0.0),
        "weighted": weighted_sparse_capon(covariance, manifold, snapshots.data, a0, 0.0),
        "mixed": mixed_norm_capon(covariance, split, a0, 0.0),
        "tvm": tvm_capon(covariance, manifold, split, a0, 0.0),
        "mspr": mspr_capon(covariance, split, a0, 0.0),
    }
    for name, out in outputs.items():
        assert np.linalg.norm(out.weights - w_cf) <= 1e-6 * scale, name
        assert out.constraint_residual <= 1e-9, name


def test_sparse_capon_penalty_monotone_in_gamma(covariance, manifold, a0):
    prev = math.inf
    for gamma in (0.01, 0.1, 1.0):
        w = sparse_capon(covariance, manifold, a0, gamma, BENCHMARK_OPTIONS).weights
        l1 = float(np.abs(manifold.matrix.conj().T @ w).sum())
        assert l1 <= prev + 1e-6
        prev = l1


def test_sparse_capon_cuts_sidelobes_below_capon(covariance, manifold, split, a0):
    w_cf = capon_closed_form(covariance, a0).weights
    gamma = GAMMAS[BeamformerKind.SPARSE]
    w_sp = sparse_capon(covariance, manifold, a0, gamma, BENCHMARK_OPTIONS).weights
    assert sidelobe_mean_db(w_sp, manifold, split) < sidelobe_mean_db(w_cf, manifold, split)


def test_weighted_sparse_with_identity_weighting_matches_sparse(covariance, manifold, a0):
    # one e1 snapshot gives every grid row the same mean modulus, so Q = I
    x = np.zeros((8, 1), dtype=complex)
    x[0, 0] = 1.0
    npt.assert_allclose(snm_weighting(manifold, x), np.ones(181), atol=1e-12)
    w_ws = weighted_sparse_capon(covariance, manifold, x, a0, 0.05).weights
    w_sp = sparse_capon(covariance, manifold, a0, 0.05).weights
    npt.assert_allclose(w_ws, w_sp, atol=1e-10)


def test_weighted_sparse_deepens_interferer_nulls(covariance, manifold, snapshots, a0, scenario):
    # at equal gamma the data-driven weighting re-aims penalty mass at the
    # directions that actually received energy
    gamma = GAMMAS[BeamformerKind.SPARSE]
    w_sp = sparse_capon(covariance, manifold, a0, gamma, BENCHMARK_OPTIONS).weights
    w_ws = weighted_sparse_capon(covariance, manifold, snapshots.data, a0, gamma, BENCHMARK_OPTIONS).weights
    for interferer in scenario.interferers:
        a_j = steering_vector(scenario.geometry, interferer.doa_deg)
        assert abs(w_ws.conj() @ a_j) < abs(w_sp.conj() @ a_j)


def test_mixed_norm_lifts_the_mainlobe_floor(covariance, manifold, split, a0):
    # the max-modulus mainlobe term spreads gain across the window instead of
    # letting the sparse penalty thin it out
    w_sp = sparse_capon(covariance, manifold, a0, GAMMAS[BeamformerKind.SPARSE], BENCHMARK_OPTIONS).weights
    w_mx = mixed_norm_capon(covariance, split, a0, GAMMAS[BeamformerKind.MIXED_NORM], BENCHMARK_OPTIONS).weights
    floor_mixed = np.abs(split.a_main.conj().T @ w_mx).min()
    floor_sparse = np.abs(split.a_main.conj().T @ w_sp).min()
    assert floor_mixed > floor_sparse


def test_tvm_flat_pattern_has_zero_first_order_tv(manifold):
    # w = e1 gives an all-ones pattern over the grid
    w = np.zeros(8, dtype=complex)
    w[0] = 1.0
    v = manifold.matrix.conj().T @ w
    d1 = difference_operator(1, 181)
    assert np.linalg.norm(d1 @ v) <= 1e-10


def test_tvm_capon_flattens_the_pattern(covariance, manifold, split, a0):
    w_cf = capon_closed_form(covariance, a0).weights
    w_tv = tvm_capon(covariance, manifold, split, a0, GAMMAS[BeamformerKind.TVM_SPARSE], 2, BENCHMARK_OPTIONS).weights
    d1 = difference_operator(1, 181)

    def total_variation(w):
        return float(np.linalg.norm(d1 @ (manifold.matrix.conj().T @ w)))

    assert total_variation(w_tv) < total_variation(w_cf)


def test_tvm_capon_matches_the_stacked_forward_backward_problem(covariance, manifold, split, a0):
    # reference: each TV term on the stacked [forward; backward] difference
    # at weight gamma, as the penalty is written; tvm_capon poses it on the
    # forward block at weight sqrt(2) * gamma
    gamma = GAMMAS[BeamformerKind.TVM_SPARSE]
    terms = []
    for order in (1, 2):
        f = difference_operator(order, 181)
        stacked = np.vstack([f, np.flipud(np.fliplr(f))])
        terms.append(PenaltyTerm(manifold.matrix @ stacked.T, PenaltyKind.GROUP_L2, gamma))
    terms.append(PenaltyTerm(split.a_side, PenaltyKind.L1, gamma))
    reference = admm_solve(ProblemSpec(covariance, a0, tuple(terms)), SolverOptions())
    out = tvm_capon(covariance, manifold, split, a0, gamma, 2, SolverOptions())
    assert np.linalg.norm(out.weights - reference.w) <= 1e-5 * np.linalg.norm(reference.w)


def test_tvm_capon_validates_orders(covariance, manifold, split, a0):
    with pytest.raises(ValueError):
        tvm_capon(covariance, manifold, split, a0, 0.1, orders=0)
    with pytest.raises(ValueError):
        tvm_capon(covariance, manifold, split, a0, 0.1, orders=4)


def test_convex_kinds_never_increase_their_penalty(covariance, manifold, split, a0, snapshots):
    # optimality: moving from the closed form to the penalized optimum cannot
    # raise the penalty (the quadratic is already minimal at the closed form)
    w_cf = capon_closed_form(covariance, a0).weights
    d_ops = [difference_operator(i, 181) for i in (1, 2)]
    q = snm_weighting(manifold, snapshots.data)

    def sparse_pen(w):
        return float(np.abs(manifold.matrix.conj().T @ w).sum())

    def weighted_pen(w):
        return float(np.abs(q * (manifold.matrix.conj().T @ w)).sum())

    def mixed_pen(w):
        return float(np.abs(split.a_main.conj().T @ w).max() + np.abs(split.a_side.conj().T @ w).sum())

    def tvm_pen(w):
        # ||[F; flip(F)] p|| = sqrt(2) ||F p||
        pattern = manifold.matrix.conj().T @ w
        return float(sum(math.sqrt(2.0) * np.linalg.norm(d @ pattern) for d in d_ops)
                     + np.abs(split.a_side.conj().T @ w).sum())

    cases = [
        (sparse_capon(covariance, manifold, a0, GAMMAS[BeamformerKind.SPARSE], BENCHMARK_OPTIONS), sparse_pen),
        (weighted_sparse_capon(covariance, manifold, snapshots.data, a0,
                               GAMMAS[BeamformerKind.WEIGHTED_SPARSE], BENCHMARK_OPTIONS), weighted_pen),
        (mixed_norm_capon(covariance, split, a0, GAMMAS[BeamformerKind.MIXED_NORM], BENCHMARK_OPTIONS), mixed_pen),
        (tvm_capon(covariance, manifold, split, a0, GAMMAS[BeamformerKind.TVM_SPARSE], 2, BENCHMARK_OPTIONS), tvm_pen),
    ]
    for out, penalty in cases:
        assert penalty(out.weights) <= penalty(w_cf) * (1.0 + 1e-6)


def test_mspr_capon_converges_to_a_stationary_point(covariance, split, a0):
    gamma = GAMMAS[BeamformerKind.MSPR_RELAXED]
    # the gradient tolerance is absolute and the 40 dB interferer puts the
    # covariance at ~1e4 scale, so the float floor here is ~1e-7
    opts = SolverOptions(smooth_grad_tol=1e-6)
    out = mspr_capon(covariance, split, a0, gamma, opts)
    assert out.status is SolverStatus.CONVERGED
    assert out.constraint_residual <= 1e-9
    spec = ProblemSpec(covariance, a0, (
        PenaltyTerm(split.a_main, PenaltyKind.QUARTIC_UNIT, gamma),
        PenaltyTerm(split.a_side, PenaltyKind.SQUARED_L2, gamma),
    ))
    _, basis = eliminate_constraint(a0)
    assert np.linalg.norm(smooth_gradient(spec, basis, out.weights)) <= opts.smooth_grad_tol


def test_beamformer_spec_validation():
    BeamformerSpec(BeamformerKind.CAPON)
    BeamformerSpec(BeamformerKind.CAPON, gamma=0.0)
    with pytest.raises(ValueError):
        BeamformerSpec(BeamformerKind.CAPON, gamma=0.5)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            BeamformerSpec(BeamformerKind.SPARSE, gamma=bad)
    with pytest.raises(ValueError):
        BeamformerSpec(BeamformerKind.SPARSE, b=3)
    with pytest.raises(ValueError):
        BeamformerSpec(BeamformerKind.MIXED_NORM, b=-1)
    with pytest.raises(ValueError):
        BeamformerSpec(BeamformerKind.MIXED_NORM, tv_orders=2)
    with pytest.raises(ValueError):
        BeamformerSpec(BeamformerKind.TVM_SPARSE, tv_orders=4)


def test_beamformer_spec_auto_gamma():
    spec = BeamformerSpec(BeamformerKind.SPARSE)
    assert spec.gamma_is_auto
    assert not BeamformerSpec(BeamformerKind.CAPON).gamma_is_auto
    resolved = spec.with_gamma(0.2)
    assert resolved.gamma == 0.2
    assert not resolved.gamma_is_auto


def test_solve_method_matches_direct_calls(covariance, manifold, split, a0, snapshots):
    x = snapshots.data
    pairs = [
        (BeamformerSpec(BeamformerKind.CAPON), capon_closed_form(covariance, a0)),
        (BeamformerSpec(BeamformerKind.SPARSE, 0.1),
         sparse_capon(covariance, manifold, a0, 0.1, BENCHMARK_OPTIONS)),
        (BeamformerSpec(BeamformerKind.WEIGHTED_SPARSE, 0.1),
         weighted_sparse_capon(covariance, manifold, x, a0, 0.1, BENCHMARK_OPTIONS)),
        (BeamformerSpec(BeamformerKind.MIXED_NORM, 0.1),
         mixed_norm_capon(covariance, split, a0, 0.1, BENCHMARK_OPTIONS)),
        (BeamformerSpec(BeamformerKind.TVM_SPARSE, 0.1, tv_orders=2),
         tvm_capon(covariance, manifold, split, a0, 0.1, 2, BENCHMARK_OPTIONS)),
        (BeamformerSpec(BeamformerKind.MSPR_RELAXED, 0.02),
         mspr_capon(covariance, split, a0, 0.02, BENCHMARK_OPTIONS)),
    ]
    for method, direct in pairs:
        via_dispatch = solve_method(method, covariance, manifold, split, a0, x, BENCHMARK_OPTIONS)
        npt.assert_array_equal(via_dispatch.weights, direct.weights)


def test_solve_method_requires_resolved_gamma(covariance, manifold, split, a0):
    with pytest.raises(ValueError):
        solve_method(BeamformerSpec(BeamformerKind.SPARSE), covariance, manifold, split, a0)


def test_solve_method_requires_snapshots_for_weighted(covariance, manifold, split, a0):
    method = BeamformerSpec(BeamformerKind.WEIGHTED_SPARSE, gamma=0.1)
    with pytest.raises(ValueError):
        solve_method(method, covariance, manifold, split, a0, x=None)


def test_solve_method_b_override_re_splits(covariance, manifold, split, a0):
    method = BeamformerSpec(BeamformerKind.MIXED_NORM, gamma=0.1, b=25)
    wide = solve_method(method, covariance, manifold, split, a0, None, BENCHMARK_OPTIONS)
    direct = mixed_norm_capon(covariance, split_manifold(manifold, 0.0, 25), a0, 0.1, BENCHMARK_OPTIONS)
    npt.assert_array_equal(wide.weights, direct.weights)
    default = solve_method(BeamformerSpec(BeamformerKind.MIXED_NORM, gamma=0.1),
                           covariance, manifold, split, a0, None, BENCHMARK_OPTIONS)
    assert not np.allclose(wide.weights, default.weights)


def test_solve_trials_matches_one_trial_solves(scenario, manifold, split, a0):
    draws = [synthesize_snapshots(scenario.with_seed(scenario.seed + t)).data for t in range(3)]
    covariances = [sample_covariance(x) for x in draws]
    snm = [snm_weighting(manifold, x) for x in draws]
    for kind in BeamformerKind:
        method = BeamformerSpec(kind, GAMMAS.get(kind))
        batch = solve_trials([method] * 3, covariances, manifold, split, a0, snm, BENCHMARK_OPTIONS)
        for r, x, got in zip(covariances, draws, batch):
            alone = solve_method(method, r, manifold, split, a0, x, BENCHMARK_OPTIONS)
            assert got.status is alone.status, kind
            assert got.iterations == alone.iterations, kind
            assert np.linalg.norm(got.weights - alone.weights) <= 1e-8 * np.linalg.norm(alone.weights), kind


def test_solve_trials_is_invariant_to_the_phase_of_a(scenario, manifold, split, a0):
    # w^H a = 1 and every penalty depend on w only through |A^H w| and w^H R w,
    # so a -> e^{j phi} a must give w -> e^{j phi} w, in the same iterations
    phase = np.exp(0.7j)
    draws = [synthesize_snapshots(scenario.with_seed(seed)).data for seed in range(7, 12)]
    covariances = [sample_covariance(x) for x in draws]
    snm = [snm_weighting(manifold, x) for x in draws]
    for kind, gamma in GAMMAS.items():
        methods = [BeamformerSpec(kind, gamma)] * len(draws)
        base = solve_trials(methods, covariances, manifold, split, a0, snm, BENCHMARK_OPTIONS)
        turned = solve_trials(methods, covariances, manifold, split, phase * a0, snm, BENCHMARK_OPTIONS)
        bound = 1e-6 if kind is BeamformerKind.MSPR_RELAXED else 1e-10
        for got, ref in zip(turned, base):
            assert got.status is ref.status, kind
            assert got.iterations == ref.iterations, kind
            assert np.linalg.norm(got.weights - phase * ref.weights) <= bound * np.linalg.norm(ref.weights), kind


@pytest.mark.parametrize("mismatch", (0.0, 3.0))
def test_benchmark_options_move_sinr_by_under_1e3_db(scenario, manifold, split, a0, mismatch):
    # the claim beside BENCHMARK_OPTIONS: against the default tolerances,
    # per-trial SINR moves by under 1e-3 dB for every method but
    # weighted_sparse, whose default-tolerance solves stop at their cap
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch)
    draws = [truth.with_seed(seed) for seed in range(7, 15)]
    covariances = [sample_covariance(synthesize_snapshots(draw).data) for draw in draws]
    for kind in (BeamformerKind.SPARSE, BeamformerKind.MIXED_NORM, BeamformerKind.TVM_SPARSE,
                 BeamformerKind.MSPR_RELAXED):
        methods = [BeamformerSpec(kind, GAMMAS[kind])] * len(draws)
        tight = solve_trials(methods, covariances, manifold, split, a0, None, SolverOptions())
        loose = solve_trials(methods, covariances, manifold, split, a0, None, BENCHMARK_OPTIONS)
        for draw, ref, got in zip(draws, tight, loose):
            assert ref.status is got.status is SolverStatus.CONVERGED, kind
            assert abs(sinr(got.weights, draw) - sinr(ref.weights, draw)) < 1e-3, kind


def test_solve_trials_fails_a_trial_alone(covariance, manifold, split, a0):
    # a dead covariance raises in solve_method but only marks its own trial here
    covariances = [covariance, np.zeros((8, 8)), covariance]
    batch = solve_trials([BeamformerSpec(BeamformerKind.CAPON)] * 3, covariances, manifold, split, a0)
    assert [out.status for out in batch] == [SolverStatus.CONVERGED, SolverStatus.NUMERICAL_FAILURE,
                                             SolverStatus.CONVERGED]
    assert np.all(np.isnan(batch[1].weights))
    npt.assert_array_equal(batch[0].weights, capon_closed_form(covariance, a0).weights)
    with pytest.raises(NumericalError):
        solve_method(BeamformerSpec(BeamformerKind.CAPON), np.zeros((8, 8)), manifold, split, a0)
    with pytest.raises(ValueError):
        solve_trials([BeamformerSpec(BeamformerKind.WEIGHTED_SPARSE, 0.1)] * 3, covariances, manifold, split, a0)
    # one spec per covariance, of one kind and shape
    with pytest.raises(ValueError):
        solve_trials([BeamformerSpec(BeamformerKind.CAPON)] * 2, covariances, manifold, split, a0)
    with pytest.raises(ValueError):
        solve_trials([BeamformerSpec(BeamformerKind.SPARSE, 0.1), BeamformerSpec(BeamformerKind.MIXED_NORM, 0.1)],
                     covariances[:1] * 2, manifold, split, a0)

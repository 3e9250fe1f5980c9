"""The six beamformer front ends: closed form, gamma-zero reductions,
shaping behavior on the benchmark draw, and the dispatch layer."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from caponshape import beamformers
from caponshape.arrays import (
    difference_operator,
    sample_covariance,
    snapshot_moments,
    snm_weighting,
    split_manifold,
    steering_vector,
    synthesize_snapshots,
)
from caponshape.beamformers import (
    _penalty_terms,
    BeamformerKind,
    BeamformerSpec,
    capon_closed_form,
    mspr_capon,
    solve_method,
    solve_trials,
)
from caponshape.cli import BENCHMARK_OPTIONS
from caponshape.evaluation import sidelobe_mean_db
from caponshape.solver import (
    NumericalError,
    PenaltyKind,
    PenaltyTerm,
    ProblemSpec,
    SolverOptions,
    SolverStatus,
    admm_solve,
    eliminate_constraint,
    objective_value,
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


def _solve(kind, gamma, covariance, manifold, split, a0, x=None, options=BENCHMARK_OPTIONS, **params):
    """One solve of a kind at gamma through ``solve_method``."""
    return solve_method(BeamformerSpec(kind, gamma, **params), covariance, manifold, split, a0, x, options)


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
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    w = capon_closed_form(np.diag([1.0, 1.0, 0.0]), a)
    assert w.ridged
    assert w.constraint_residual <= 1e-9
    # in a batch only the singular covariance takes the ridge
    batch = capon_closed_form([np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 0.0])], a)
    assert [out.ridged for out in batch] == [False, True]
    npt.assert_array_equal(batch[1].weights, w.weights)


def test_capon_rejects_dead_covariance():
    with pytest.raises(NumericalError):
        capon_closed_form(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_capon_rejects_non_finite_input(covariance, manifold, split, a0, snapshots, bad):
    # never factored: a Cholesky factor reads one triangle only, and an
    # infinite diagonal factors without complaint
    with pytest.raises(NumericalError):
        capon_closed_form(np.diag([1.0, 1.0, 1.0, bad]), np.ones(4))
    with pytest.raises(NumericalError):
        capon_closed_form(covariance, np.where(np.arange(8) == 3, bad, a0))
    for row, col in ((3, 3), (1, 6)):
        broken = covariance.copy()
        broken[row, col] = bad
        with pytest.raises(NumericalError):
            capon_closed_form(broken, a0)
        # in a batch of any kind the bad trial fails alone
        for kind in BeamformerKind:
            batch = solve_trials([BeamformerSpec(kind, GAMMAS.get(kind))] * 3, [covariance, broken, covariance],
                                 manifold, split, a0, [snapshots.data] * 3, BENCHMARK_OPTIONS)
            assert [out.status for out in batch] == [SolverStatus.CONVERGED, SolverStatus.NUMERICAL_FAILURE,
                                                     SolverStatus.CONVERGED], kind
            assert np.isnan(batch[1].weights).all()


@pytest.mark.parametrize("kind", list(BeamformerKind), ids=lambda k: k.value)
def test_solve_trials_rejects_a_non_finite_steering_vector(covariance, manifold, split, a0, snapshots, kind):
    # a is shared by the batch, so no trial can be solved; this holds too
    # when no covariance of the batch is finite
    methods = [BeamformerSpec(kind, GAMMAS.get(kind))] * 2
    for bad in (np.nan, np.inf):
        steering = np.where(np.arange(8) == 3, bad, a0)
        for covariances in ([covariance] * 2, [np.full((8, 8), np.nan)] * 2):
            with pytest.raises(ValueError, match="steering vector"):
                solve_trials(methods, covariances, manifold, split, steering, [snapshots.data] * 2,
                             BENCHMARK_OPTIONS)


def test_capon_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        capon_closed_form(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        capon_closed_form(np.zeros((2, 3)), np.ones(2))


def test_gamma_zero_reduces_every_kind_to_closed_form(covariance, manifold, split, a0, snapshots):
    w_cf = capon_closed_form(covariance, a0).weights
    scale = np.linalg.norm(w_cf)
    for kind in GAMMAS:
        out = _solve(kind, 0.0, covariance, manifold, split, a0, snapshots.data, SolverOptions())
        assert np.linalg.norm(out.weights - w_cf) <= 1e-6 * scale, kind
        assert out.constraint_residual <= 1e-9, kind


def test_gamma_zero_mspr_relaxed_ends_at_the_start_of_sparse(covariance, manifold, split, a0):
    # at gamma 0 both are the quadratic program, and both solvers end a
    # problem with no active penalty at its start without an iteration
    sparse = _solve(BeamformerKind.SPARSE, 0.0, covariance, manifold, split, a0)
    relaxed = _solve(BeamformerKind.MSPR_RELAXED, 0.0, covariance, manifold, split, a0)
    assert sparse.iterations == relaxed.iterations == 0
    assert relaxed.status is SolverStatus.CONVERGED
    npt.assert_array_equal(relaxed.weights, sparse.weights)


def test_sparse_capon_penalty_monotone_in_gamma(covariance, manifold, split, a0):
    prev = math.inf
    for gamma in (0.01, 0.1, 1.0):
        w = _solve(BeamformerKind.SPARSE, gamma, covariance, manifold, split, a0).weights
        l1 = float(np.abs(manifold.matrix.conj().T @ w).sum())
        assert l1 <= prev + 1e-6
        prev = l1


def test_sparse_capon_cuts_sidelobes_below_capon(covariance, manifold, split, a0):
    w_cf = capon_closed_form(covariance, a0).weights
    gamma = GAMMAS[BeamformerKind.SPARSE]
    w_sp = _solve(BeamformerKind.SPARSE, gamma, covariance, manifold, split, a0).weights
    assert sidelobe_mean_db(w_sp, manifold, split) < sidelobe_mean_db(w_cf, manifold, split)


def test_weighted_sparse_with_identity_weighting_matches_sparse(covariance, manifold, split, a0):
    # one e1 snapshot gives every grid row the same mean modulus, so Q = I
    x = np.zeros((8, 1), dtype=complex)
    x[0, 0] = 1.0
    npt.assert_allclose(snm_weighting(manifold, x), np.ones(181), atol=1e-12)
    w_ws = _solve(BeamformerKind.WEIGHTED_SPARSE, 0.05, covariance, manifold, split, a0, x, SolverOptions()).weights
    # weighted_sparse solves by ADMM and sparse by cone_solve, so the
    # unweighted reference is the same L1 problem through admm_solve
    l1 = PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.05)
    w_sp = admm_solve(ProblemSpec(covariance, a0, (l1,))).w
    npt.assert_allclose(w_ws, w_sp, atol=1e-10)


def test_weighted_sparse_deepens_interferer_nulls(covariance, manifold, split, snapshots, a0, scenario):
    # at equal gamma the data-driven weighting re-aims penalty mass at the
    # directions that actually received energy
    gamma = GAMMAS[BeamformerKind.SPARSE]
    w_sp = _solve(BeamformerKind.SPARSE, gamma, covariance, manifold, split, a0).weights
    w_ws = _solve(BeamformerKind.WEIGHTED_SPARSE, gamma, covariance, manifold, split, a0, snapshots.data).weights
    for interferer in scenario.interferers:
        a_j = steering_vector(scenario.geometry, interferer.doa_deg)
        assert abs(w_ws.conj() @ a_j) < abs(w_sp.conj() @ a_j)


def test_mixed_norm_lifts_the_mainlobe_floor(covariance, manifold, split, a0):
    # the max-modulus mainlobe term spreads gain across the window instead of
    # letting the sparse penalty thin it out
    w_sp = _solve(BeamformerKind.SPARSE, GAMMAS[BeamformerKind.SPARSE], covariance, manifold, split, a0).weights
    w_mx = _solve(BeamformerKind.MIXED_NORM, GAMMAS[BeamformerKind.MIXED_NORM], covariance, manifold, split,
                  a0).weights
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
    w_tv = _solve(BeamformerKind.TVM_SPARSE, GAMMAS[BeamformerKind.TVM_SPARSE], covariance, manifold, split, a0,
                  tv_orders=2).weights
    d1 = difference_operator(1, 181)

    def total_variation(w):
        return float(np.linalg.norm(d1 @ (manifold.matrix.conj().T @ w)))

    assert total_variation(w_tv) < total_variation(w_cf)


def test_tvm_capon_matches_the_stacked_forward_backward_problem(covariance, manifold, split, a0):
    # reference: each TV term on the stacked [forward; backward] difference
    # at weight gamma, as the penalty is written; tvm_sparse poses it on the
    # forward block at weight sqrt(2) * gamma
    gamma = GAMMAS[BeamformerKind.TVM_SPARSE]
    terms = []
    for order in (1, 2):
        f = difference_operator(order, 181)
        stacked = np.vstack([f, np.flipud(np.fliplr(f))])
        terms.append(PenaltyTerm(manifold.matrix @ stacked.T, PenaltyKind.GROUP_L2, gamma))
    terms.append(PenaltyTerm(split.a_side, PenaltyKind.L1, gamma))
    reference = admm_solve(ProblemSpec(covariance, a0, tuple(terms)), SolverOptions())
    out = _solve(BeamformerKind.TVM_SPARSE, gamma, covariance, manifold, split, a0, options=SolverOptions(),
                 tv_orders=2)
    assert np.linalg.norm(out.weights - reference.w) <= 1e-5 * np.linalg.norm(reference.w)


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

    penalties = {
        BeamformerKind.SPARSE: sparse_pen,
        BeamformerKind.WEIGHTED_SPARSE: weighted_pen,
        BeamformerKind.MIXED_NORM: mixed_pen,
        BeamformerKind.TVM_SPARSE: tvm_pen,
    }
    for kind, penalty in penalties.items():
        out = _solve(kind, GAMMAS[kind], covariance, manifold, split, a0, snapshots.data)
        assert penalty(out.weights) <= penalty(w_cf) * (1.0 + 1e-6), kind


def test_mspr_capon_converges_to_a_stationary_point(scenario, split, a0):
    # on packaged seeds 7-56 at 0 and 3 deg, the solve ends at a gradient of
    # at most 9.5e-9 of its value at the closed form (seed 52, 0 deg), which
    # the ridge of the z-space quadratic leaves
    gamma = GAMMAS[BeamformerKind.MSPR_RELAXED]
    _, basis = eliminate_constraint(a0)
    for mismatch in (0.0, 3.0):
        truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch)
        for seed in range(7, 57):
            covariance = snapshot_moments(truth.with_seed(seed))[0]
            spec = ProblemSpec(covariance, a0, (
                PenaltyTerm(split.a_main, PenaltyKind.QUARTIC_UNIT, gamma),
                PenaltyTerm(split.a_side, PenaltyKind.SQUARED_L2, gamma),
            ))
            closed = np.linalg.norm(smooth_gradient(spec, basis, capon_closed_form(covariance, a0).weights))
            out = mspr_capon(covariance, split, a0, gamma)
            assert out.status is SolverStatus.CONVERGED, (seed, mismatch)
            assert out.iterations <= 15, (seed, mismatch)
            assert out.constraint_residual <= 1e-9, (seed, mismatch)
            assert np.linalg.norm(smooth_gradient(spec, basis, out.weights)) <= 2e-8 * closed, (seed, mismatch)


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


def test_tvm_capon_validates_orders():
    for orders in (0, 4):
        with pytest.raises(ValueError):
            BeamformerSpec(BeamformerKind.TVM_SPARSE, 0.1, tv_orders=orders)


def test_beamformer_spec_auto_gamma():
    spec = BeamformerSpec(BeamformerKind.SPARSE)
    assert spec.gamma_is_auto
    assert not BeamformerSpec(BeamformerKind.CAPON).gamma_is_auto
    resolved = spec.with_gamma(0.2)
    assert resolved.gamma == 0.2
    assert not resolved.gamma_is_auto


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
    direct = solve_method(BeamformerSpec(BeamformerKind.MIXED_NORM, gamma=0.1), covariance, manifold,
                          split_manifold(manifold, 0.0, 25), a0, None, BENCHMARK_OPTIONS)
    npt.assert_array_equal(wide.weights, direct.weights)
    default = solve_method(BeamformerSpec(BeamformerKind.MIXED_NORM, gamma=0.1),
                           covariance, manifold, split, a0, None, BENCHMARK_OPTIONS)
    assert not np.allclose(wide.weights, default.weights)


def test_solve_trials_matches_one_trial_solves(scenario, manifold, split, a0):
    draws = [synthesize_snapshots(scenario.with_seed(scenario.seed + t)).data for t in range(3)]
    covariances = [sample_covariance(x) for x in draws]
    for kind in BeamformerKind:
        method = BeamformerSpec(kind, GAMMAS.get(kind))
        batch = solve_trials([method] * 3, covariances, manifold, split, a0, draws, BENCHMARK_OPTIONS)
        for r, x, got in zip(covariances, draws, batch):
            alone = solve_method(method, r, manifold, split, a0, x, BENCHMARK_OPTIONS)
            assert got.status is alone.status, kind
            assert got.iterations == alone.iterations, kind
            assert np.linalg.norm(got.weights - alone.weights) <= 1e-8 * np.linalg.norm(alone.weights), kind
        # only weighted_sparse reads the snapshots
        if kind is not BeamformerKind.WEIGHTED_SPARSE:
            for got, ref in zip(batch, solve_trials([method] * 3, covariances, manifold, split, a0, None,
                                                    BENCHMARK_OPTIONS), strict=True):
                assert (got.status, got.iterations, got.subgrad_residual) == (ref.status, ref.iterations,
                                                                             ref.subgrad_residual), kind
                npt.assert_array_equal(got.weights, ref.weights, err_msg=kind.value)


def test_weighted_sparse_checks_every_snapshot_before_solving(monkeypatch, scenario, manifold, split, a0):
    # snm_weighting rejects a draw of the wrong sensor count, and the whole
    # batch fails before admm_solve sees any of it
    draws = [synthesize_snapshots(scenario.with_seed(scenario.seed + t)).data for t in range(3)]
    covariances = [sample_covariance(x) for x in draws]

    def never(*args):
        raise AssertionError("admm_solve ran")

    monkeypatch.setattr(beamformers, "admm_solve", never)
    with pytest.raises(ValueError, match="does not match the manifold"):
        solve_trials([BeamformerSpec(BeamformerKind.WEIGHTED_SPARSE, 0.1)] * 3, covariances, manifold, split, a0,
                     draws[:2] + [draws[2][:-1]], BENCHMARK_OPTIONS)


def test_solve_trials_is_invariant_to_the_phase_of_a(scenario, manifold, split, a0):
    # w^H a = 1 and every penalty depend on w only through |A^H w| and w^H R w,
    # so a -> e^{j phi} a must give w -> e^{j phi} w, in the same iterations,
    # up to rounding. mspr_relaxed's quadratically shrinking step can land on
    # either side of its 1e-7 ||w|| stop, so its iterations may differ by up
    # to 2. The cone solves stop at a 1e-9 relative gap, where the objective
    # is flat along directions that rounding can move their weights in
    # (tvm_sparse by up to 1.9e-6 relative on seeds 12-56 with two BLAS
    # threads), so past the first five draws their objective is the yardstick
    phase = np.exp(0.7j)
    draws = [synthesize_snapshots(scenario.with_seed(seed)).data for seed in range(7, 57)]
    covariances = [sample_covariance(x) for x in draws]
    for kind, gamma in GAMMAS.items():
        methods = [BeamformerSpec(kind, gamma)] * len(draws)
        base = solve_trials(methods, covariances, manifold, split, a0, draws, BENCHMARK_OPTIONS)
        turned = solve_trials(methods, covariances, manifold, split, phase * a0, draws, BENCHMARK_OPTIONS)
        smooth = kind is BeamformerKind.MSPR_RELAXED
        cone = kind not in (BeamformerKind.WEIGHTED_SPARSE, BeamformerKind.MSPR_RELAXED)
        for draw, (r, got, ref) in enumerate(zip(covariances, turned, base)):
            assert got.status is ref.status, kind
            assert abs(got.iterations - ref.iterations) <= (2 if smooth else 0), kind
            if cone and draw >= 5:
                spec = ProblemSpec(r, a0, tuple(replace(t, weight=t.weight * gamma)
                                                for t in _penalty_terms(methods[0], manifold, split)))
                expected = objective_value(spec, ref.weights)
                assert abs(objective_value(spec, got.weights) - expected) <= 1e-10 * expected, kind
            else:
                bound = 1e-6 if smooth else 1e-10
                assert np.linalg.norm(got.weights - phase * ref.weights) <= bound * np.linalg.norm(ref.weights), kind


def test_relative_stops_are_invariant_to_joint_scaling(scenario, manifold, split, a0):
    # R -> cR with gamma -> c gamma scales the objective by c and keeps its
    # minimizer; every iterate of cone_solve and smooth_solve maps to a
    # scaled copy of itself or to itself (a power-of-two factor rounds the
    # same), and their stop tests are relative, so statuses, iterations and
    # weights must not move
    draws = [synthesize_snapshots(scenario.with_seed(seed)).data for seed in range(7, 12)]
    covariances = [sample_covariance(x) for x in draws]
    for kind in (BeamformerKind.SPARSE, BeamformerKind.MIXED_NORM, BeamformerKind.TVM_SPARSE,
                 BeamformerKind.MSPR_RELAXED):
        gamma = GAMMAS[kind]
        base = solve_trials([BeamformerSpec(kind, gamma)] * 5, covariances, manifold, split, a0, None,
                            BENCHMARK_OPTIONS)
        for c in (4.0, 1.0 / 64.0):
            scaled = solve_trials([BeamformerSpec(kind, c * gamma)] * 5, [c * r for r in covariances], manifold,
                                  split, a0, None, BENCHMARK_OPTIONS)
            for got, ref in zip(scaled, base):
                assert got.status is ref.status is SolverStatus.CONVERGED, (kind, c)
                assert got.iterations == ref.iterations, (kind, c)
                assert np.linalg.norm(got.weights - ref.weights) <= 1e-9 * np.linalg.norm(ref.weights), (kind, c)


@pytest.mark.parametrize("mismatch", (0.0, 3.0))
def test_benchmark_options_move_sinr_by_under_1e3_db(scenario, manifold, split, a0, mismatch):
    # the claim beside BENCHMARK_OPTIONS: the methods that stop on fixed
    # relative tests read no tolerance and reach neither iteration cap, so
    # they give the same solves under both option sets (weighted_sparse,
    # whose default-tolerance solves stop at their cap, is left out)
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch)
    draws = [truth.with_seed(seed) for seed in range(7, 15)]
    covariances = [sample_covariance(synthesize_snapshots(draw).data) for draw in draws]
    for kind in (BeamformerKind.SPARSE, BeamformerKind.MIXED_NORM, BeamformerKind.TVM_SPARSE,
                 BeamformerKind.MSPR_RELAXED):
        methods = [BeamformerSpec(kind, GAMMAS[kind])] * len(draws)
        tight = solve_trials(methods, covariances, manifold, split, a0, None, SolverOptions())
        loose = solve_trials(methods, covariances, manifold, split, a0, None, BENCHMARK_OPTIONS)
        for ref, got in zip(tight, loose):
            assert ref.status is got.status is SolverStatus.CONVERGED, kind
            assert got.iterations == ref.iterations, kind
            npt.assert_array_equal(got.weights, ref.weights, err_msg=kind.value)


def test_solve_trials_passes_its_solvers_bounded_slices_in_order(monkeypatch, scenario, manifold, split, a0):
    # a cap of 50 or more keeps a benchmark chunk (25 draws at each of two
    # mismatch values) and a 41-point gamma sweep one batch; a smaller cap
    # runs the same slicing on fewer draws
    assert beamformers._BATCH_CAP >= 50
    cap = 4
    monkeypatch.setattr(beamformers, "_BATCH_CAP", cap)
    sizes = []
    for name in ("capon_closed_form", "cone_solve", "admm_solve", "smooth_solve"):
        def counted(batch, *args, solve=getattr(beamformers, name)):
            sizes.append(len(batch))
            return solve(batch, *args)

        monkeypatch.setattr(beamformers, name, counted)
    moments = [snapshot_moments(scenario.with_seed(seed)) for seed in range(7, 7 + 2 * cap + 3)]
    covariances = [r for r, _ in moments]
    means = [mean[:, np.newaxis] for _, mean in moments]
    for kind in BeamformerKind:
        methods = [BeamformerSpec(kind, GAMMAS.get(kind))] * len(moments)
        sizes.clear()
        batch = solve_trials(methods, covariances, manifold, split, a0, means, BENCHMARK_OPTIONS)
        assert sizes == [cap, cap, 3], kind
        sliced = [out for lo in range(0, len(moments), cap)
                  for out in solve_trials(methods[lo:lo + cap], covariances[lo:lo + cap], manifold, split, a0,
                                          means[lo:lo + cap], BENCHMARK_OPTIONS)]
        for got, ref in zip(batch, sliced, strict=True):
            assert (got.status, got.iterations, got.subgrad_residual) == (ref.status, ref.iterations,
                                                                         ref.subgrad_residual), kind
            npt.assert_array_equal(got.weights, ref.weights, err_msg=kind.value)


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

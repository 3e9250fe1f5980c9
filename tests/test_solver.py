"""Constraint elimination, the ADMM path, and the smooth descent path."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from caponshape.arrays import difference_operator, sample_covariance, snm_weighting, synthesize_snapshots
from caponshape.beamformers import mspr_capon
from caponshape.cli import BENCHMARK_OPTIONS
from caponshape.evaluation import DEFAULT_GAMMA_GRID
from caponshape.prox import project_l1_ball, prox_group_l2, prox_l1
from caponshape.solver import (
    PenaltyKind,
    PenaltyTerm,
    ProblemSpec,
    SolverOptions,
    SolverStatus,
    admm_solve,
    eliminate_constraint,
    objective_value,
    smooth_gradient,
    smooth_solve,
)


def random_psd(rng, m, lift=0.05):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return g @ g.conj().T + lift * np.eye(m)


def random_vec(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def closed_form(r, a):
    x = np.linalg.solve(r, a)
    return x / np.real(a.conj() @ x)


def test_eliminate_constraint_standard_basis_vector():
    w0, basis = eliminate_constraint(np.array([1.0, 0.0, 0.0], dtype=complex))
    npt.assert_allclose(w0, [1.0, 0.0, 0.0])
    assert basis.shape == (3, 2)
    npt.assert_allclose(basis[0], 0.0, atol=1e-14)  # spans {e2, e3}
    npt.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def test_eliminate_constraint_all_ones():
    w0, basis = eliminate_constraint(np.array([1.0, 1.0], dtype=complex))
    npt.assert_allclose(w0, [0.5, 0.5])
    col = basis[:, 0]  # proportional to [1, -1]/sqrt(2)
    assert abs(col[0]) == pytest.approx(1.0 / np.sqrt(2.0))
    npt.assert_allclose(col[0], -col[1], atol=1e-14)


def test_eliminate_constraint_orthogonality():
    rng = np.random.default_rng(2)
    for m in (2, 5, 9):
        a = random_vec(rng, m)
        w0, basis = eliminate_constraint(a)
        assert abs(w0.conj() @ a - 1.0) <= 1e-12
        assert np.abs(a.conj() @ basis).max() <= 1e-12
        npt.assert_allclose(basis.conj().T @ basis, np.eye(m - 1), atol=1e-12)


def test_eliminate_constraint_rejects_zero():
    with pytest.raises(ValueError):
        eliminate_constraint(np.zeros(3, dtype=complex))


def test_penalty_term_validation():
    with pytest.raises(ValueError):
        PenaltyTerm(np.eye(2), PenaltyKind.L1, -1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            PenaltyTerm(np.eye(2), PenaltyKind.L1, bad)
    with pytest.raises(ValueError):
        PenaltyTerm(np.zeros(3), PenaltyKind.L1, 1.0)  # vector, not matrix
    # GROUP_L2 is the Euclidean norm of the whole block
    assert PenaltyTerm(np.eye(3), PenaltyKind.GROUP_L2, 1.0).value(np.array([3.0, 4.0j, 0.0])) == 5.0
    with pytest.raises(ValueError):
        PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0, scale=np.ones(2))  # one weight per column
    with pytest.raises(ValueError):
        PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0, scale=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        PenaltyTerm(np.eye(3), PenaltyKind.SQUARED_L2, 1.0, scale=np.ones(3))
    scaled = PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0, scale=np.array([1.0, 2.0, 3.0]))
    assert scaled.value(np.array([1.0, -1.0, 1.0j])) == 6.0


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        ProblemSpec(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        ProblemSpec(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        ProblemSpec(np.eye(2), np.ones(2), (PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0),))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_spec_rejects_non_finite_input(bad):
    r = np.eye(2, dtype=complex)
    r[0, 1] = bad
    with pytest.raises(ValueError):
        ProblemSpec(r, np.ones(2))
    a = np.ones(2, dtype=complex)
    a[1] = bad
    with pytest.raises(ValueError):
        ProblemSpec(np.eye(2), a)


def test_problem_spec_symmetrizes_quadratic():
    spec = ProblemSpec(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))
    npt.assert_allclose(spec.quadratic, [[1.0, 1.0], [1.0, 1.0]])


def test_is_smooth_nonconvex_flag():
    a = np.ones(2)
    assert not ProblemSpec(np.eye(2), a).is_smooth_nonconvex
    quartic = PenaltyTerm(np.eye(2), PenaltyKind.QUARTIC_UNIT, 1.0)
    assert ProblemSpec(np.eye(2), a, (quartic,)).is_smooth_nonconvex


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(rho=0.0)
    with pytest.raises(ValueError):
        SolverOptions(tol=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(smooth_grad_tol=0.0)
    for bad in (dict(max_iters=-5), dict(max_iters=0), dict(max_iters=2.5), dict(max_iters=True),
                dict(smooth_max_iters=-1), dict(smooth_max_iters=1.5), dict(smooth_max_iters=False),
                dict(rho=np.nan), dict(rho=np.inf), dict(tol=np.inf), dict(tol=np.nan),
                dict(smooth_grad_tol=np.inf), dict(smooth_grad_tol=np.nan)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverOptions(**bad)
    # the boundary values and numpy scalars are accepted
    opts = SolverOptions(max_iters=np.int64(1), smooth_max_iters=0, rho=np.float64(0.5))
    assert (opts.max_iters, opts.smooth_max_iters, opts.rho) == (1, 0, 0.5)


def test_admm_no_penalty_matches_direct_solution():
    rng = np.random.default_rng(3)
    r = random_psd(rng, 6)
    a = random_vec(rng, 6)
    res = admm_solve(ProblemSpec(r, a))
    w = closed_form(r, a)
    assert res.status is SolverStatus.CONVERGED
    assert np.linalg.norm(res.w - w) <= 1e-9 * np.linalg.norm(w)
    assert res.constraint_residual <= 1e-9


def test_admm_identity_covariance_gives_min_norm_point():
    a = np.array([1.0, 1.0j, -1.0])
    res = admm_solve(ProblemSpec(np.eye(3), a))
    npt.assert_allclose(res.w, a / 3.0, atol=1e-10)


def test_admm_zero_weight_terms_are_inert():
    rng = np.random.default_rng(4)
    r = random_psd(rng, 5)
    a = random_vec(rng, 5)
    op = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    res = admm_solve(ProblemSpec(r, a, (PenaltyTerm(op, PenaltyKind.L1, 0.0),)))
    w = closed_form(r, a)
    assert np.linalg.norm(res.w - w) <= 1e-9 * np.linalg.norm(w)


def test_admm_l1_certificate_and_feasibility():
    rng = np.random.default_rng(5)
    r = random_psd(rng, 6)
    a = random_vec(rng, 6)
    op = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
    spec = ProblemSpec(r, a, (PenaltyTerm(op, PenaltyKind.L1, 0.5),))
    opts = SolverOptions()
    res = admm_solve(spec, opts)
    assert res.status is SolverStatus.CONVERGED
    assert res.constraint_residual <= 1e-9
    assert res.primal_residual < opts.tol
    assert res.dual_residual < opts.tol


def test_admm_penalized_optimum_dominates_closed_form_point():
    # the closed-form point is feasible, so the optimizer may never do worse
    rng = np.random.default_rng(6)
    for kinds in (
        (PenaltyKind.L1,),
        (PenaltyKind.LINF, PenaltyKind.L1),
        (PenaltyKind.GROUP_L2, PenaltyKind.SQUARED_L2),
    ):
        r = random_psd(rng, 5)
        a = random_vec(rng, 5)
        terms = tuple(
            PenaltyTerm(rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)), kind, 0.4)
            for kind in kinds
        )
        spec = ProblemSpec(r, a, terms)
        res = admm_solve(spec)
        w_cf = closed_form(r, a)
        assert objective_value(spec, res.w) <= objective_value(spec, w_cf) * (1.0 + 1e-9) + 1e-9


def test_admm_optimal_objective_monotone_in_gamma():
    # pointwise-larger objectives have larger minima over the same feasible set
    rng = np.random.default_rng(7)
    m = 6
    r = random_psd(rng, m)
    a = random_vec(rng, m)
    _, basis = eliminate_constraint(a)
    op = basis @ (rng.standard_normal((m - 1, 8)) + 1j * rng.standard_normal((m - 1, 8)))
    prev = -np.inf
    for gamma in (0.01, 0.1, 1.0, 10.0):
        spec = ProblemSpec(r, a, (PenaltyTerm(op, PenaltyKind.L1, gamma),))
        res = admm_solve(spec)
        assert res.status is SolverStatus.CONVERGED
        objective = objective_value(spec, res.w)
        assert objective >= prev - 1e-8
        prev = objective


def test_admm_rejects_quartic_terms():
    a = np.ones(3)
    quartic = PenaltyTerm(np.eye(3), PenaltyKind.QUARTIC_UNIT, 1.0)
    with pytest.raises(ValueError):
        admm_solve(ProblemSpec(np.eye(3), a, (quartic,)))


def test_admm_unfactorizable_system_reports_numerical_failure():
    # a zero quadratic gets a zero ridge (1e-10 * trace/M)
    spec = ProblemSpec(np.zeros((2, 2)), np.array([1.0 + 0.0j, 0.0]))
    res = admm_solve(spec)
    assert res.status is SolverStatus.NUMERICAL_FAILURE


def test_admm_iteration_cap_reports_max_iters():
    rng = np.random.default_rng(8)
    r = random_psd(rng, 6)
    a = random_vec(rng, 6)
    op = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
    spec = ProblemSpec(r, a, (PenaltyTerm(op, PenaltyKind.L1, 0.5),))
    res = admm_solve(spec, SolverOptions(max_iters=1))
    assert res.status is SolverStatus.MAX_ITERS
    assert res.iterations == 1
    assert np.all(np.isfinite(res.w))
    # a capped result reports both residuals of its last iteration
    assert 0.0 < res.primal_residual < np.inf
    assert 0.0 < res.dual_residual < np.inf


def test_smooth_solve_quadratic_only_matches_direct_solution():
    rng = np.random.default_rng(10)
    r = random_psd(rng, 6)
    a = random_vec(rng, 6)
    res = smooth_solve(ProblemSpec(r, a))
    w = closed_form(r, a)
    assert res.status is SolverStatus.CONVERGED
    assert np.linalg.norm(res.w - w) <= 1e-8 * np.linalg.norm(w)


def test_smooth_solve_squared_l2_fold_agrees_with_admm():
    rng = np.random.default_rng(11)
    r = random_psd(rng, 5)
    a = random_vec(rng, 5)
    op = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    spec = ProblemSpec(r, a, (PenaltyTerm(op, PenaltyKind.SQUARED_L2, 0.3),))
    w_smooth = smooth_solve(spec).w
    w_admm = admm_solve(spec).w
    assert np.linalg.norm(w_smooth - w_admm) <= 1e-7 * np.linalg.norm(w_admm)


def _quartic_spec(rng, m=6):
    r = random_psd(rng, m)
    a = random_vec(rng, m)
    am = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    asd = rng.standard_normal((m, 5)) + 1j * rng.standard_normal((m, 5))
    return ProblemSpec(r, a, (
        PenaltyTerm(am, PenaltyKind.QUARTIC_UNIT, 0.7),
        PenaltyTerm(asd, PenaltyKind.SQUARED_L2, 0.4),
    ))


def test_smooth_solve_objective_nonincreasing():
    # the iterate after k steps is what a solve capped at k steps returns
    rng = np.random.default_rng(12)
    spec = _quartic_spec(rng)
    objs = [objective_value(spec, smooth_solve(spec, SolverOptions(smooth_max_iters=k)).w) for k in range(8)]
    assert objs[-1] < objs[0]
    assert np.all(np.diff(objs) <= 1e-12 * max(1.0, abs(objs[0])))


def test_smooth_solve_meets_gradient_tolerance():
    rng = np.random.default_rng(13)
    spec = _quartic_spec(rng)
    # absolute tolerance; ~1e-7 is the rounding floor at this problem scale
    opts = SolverOptions(smooth_grad_tol=1e-6)
    res = smooth_solve(spec, opts)
    assert res.status is SolverStatus.CONVERGED
    assert res.dual_residual < opts.smooth_grad_tol
    # recompute the gradient at the returned point
    _, basis = eliminate_constraint(spec.constraint_vector)
    g = smooth_gradient(spec, basis, res.w)
    assert np.linalg.norm(g) < opts.smooth_grad_tol


def test_smooth_solve_iteration_cap_reports_max_iters():
    rng = np.random.default_rng(8)
    res = smooth_solve(_quartic_spec(rng), SolverOptions(smooth_max_iters=1))
    assert res.status is SolverStatus.MAX_ITERS
    assert res.iterations == 1
    assert np.all(np.isfinite(res.w))


# packaged draws (seed, mismatch in degrees) on which mspr_relaxed used to run
# to smooth_max_iters: its iterate stops moving in floating point first
STALLED_MSPR_DRAWS = [(seed, 3.0) for seed in (7, 9, 17, 22, 28, 30, 31)] + [(seed, 0.0) for seed in (13, 22, 23, 26)]


@pytest.mark.parametrize("seed, mismatch", STALLED_MSPR_DRAWS)
def test_smooth_solve_stops_at_its_fixed_point(scenario, split, a0, seed, mismatch):
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch).with_seed(seed)
    r = sample_covariance(synthesize_snapshots(truth).data)
    gamma = 0.025118864315095794
    got = mspr_capon(r, split, a0, gamma, BENCHMARK_OPTIONS)
    assert got.status is SolverStatus.CONVERGED
    assert got.iterations <= 60
    # a gradient tolerance no solve reaches: only the fixed-point rule ends it
    tight = mspr_capon(r, split, a0, gamma, replace(BENCHMARK_OPTIONS, smooth_grad_tol=1e-15, smooth_max_iters=2000))
    assert tight.status is SolverStatus.CONVERGED
    npt.assert_array_equal(got.weights, tight.weights)


def test_smooth_batch_reproduces_single_solves(scenario, split, a0):
    # every product and factorization is taken problem by problem, so a batch
    # (here mixing gamma 0 with positive gammas, and one problem whose
    # quadratic cannot be factored) reproduces each single solve bit for bit
    gammas = (0.0, 0.025118864315095794, 0.1, 1.0)
    covariances = _packaged_covariances(scenario, len(gammas))
    specs = [ProblemSpec(r, a0, (PenaltyTerm(split.a_main, PenaltyKind.QUARTIC_UNIT, gamma),
                                 PenaltyTerm(split.a_side, PenaltyKind.SQUARED_L2, gamma)))
             for r, gamma in zip(covariances, gammas)]
    specs.insert(2, ProblemSpec(-1e6 * np.eye(8), a0, specs[1].penalties))
    starts = [closed_form(r, a0) for r in covariances]
    starts.insert(2, a0 / np.vdot(a0, a0))
    batch = smooth_solve(specs, BENCHMARK_OPTIONS, w_init=starts)
    assert [r.status for r in batch].count(SolverStatus.NUMERICAL_FAILURE) == 1
    assert batch[2].status is SolverStatus.NUMERICAL_FAILURE
    for spec, start, got in zip(specs, starts, batch):
        alone = smooth_solve(spec, BENCHMARK_OPTIONS, w_init=start)
        assert got.status is alone.status
        assert got.iterations == alone.iterations
        npt.assert_array_equal(got.w, alone.w)
        assert got.dual_residual == alone.dual_residual


def test_smooth_solve_with_no_free_coordinate():
    # with one sensor w = a/|a|^2 is the only feasible point
    spec = ProblemSpec(2.0 * np.eye(1), np.array([2.0j]), (PenaltyTerm(np.eye(1), PenaltyKind.QUARTIC_UNIT, 0.5),))
    for got in smooth_solve([spec, spec]) + [smooth_solve(spec)]:
        assert got.status is SolverStatus.CONVERGED
        assert got.iterations == 0
        npt.assert_array_equal(got.w, [0.5j])


def test_smooth_batch_validation(a0):
    quartic = (PenaltyTerm(np.eye(8), PenaltyKind.QUARTIC_UNIT, 0.5),)
    with pytest.raises(ValueError):
        smooth_solve([])
    with pytest.raises(ValueError):
        smooth_solve([ProblemSpec(np.eye(8), a0, quartic), ProblemSpec(np.eye(8), 1j * a0, quartic)])
    with pytest.raises(ValueError):
        smooth_solve([ProblemSpec(np.eye(8), a0, quartic), ProblemSpec(np.eye(8), a0)])
    with pytest.raises(ValueError):
        smooth_solve([ProblemSpec(np.eye(8), a0, quartic)] * 2, w_init=[a0 / 8.0])


def test_smooth_solve_rejects_nonsmooth_kinds():
    a = np.ones(3)
    l1 = PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0)
    with pytest.raises(ValueError):
        smooth_solve(ProblemSpec(np.eye(3), a, (l1,)))


def test_smooth_solve_rejects_infeasible_start():
    rng = np.random.default_rng(14)
    spec = _quartic_spec(rng)
    with pytest.raises(ValueError):
        smooth_solve(spec, w_init=np.zeros(6, dtype=complex))


def test_smooth_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    spec = _quartic_spec(rng)
    w0, basis = eliminate_constraint(spec.constraint_vector)
    z = random_vec(rng, 5)

    def f(zv):
        return objective_value(spec, w0 + basis @ zv)

    grad = smooth_gradient(spec, basis, w0 + basis @ z)
    h = 1e-5
    fd = np.zeros(5, dtype=complex)
    for k in range(5):
        e = np.zeros(5, dtype=complex)
        e[k] = 1.0
        fd[k] = (f(z + h * e) - f(z - h * e)) / (2 * h) \
            + 1j * (f(z + 1j * h * e) - f(z - 1j * h * e)) / (2 * h)
    assert np.linalg.norm(fd - grad) <= 1e-7 * np.linalg.norm(grad)


def _packaged_covariances(scenario, count):
    return [sample_covariance(synthesize_snapshots(scenario.with_seed(scenario.seed + t)).data)
            for t in range(count)]


def _unit_terms(kind, manifold, split):
    """A shaped method's penalty terms at gamma = 1."""
    if kind in ("sparse", "weighted_sparse"):
        return (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 1.0),)
    if kind == "mixed_norm":
        return (PenaltyTerm(split.a_main, PenaltyKind.LINF, 1.0), PenaltyTerm(split.a_side, PenaltyKind.L1, 1.0))
    n = manifold.angles_deg.size
    return tuple(PenaltyTerm(manifold.matrix @ difference_operator(i, n).T, PenaltyKind.GROUP_L2, np.sqrt(2.0))
                 for i in (1, 2)) + (PenaltyTerm(split.a_side, PenaltyKind.L1, 1.0),)


@pytest.mark.parametrize("kinds", ["l1", "linf+l1", "group_l2+l1", "sparse-grid", "weighted_sparse-grid",
                                   "mixed_norm-grid", "tvm_sparse-grid"])
def test_admm_batch_equals_single_solves(scenario, manifold, split, a0, kinds):
    # the batched loop must run each problem exactly as a batch of one does:
    # five draws sharing the weights, or one draw over the 41-point gamma grid
    grid = kinds.endswith("-grid")
    if grid:
        kind = kinds[:-len("-grid")]
        data = synthesize_snapshots(scenario).data
        r = sample_covariance(data)
        scale = snm_weighting(manifold, data) if kind == "weighted_sparse" else None
        terms = _unit_terms(kind, manifold, split)
        specs = [ProblemSpec(r, a0, tuple(replace(t, weight=t.weight * gamma, scale=scale) for t in terms))
                 for gamma in DEFAULT_GAMMA_GRID]
    else:
        first_difference = difference_operator(1, manifold.angles_deg.size)
        terms = {
            "l1": (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.3),),
            "linf+l1": (PenaltyTerm(split.a_main, PenaltyKind.LINF, 0.2),
                        PenaltyTerm(split.a_side, PenaltyKind.L1, 0.2)),
            "group_l2+l1": (PenaltyTerm(manifold.matrix @ first_difference.T, PenaltyKind.GROUP_L2, 0.3),
                            PenaltyTerm(split.a_side, PenaltyKind.L1, 0.2)),
        }[kinds]
        specs = [ProblemSpec(r, a0, terms) for r in _packaged_covariances(scenario, 5)]
    batch = admm_solve(specs, BENCHMARK_OPTIONS)
    for spec, got in zip(specs, batch):
        alone = admm_solve(spec, BENCHMARK_OPTIONS)
        assert got.status is alone.status
        # on the grid, one mixed_norm point stops at the iteration cap, in the batch as alone
        assert got.status in ((SolverStatus.CONVERGED, SolverStatus.MAX_ITERS) if grid else (SolverStatus.CONVERGED,))
        assert got.iterations == alone.iterations
        assert np.linalg.norm(got.w - alone.w) <= 1e-10 * np.linalg.norm(alone.w)


def test_admm_batch_with_per_problem_column_scales(scenario, manifold, a0):
    # the weighted-sparse shape: one shared operator, one column scale per problem
    rng = np.random.default_rng(16)
    specs = [
        ProblemSpec(r, a0, (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 1.0,
                                        scale=rng.uniform(0.01, 1.0, manifold.angles_deg.size)),))
        for r in _packaged_covariances(scenario, 4)
    ]
    batch = admm_solve(specs, BENCHMARK_OPTIONS)
    for spec, got in zip(specs, batch):
        alone = admm_solve(spec, BENCHMARK_OPTIONS)
        assert got.status is alone.status
        assert got.iterations == alone.iterations
        assert np.linalg.norm(got.w - alone.w) <= 1e-10 * np.linalg.norm(alone.w)


def test_admm_batch_confines_a_failure_to_its_problem(monkeypatch, scenario, manifold, a0):
    good = _packaged_covariances(scenario, 2)
    opts = SolverOptions(max_iters=2000, tol=1e-6)
    # a singular quadratic with no active penalty cannot be factored (its
    # ridge, 1e-10 * trace/M, is zero)
    unpenalized = (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.0),)
    specs = [ProblemSpec(r, a0, unpenalized) for r in (good[0], np.zeros((8, 8)), good[1])]
    # an indefinite quadratic makes the penalized z-system unfactorable (its
    # ridge is negative)
    penalized = (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.3),)
    specs += [ProblemSpec(r, a0, penalized) for r in (good[0], -1e6 * np.eye(8), good[1])]
    for group in (specs[:3], specs[3:]):
        results = admm_solve(group, opts)
        assert results[1].status is SolverStatus.NUMERICAL_FAILURE
        for spec, got in zip(group[::2], results[::2]):
            alone = admm_solve(spec, opts)
            assert got.status is alone.status is SolverStatus.CONVERGED
            assert got.iterations == alone.iterations
            npt.assert_allclose(got.w, alone.w, rtol=1e-10, atol=0.0)

    # a non-finite residual stops its own problem only
    import caponshape.solver as solver

    prox_l1 = solver.prox_l1

    def poisoned(v, t):
        out = prox_l1(v, t)
        if out.shape[0] == 3:
            out[1] = np.nan
        return out

    monkeypatch.setattr(solver, "prox_l1", poisoned)
    results = admm_solve(specs[3:4] + specs[5:6] + specs[3:4], opts)
    assert [r.status for r in results] == [SolverStatus.CONVERGED, SolverStatus.NUMERICAL_FAILURE,
                                           SolverStatus.CONVERGED]
    assert results[1].iterations == 1
    assert results[0].iterations == results[2].iterations > 1


@pytest.mark.parametrize("kind", ["sparse", "mixed_norm", "tvm_sparse"])
def test_admm_batch_mixes_zero_and_positive_gammas(scenario, manifold, split, a0, kind):
    # a gamma-0 problem ends inside the batch at its unpenalized optimum, as
    # it does alone, and leaves the penalized problems' iterations unchanged
    gammas = (0.0, 0.1, 0.0, 1.0)
    terms = _unit_terms(kind, manifold, split)
    specs = [ProblemSpec(r, a0, tuple(replace(t, weight=t.weight * gamma) for t in terms))
             for r, gamma in zip(_packaged_covariances(scenario, 4), gammas)]
    batch = admm_solve(specs, BENCHMARK_OPTIONS)
    for spec, gamma, got in zip(specs, gammas, batch):
        alone = admm_solve(spec, BENCHMARK_OPTIONS)
        assert got.status is alone.status is SolverStatus.CONVERGED
        assert got.iterations == alone.iterations
        assert (got.iterations == 0) == (gamma == 0.0)
        assert np.linalg.norm(got.w - alone.w) <= 1e-10 * np.linalg.norm(alone.w)
    # the closed form, up to the effect of the z-system's 1e-10 trace(R)/M ridge
    npt.assert_allclose(batch[0].w, closed_form(specs[0].quadratic, a0), rtol=1e-5)


def test_admm_batch_validation(a0):
    with pytest.raises(ValueError):
        admm_solve([])
    with pytest.raises(ValueError):
        admm_solve([ProblemSpec(np.eye(8), a0), ProblemSpec(np.eye(8), 1j * a0)])


def textbook_admm(spec, opts):
    """Scaled ADMM (Boyd et al. 2011, section 3.1.1) for one problem, on the
    splitting admm_solve documents: three products per iteration and the dual
    residual taken on every iteration."""
    w0, basis = eliminate_constraint(spec.constraint_vector)
    r = spec.quadratic
    quad = 2.0 * (basis.conj().T @ r @ basis) + 1e-10 * np.real(np.trace(r)) / r.shape[0] * np.eye(basis.shape[1])
    lin = 2.0 * (basis.conj().T @ (r @ w0))
    terms = [t for t in spec.penalties if t.weight > 0]
    scales = [np.ones(t.operator.shape[1]) if t.scale is None else t.scale for t in terms]
    blocks = [s[:, np.newaxis] * (t.operator.conj().T @ basis) for t, s in zip(terms, scales)]
    k = np.vstack(blocks)
    c = np.concatenate([s * (t.operator.conj().T @ w0) for t, s in zip(terms, scales)])
    rhos = [opts.rho * t.weight * np.linalg.norm(b, 2) for t, b in zip(terms, blocks)]
    rho = np.concatenate([np.full(b.shape[0], x) for b, x in zip(blocks, rhos)])
    edges = np.cumsum([0] + [b.shape[0] for b in blocks])
    proxes = {PenaltyKind.L1: prox_l1, PenaltyKind.LINF: lambda x, t: x - project_l1_ball(x, t),
              PenaltyKind.GROUP_L2: lambda x, t: prox_group_l2(x, [np.arange(x.size)], t)}
    lhs = quad + k.conj().T @ (rho[:, np.newaxis] * k)
    z = np.linalg.solve(quad, -lin)
    v, u = k @ z + c, np.zeros(k.shape[0], dtype=complex)
    for it in range(1, opts.max_iters + 1):
        z = np.linalg.solve(lhs, k.conj().T @ (rho * (v - u - c)) - lin)
        kzc = k @ z + c
        v_old, arg = v, kzc + u
        v = np.concatenate([proxes[t.kind](arg[lo:hi], t.weight / x)
                            for t, x, lo, hi in zip(terms, rhos, edges[:-1], edges[1:])])
        u = u + kzc - v
        primal, dual = np.linalg.norm(kzc - v), np.linalg.norm(k.conj().T @ (rho * (v - v_old)))
        if primal < opts.tol and dual < opts.tol:
            return w0 + basis @ z, it, SolverStatus.CONVERGED
    return w0 + basis @ z, opts.max_iters, SolverStatus.MAX_ITERS


# the gammas the packaged sweep selects (acceptance criterion 10)
CRITERION_10_GAMMAS = {"sparse": 0.3162277660168379, "weighted_sparse": 10.0,
                       "mixed_norm": 0.19952623149688797, "tvm_sparse": 0.19952623149688797}


@pytest.mark.parametrize("mismatch", [0.0, 3.0])
@pytest.mark.parametrize("kind", list(CRITERION_10_GAMMAS))
def test_admm_matches_the_textbook_iteration(scenario, manifold, split, a0, kind, mismatch):
    # the batched loop takes the dual residual only on iterations where some
    # problem may stop, folds back(c) into the linear term and clips the LINF
    # prox; none of that may change a single problem's iterates
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch)
    draws = [synthesize_snapshots(truth.with_seed(scenario.seed + t)).data for t in range(5)]
    gamma = CRITERION_10_GAMMAS[kind]
    specs = [ProblemSpec(sample_covariance(x), a0, tuple(
        replace(t, weight=t.weight * gamma, scale=snm_weighting(manifold, x) if kind == "weighted_sparse" else None)
        for t in _unit_terms(kind, manifold, split))) for x in draws]
    for spec, got in zip(specs, admm_solve(specs, BENCHMARK_OPTIONS)):
        w, iterations, status = textbook_admm(spec, BENCHMARK_OPTIONS)
        assert got.status is status
        assert got.iterations == iterations
        assert np.linalg.norm(got.w - w) <= 1e-10 * np.linalg.norm(w)

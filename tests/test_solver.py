"""Constraint elimination, the ADMM path, the interior-point path, and the
smooth path by its secular equation."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from caponshape import solver
from caponshape.arrays import difference_operator, sample_covariance, snm_weighting, synthesize_snapshots
from caponshape.beamformers import mspr_capon
from caponshape.cli import BENCHMARK_OPTIONS
from caponshape.evaluation import DEFAULT_GAMMA_GRID, sinr
from caponshape.prox import project_l1_ball, prox_group_l2, prox_l1
from caponshape.solver import (
    _RHO,
    _Cones,
    _eliminated,
    _max_step,
    _real_form,
    _Scaling,
    PenaltyKind,
    PenaltyTerm,
    ProblemSpec,
    SolverOptions,
    SolverStatus,
    admm_solve,
    cholesky_solve,
    cone_solve,
    eliminate_constraint,
    objective_value,
    smooth_gradient,
    smooth_solve,
)


def random_psd(rng, m, lift=0.05, real=False):
    g = rng.standard_normal((m, m)) + (0.0 if real else 1j * rng.standard_normal((m, m)))
    return g @ g.conj().T + lift * np.eye(m)


def random_vec(rng, m, real=False):
    return rng.standard_normal(m) + (0.0 if real else 1j * rng.standard_normal(m))


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
    with pytest.raises(ValueError):
        PenaltyTerm(np.eye(2), "l1", 1.0)  # a kind is a PenaltyKind
    # GROUP_L2 is the Euclidean norm of the whole block
    assert PenaltyTerm(np.eye(3), PenaltyKind.GROUP_L2, 1.0).value(np.array([3.0, 4.0j, 0.0])) == 5.0
    with pytest.raises(ValueError):
        PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0, scale=np.ones(2))  # one weight per column
    with pytest.raises(ValueError):
        PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0, scale=np.array([1.0, 0.0, 1.0]))
    # a column scale belongs to an L1 term only
    for kind in (PenaltyKind.LINF, PenaltyKind.GROUP_L2, PenaltyKind.SQUARED_L2):
        with pytest.raises(ValueError):
            PenaltyTerm(np.eye(3), kind, 1.0, scale=np.ones(3))
    scaled = PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0, scale=np.array([1.0, 2.0, 3.0]))
    assert scaled.value(np.array([1.0, -1.0, 1.0j])) == 6.0
    # a non-finite operator entry is refused where the term is made
    for bad in (np.nan, np.inf):
        op = np.eye(3, dtype=complex)
        op[1, 2] = bad
        with pytest.raises(ValueError):
            PenaltyTerm(op, PenaltyKind.L1, 1.0)
    # an array operator is kept as the same object; a nested list becomes
    # its array and solves exactly as that array does, in every solver
    rng = np.random.default_rng(21)
    r, a = random_psd(rng, 4), random_vec(rng, 4)
    g = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    assert PenaltyTerm(g, PenaltyKind.L1, 0.3).operator is g
    convex = [(PenaltyTerm(x, PenaltyKind.L1, 0.3), PenaltyTerm(y, PenaltyKind.SQUARED_L2, 0.2))
              for x, y in ((g, h), (g.tolist(), h.tolist()))]
    smooth = [(PenaltyTerm(x, PenaltyKind.QUARTIC_UNIT, 0.7), PenaltyTerm(y, PenaltyKind.SQUARED_L2, 0.2))
              for x, y in ((g, h), (g.tolist(), h.tolist()))]
    assert isinstance(convex[1][0].operator, np.ndarray) and np.array_equal(convex[1][0].operator, g)
    for solve, (arrayed, listed) in ((admm_solve, convex), (cone_solve, convex), (smooth_solve, smooth)):
        want, got = solve(ProblemSpec(r, a, arrayed)), solve(ProblemSpec(r, a, listed))
        assert got.status is want.status and got.iterations == want.iterations
        assert got.iterations > 0 and np.array_equal(got.w, want.w)
        assert objective_value(ProblemSpec(r, a, listed), got.w) == objective_value(
            ProblemSpec(r, a, arrayed), want.w)


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


def test_problem_spec_keeps_its_constraint_vector(scenario, manifold, a0):
    # a 1-D complex vector is kept as given, so a batch built from one vector
    # shares it; a column or a real vector becomes a 1-D complex copy
    assert ProblemSpec(np.eye(8), a0).constraint_vector is a0
    column = ProblemSpec(np.eye(8), a0[:, np.newaxis]).constraint_vector
    assert column.shape == (8,) and np.array_equal(column, a0)
    assert ProblemSpec(np.eye(2), np.ones(2)).constraint_vector.dtype == complex
    # equal but distinct vectors still make one batch; different ones do not
    covariances = [sample_covariance(synthesize_snapshots(scenario.with_seed(seed)).data) for seed in (7, 8)]
    l1 = (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.5),)
    for solve in (admm_solve, cone_solve):
        shared = solve([ProblemSpec(r, a0, l1) for r in covariances], BENCHMARK_OPTIONS)
        copied = solve([ProblemSpec(r, a0.copy(), l1) for r in covariances], BENCHMARK_OPTIONS)
        for got, ref in zip(copied, shared, strict=True):
            assert got.status is ref.status is SolverStatus.CONVERGED and got.iterations == ref.iterations
            npt.assert_array_equal(got.w, ref.w)
        with pytest.raises(ValueError, match="share the constraint vector"):
            solve([ProblemSpec(covariances[0], a0, l1), ProblemSpec(covariances[1], 1j * a0, l1)])


def test_is_smooth_nonconvex_flag():
    a = np.ones(2)
    assert not ProblemSpec(np.eye(2), a).is_smooth_nonconvex
    quartic = PenaltyTerm(np.eye(2), PenaltyKind.QUARTIC_UNIT, 1.0)
    assert ProblemSpec(np.eye(2), a, (quartic,)).is_smooth_nonconvex


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    for bad in (dict(max_iters=-5), dict(max_iters=0), dict(max_iters=2.5), dict(max_iters=True),
                dict(tol=np.inf), dict(tol=np.nan)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverOptions(**bad)
    # the boundary values and numpy scalars are accepted
    opts = SolverOptions(max_iters=np.int64(1), tol=np.float64(0.5))
    assert (opts.max_iters, opts.tol) == (1, 0.5)


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
    # a capped result reports the dual residual of its last iteration
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
    # the iterate after k steps is what a solve capped at k steps returns;
    # step 0 is the start of every solver, the unpenalized optimum
    rng = np.random.default_rng(12)
    spec = _quartic_spec(rng)
    _, _, w0, basis, _, _, _, z, _ = _eliminated([spec], "smooth_solve")
    objs = [objective_value(spec, w0 + basis @ z[0])]
    objs += [objective_value(spec, smooth_solve(spec, SolverOptions(max_iters=k)).w) for k in range(1, 8)]
    assert objs[-1] < objs[0]
    assert np.all(np.diff(objs) <= 1e-12 * max(1.0, abs(objs[0])))


def test_smooth_solve_meets_gradient_tolerance():
    rng = np.random.default_rng(13)
    spec = _quartic_spec(rng)
    res = smooth_solve(spec)
    assert res.status is SolverStatus.CONVERGED
    # from the unpenalized optimum the root takes 3 steps on this random spec
    assert res.iterations <= 3
    # the certificate is the gradient norm at the returned point, 3.2e-11 of
    # the gradient at w0 (the ridge of the z-space quadratic)
    w0, basis = eliminate_constraint(spec.constraint_vector)
    g = np.linalg.norm(smooth_gradient(spec, basis, res.w))
    assert res.dual_residual == pytest.approx(g, rel=1e-12)
    assert g <= 1e-10 * np.linalg.norm(smooth_gradient(spec, basis, w0))


def test_smooth_solve_iteration_cap_reports_max_iters():
    rng = np.random.default_rng(8)
    res = smooth_solve(_quartic_spec(rng), SolverOptions(max_iters=1))
    assert res.status is SolverStatus.MAX_ITERS
    assert res.iterations == 1
    assert np.all(np.isfinite(res.w))


# packaged draws (seed, mismatch in degrees) on which mspr_relaxed used to
# stall at the rounding floor of its objective, its gradient norm stuck above
# an absolute tolerance, until its iterate stopped moving bit for bit or
# (252 at 0 deg) its iteration cap of 300 ended it
STALLED_MSPR_DRAWS = ([(seed, 3.0) for seed in (7, 9, 17, 22, 28, 30, 31)]
                      + [(seed, 0.0) for seed in (13, 22, 23, 26, 252)])


@pytest.mark.parametrize("seed, mismatch", STALLED_MSPR_DRAWS)
def test_smooth_solve_stops_at_its_fixed_point(scenario, split, a0, seed, mismatch):
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch).with_seed(seed)
    r = sample_covariance(synthesize_snapshots(truth).data)
    gamma = 0.025118864315095794
    got = mspr_capon(r, split, a0, gamma, BENCHMARK_OPTIONS)
    assert got.status is SolverStatus.CONVERGED
    assert got.iterations <= 15
    # the gradient ends at most 4.7e-9 of its value at the closed form
    spec = ProblemSpec(r, a0, (PenaltyTerm(split.a_main, PenaltyKind.QUARTIC_UNIT, gamma),
                               PenaltyTerm(split.a_side, PenaltyKind.SQUARED_L2, gamma)))
    _, basis = eliminate_constraint(a0)
    closed = np.linalg.norm(smooth_gradient(spec, basis, closed_form(r, a0)))
    assert got.subgrad_residual <= 2e-8 * closed


@pytest.mark.parametrize("m", range(1, 9))
def test_cholesky_solve_matches_a_dense_solve(m):
    # complex Hermitian stacks, and the real symmetric ones of cone_solve's
    # Newton systems
    rng = np.random.default_rng(40 + m)
    for real in (False, True):
        for count in range(1, 6):
            mats = np.stack([random_psd(rng, m, real=real) for _ in range(count)])
            rhs = np.stack([random_vec(rng, m, real) for _ in range(count)])
            x, ok = cholesky_solve(mats, rhs)
            # count == m covers a stack that a 2-D right-hand side would misread
            assert ok.all() and x.shape == rhs.shape and x.dtype == rhs.dtype, (real, count)
            residual = np.linalg.norm((mats @ x[:, :, np.newaxis])[:, :, 0] - rhs, axis=1)
            assert np.all(residual <= 1e-12 * np.linalg.norm(rhs, axis=1)), (real, count)


def test_cholesky_solve_fails_a_slice_alone():
    # an indefinite slice and a NaN slice are flagged and come back NaN; LAPACK
    # solves each other slice on its own, so it solves bit for bit as it does
    # alone; for complex Hermitian and real symmetric stacks alike
    rng = np.random.default_rng(9)
    for real in (False, True):
        mats = np.stack([random_psd(rng, 7, real=real) for _ in range(5)])
        rhs = np.stack([random_vec(rng, 7, real) for _ in range(5)])
        mats[1] -= (np.linalg.eigvalsh(mats[1])[0] + 1.0) * np.eye(7)
        mats[3, 2, 2] = np.nan
        x, ok = cholesky_solve(mats, rhs)
        assert ok.tolist() == [True, False, True, False, True]
        assert np.isnan(x[~ok]).all()
        for t in np.flatnonzero(ok):
            alone, _ = cholesky_solve(mats[t:t + 1], rhs[t:t + 1])
            npt.assert_array_equal(x[t], alone[0])


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
    batch = smooth_solve(specs, BENCHMARK_OPTIONS)
    assert [r.status for r in batch].count(SolverStatus.NUMERICAL_FAILURE) == 1
    assert batch[2].status is SolverStatus.NUMERICAL_FAILURE
    for spec, got in zip(specs, batch):
        alone = smooth_solve(spec, BENCHMARK_OPTIONS)
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


def test_smooth_solve_rejects_nonsmooth_kinds():
    a = np.ones(3)
    l1 = PenaltyTerm(np.eye(3), PenaltyKind.L1, 1.0)
    with pytest.raises(ValueError):
        smooth_solve(ProblemSpec(np.eye(3), a, (l1,)))
    # the secular equation holds for one quartic term
    quartic = PenaltyTerm(np.eye(3), PenaltyKind.QUARTIC_UNIT, 1.0)
    with pytest.raises(ValueError):
        smooth_solve(ProblemSpec(np.eye(3), a, (quartic, quartic)))


def test_smooth_solve_completes_the_hard_case():
    # R = I, a = e1 and the quartic 2 (|w_2|^2 - 1)^2: the start w0 = e1 is a
    # saddle (objective 3); the gradient of |w_2|^2 vanishes there, so the
    # secular function stays positive down to its pole, and the minimizer
    # adds the top eigenvector until |w_2|^2 = 1 + nu / (2 gamma) = 0.75
    # (objective 1 + 0.75 + 2 * 0.25^2 = 1.875)
    spec = ProblemSpec(np.eye(3), np.array([1.0, 0.0, 0.0]),
                       (PenaltyTerm(np.array([[0.0], [1.0], [0.0]]), PenaltyKind.QUARTIC_UNIT, 2.0),))
    for got in smooth_solve([spec, spec]) + [smooth_solve(spec)]:
        assert got.status is SolverStatus.CONVERGED
        assert objective_value(spec, got.w) == pytest.approx(1.875, rel=1e-9)
        assert abs(got.w[1]) ** 2 == pytest.approx(0.75, rel=1e-9)
        assert got.w[2] == 0 and got.constraint_residual < 1e-15


def _plane_minimum(spec, center, radius, points=41, zooms=12):
    # the least objective over a grid of the z-plane (two sensors: z is one
    # complex number), zoomed onto its best point; at or above the minimum
    w0, basis = eliminate_constraint(spec.constraint_vector)
    best = math.inf
    for _ in range(zooms):
        axis = np.linspace(-radius, radius, points)
        zs = (center + axis[:, np.newaxis] + 1j * axis[np.newaxis, :]).ravel()
        ws = w0 + zs[:, np.newaxis] * basis[:, 0]
        values = np.real(np.sum(ws.conj() * (ws @ spec.quadratic.T), axis=1))
        for term in spec.penalties:
            power = np.sum(np.abs(ws @ term.operator.conj()) ** 2, axis=1)
            values += term.weight * ((power - 1.0) ** 2 if term.kind is PenaltyKind.QUARTIC_UNIT else power)
        k = int(np.argmin(values))
        if values[k] < best:
            best, center = values[k], zs[k]
        radius *= 4.0 / (points - 1)
    return best


def test_smooth_solve_beats_a_grid_search_on_two_sensors():
    # the returned objective is no higher than a dense grid search of the
    # z-plane finds, on the hard case, where the start is a saddle, and on
    # random two-sensor specs with quartic weights from mild to heavy (the
    # secular root lies below 0 on 14 of the 20)
    rng = np.random.default_rng(60)
    specs = [ProblemSpec(np.eye(2), np.array([1.0, 0.0]),
                         (PenaltyTerm(np.array([[0.0], [1.0]]), PenaltyKind.QUARTIC_UNIT, 2.0),))]
    for _ in range(20):
        specs.append(ProblemSpec(random_psd(rng, 2), random_vec(rng, 2), (
            PenaltyTerm((rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) * 10.0 ** rng.uniform(-1.0, 0.0),
                        PenaltyKind.QUARTIC_UNIT, float(10.0 ** rng.uniform(-1.0, 2.0))),
            PenaltyTerm(random_vec(rng, 2)[:, np.newaxis], PenaltyKind.SQUARED_L2, 0.3),
        )))
    for spec in specs:
        got = smooth_solve(spec)
        assert got.status is SolverStatus.CONVERGED
        # every minimizer z has q(z) <= f(z_q) at the minimizer z_q of the
        # quadratic part q, so |z - z_q|^2 <= 2 (f(z_q) - q(z_q)) / q''
        w0, basis = eliminate_constraint(spec.constraint_vector)
        r_eff = spec.quadratic + sum(t.weight * t.operator @ t.operator.conj().T
                                     for t in spec.penalties if t.kind is PenaltyKind.SQUARED_L2)
        z_q = (basis.conj().T @ closed_form(r_eff, spec.constraint_vector))[0]
        w_q = w0 + basis[:, 0] * z_q
        curvature = 2.0 * np.real(basis[:, 0].conj() @ r_eff @ basis[:, 0])
        excess = objective_value(spec, w_q) - np.real(w_q.conj() @ r_eff @ w_q)
        radius = 1.01 * math.sqrt(2.0 * excess / curvature) + 1e-12
        assert objective_value(spec, got.w) <= _plane_minimum(spec, z_q, radius) * (1.0 + 1e-12)


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
    # the weighted-sparse shape: one shared operator, one column scale per
    # problem; also scales equal by value (distinct arrays, or None beside
    # all ones), which every problem applies as its own row weights
    rng = np.random.default_rng(16)
    per_problem = [rng.uniform(0.01, 1.0, manifold.angles_deg.size) for _ in range(4)]
    covariances = _packaged_covariances(scenario, 4)
    for columns in (per_problem, [per_problem[0].copy() for _ in range(4)],
                    [None, np.ones(manifold.angles_deg.size)] * 2):
        specs = [ProblemSpec(r, a0, (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 1.0, scale=scale),))
                 for r, scale in zip(covariances, columns)]
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
    residual taken on every iteration. Returns w, the iterations, the status
    and the dual residual ||K^H diag(rho) (v - v_old)|| of the last
    iteration."""
    w0, basis = eliminate_constraint(spec.constraint_vector)
    r = spec.quadratic
    quad = 2.0 * (basis.conj().T @ r @ basis) + 1e-10 * np.real(np.trace(r)) / r.shape[0] * np.eye(basis.shape[1])
    lin = 2.0 * (basis.conj().T @ (r @ w0))
    terms = [t for t in spec.penalties if t.weight > 0]
    scales = [np.ones(t.operator.shape[1]) if t.scale is None else t.scale for t in terms]
    blocks = [s[:, np.newaxis] * (t.operator.conj().T @ basis) for t, s in zip(terms, scales)]
    k = np.vstack(blocks)
    c = np.concatenate([s * (t.operator.conj().T @ w0) for t, s in zip(terms, scales)])
    rhos = [_RHO * t.weight * np.linalg.norm(b, 2) for t, b in zip(terms, blocks)]
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
            return w0 + basis @ z, it, SolverStatus.CONVERGED, dual
    return w0 + basis @ z, opts.max_iters, SolverStatus.MAX_ITERS, dual


# the gammas the packaged sweep selects (acceptance criterion 10)
CRITERION_10_GAMMAS = {"sparse": 0.3162277660168379, "weighted_sparse": 10.0,
                       "mixed_norm": 0.19952623149688797, "tvm_sparse": 0.19952623149688797}


@pytest.mark.parametrize("mismatch", [0.0, 3.0])
@pytest.mark.parametrize("kind", list(CRITERION_10_GAMMAS))
def test_admm_matches_the_textbook_iteration(scenario, manifold, split, a0, kind, mismatch):
    # the batched loop takes the dual residual only on iterations where some
    # problem may stop, carries back(v) and back(u) in z-space, folds back(c)
    # into the linear term and clips the LINF prox; none of that may change a
    # single problem's iterates
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch)
    draws = [synthesize_snapshots(truth.with_seed(scenario.seed + t)).data for t in range(5)]
    gamma = CRITERION_10_GAMMAS[kind]
    specs = [ProblemSpec(sample_covariance(x), a0, tuple(
        replace(t, weight=t.weight * gamma, scale=snm_weighting(manifold, x) if kind == "weighted_sparse" else None)
        for t in _unit_terms(kind, manifold, split))) for x in draws]
    for spec, got in zip(specs, admm_solve(specs, BENCHMARK_OPTIONS)):
        w, iterations, status, _ = textbook_admm(spec, BENCHMARK_OPTIONS)
        assert got.status is status
        assert got.iterations == iterations
        assert np.linalg.norm(got.w - w) <= 1e-10 * np.linalg.norm(w)


@pytest.mark.parametrize("mismatch", [0.0, 3.0])
def test_admm_carried_products_do_not_drift(scenario, manifold, split, a0, mismatch):
    # admm_solve advances back(u) by a running sum and takes it by its
    # product only every _REFRESH iterations. weighted_sparse at gamma 10
    # runs these draws to a 2000-iteration cap at the default tol; with the
    # refresh its weights stay within 4.1e-12 of the textbook's, and without
    # it they drift to 7e-12 to 3.8e-10. The certificate is the norm of
    # back(v) - back(v_old), two terms that agree in their leading digits, so
    # it carries only the few digits that iterates rounding apart share:
    # taking back(v - v_old) by its own product reads up to 1.2e-4 relative
    # from the textbook's
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch)
    draws = [synthesize_snapshots(truth.with_seed(seed)).data for seed in range(7, 12)]
    specs = [ProblemSpec(sample_covariance(x), a0, tuple(replace(t, weight=10.0, scale=snm_weighting(manifold, x))
                                                         for t in _unit_terms("weighted_sparse", manifold, split)))
             for x in draws]
    opts = SolverOptions(max_iters=2000)
    for spec, got in zip(specs, admm_solve(specs, opts)):
        w, iterations, status, dual = textbook_admm(spec, opts)
        assert got.status is status is SolverStatus.MAX_ITERS
        assert got.iterations == iterations
        assert np.linalg.norm(got.w - w) <= 2e-11 * np.linalg.norm(w)
        assert abs(got.dual_residual - dual) <= 1e-3 * dual


CONE_KINDS = ("sparse", "mixed_norm", "tvm_sparse")


def _gamma_specs(kind, covariances, gammas, manifold, split, a0):
    terms = _unit_terms(kind, manifold, split)
    return [ProblemSpec(r, a0, tuple(replace(t, weight=t.weight * gamma) for t in terms))
            for r, gamma in zip(covariances, gammas)]


@pytest.mark.parametrize("mismatch", [0.0, 3.0])
@pytest.mark.parametrize("kind", CONE_KINDS)
def test_cone_solve_matches_tight_admm(scenario, manifold, split, a0, kind, mismatch):
    # against ADMM run to tol 1e-9 (converged on every draw), to bounds fixed
    # before running: the objective no worse by more than 1e-9 relative, the
    # SINR within 1e-4 dB, and the relative gap certified at 1e-9
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch)
    draws = [truth.with_seed(seed) for seed in range(7, 15)]
    covariances = [sample_covariance(synthesize_snapshots(draw).data) for draw in draws]
    specs = _gamma_specs(kind, covariances, [CRITERION_10_GAMMAS[kind]] * len(draws), manifold, split, a0)
    tight = admm_solve(specs, SolverOptions(tol=1e-9, max_iters=50000))
    for draw, spec, got, ref in zip(draws, specs, cone_solve(specs), tight):
        assert ref.status is SolverStatus.CONVERGED
        assert got.status is SolverStatus.CONVERGED
        assert 0.0 < got.dual_residual <= 1e-9
        assert objective_value(spec, got.w) <= objective_value(spec, ref.w) * (1.0 + 1e-9)
        assert abs(sinr(got.w, draw) - sinr(ref.w, draw)) <= 1e-4


@pytest.mark.parametrize("kind", CONE_KINDS)
def test_cone_batch_mixes_zero_and_positive_gammas(scenario, manifold, split, a0, kind):
    gammas = (0.0, 0.1, 0.0, 1.0)
    specs = _gamma_specs(kind, _packaged_covariances(scenario, 4), gammas, manifold, split, a0)
    for spec, gamma, got in zip(specs, gammas, cone_solve(specs)):
        assert got.status is SolverStatus.CONVERGED
        assert (got.iterations == 0) == (gamma == 0.0)
        if gamma == 0.0:
            # criterion 1's bound on the closed form
            expected = closed_form(spec.quadratic, a0)
            assert np.linalg.norm(got.w - expected) <= 1e-6 * np.linalg.norm(expected)
            assert got.dual_residual == 0.0


# mc_packaged chunks (first seed, mismatch in deg) whose batch takes a
# problem one iteration past its single solve: mixed_norm seed 119 at 3 deg
# and tvm_sparse seed 222 at 0 deg
_BORDERLINE_CHUNKS = {"mixed_norm": (107, 3.0), "tvm_sparse": (207, 0.0)}


@pytest.mark.parametrize("kind, case", [(kind, case) for kind in CONE_KINDS for case in ("draws", "gamma-grid")]
                         + [(kind, "chunk") for kind in _BORDERLINE_CHUNKS])
def test_cone_batch_equals_single_solves(scenario, manifold, split, a0, kind, case):
    # five draws at one gamma, one draw over the 41-point gamma grid, or a
    # 25-draw mc_packaged chunk. Batch products round differently, and a
    # problem whose gap lands near 1e-9 may stop one iteration apart; at
    # that gap the objective is flat along directions the weights then move
    # in (by up to 1.2e-6 relative), so the objective is the yardstick
    if case == "gamma-grid":
        covariances = _packaged_covariances(scenario, 1) * len(DEFAULT_GAMMA_GRID)
        gammas = DEFAULT_GAMMA_GRID
    elif case == "chunk":
        first, mismatch = _BORDERLINE_CHUNKS[kind]
        truth = scenario.with_soi_doa(scenario.presumed_doa_deg + mismatch)
        covariances = [sample_covariance(synthesize_snapshots(truth.with_seed(first + t)).data) for t in range(25)]
        gammas = [CRITERION_10_GAMMAS[kind]] * 25
    else:
        covariances = _packaged_covariances(scenario, 5)
        gammas = [CRITERION_10_GAMMAS[kind]] * 5
    specs = _gamma_specs(kind, covariances, gammas, manifold, split, a0)
    for spec, got in zip(specs, cone_solve(specs)):
        alone = cone_solve(spec)
        assert got.status is alone.status is SolverStatus.CONVERGED
        assert abs(got.iterations - alone.iterations) <= 1
        expected = objective_value(spec, alone.w)
        assert abs(objective_value(spec, got.w) - expected) <= 1e-10 * expected


def test_cone_iteration_cap_reports_max_iters(covariance, manifold, a0):
    spec = ProblemSpec(covariance, a0, (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.3),))
    res = cone_solve(spec, SolverOptions(max_iters=1))
    assert res.status is SolverStatus.MAX_ITERS
    assert res.iterations == 1
    assert 0.0 < res.dual_residual < np.inf
    assert res.constraint_residual < 1e-12


def test_cone_solve_validation(manifold, a0):
    scaled = PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.1, scale=np.full(181, 2.0))
    with pytest.raises(ValueError, match="column scale"):
        cone_solve(ProblemSpec(np.eye(8), a0, (scaled,)))
    quartic = PenaltyTerm(manifold.matrix, PenaltyKind.QUARTIC_UNIT, 0.1)
    with pytest.raises(ValueError, match="convex specs only"):
        cone_solve(ProblemSpec(np.eye(8), a0, (quartic,)))
    # a term of weight 0 in every problem is inert, but a problem may not
    # weight one active term by 0 and another by more
    halves = [(PenaltyTerm(manifold.matrix[:, :90], PenaltyKind.L1, 0.1),
               PenaltyTerm(manifold.matrix[:, 90:], PenaltyKind.L1, weight)) for weight in (0.0, 0.1)]
    assert cone_solve(ProblemSpec(np.eye(8), a0, halves[0])).status is SolverStatus.CONVERGED
    with pytest.raises(ValueError, match="all zero or all positive"):
        cone_solve([ProblemSpec(np.eye(8), a0, half) for half in halves])
    with pytest.raises(ValueError):
        cone_solve([])


def test_cone_solve_unfactorizable_quadratic_reports_numerical_failure(manifold, a0):
    res = cone_solve(ProblemSpec(-np.eye(8), a0, (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.1),)))
    assert res.status is SolverStatus.NUMERICAL_FAILURE
    assert res.iterations == 0


@pytest.mark.parametrize("kind", CONE_KINDS)
def test_cone_stall_ends_a_problem_at_its_last_iterate(monkeypatch, scenario, manifold, split, a0, kind):
    # a step floor of 0.5 makes some problems stall after 1-3 steps while
    # others converge; a stalled problem leaves the batch with its last
    # iterate and the gap it reached, exactly as it would alone
    monkeypatch.setattr("caponshape.solver._MIN_STEP", 0.5)
    specs = _gamma_specs(kind, _packaged_covariances(scenario, 5), [CRITERION_10_GAMMAS[kind]] * 5,
                         manifold, split, a0)
    batch = cone_solve(specs)
    assert SolverStatus.MAX_ITERS in [got.status for got in batch]
    for spec, got in zip(specs, batch):
        alone = cone_solve(spec)
        assert got.status is alone.status
        assert got.iterations == alone.iterations
        assert np.linalg.norm(got.w - alone.w) <= 1e-8 * np.linalg.norm(alone.w)
        if got.status is SolverStatus.MAX_ITERS:
            assert 1e-9 < got.dual_residual < 1.0 and got.iterations < 5
            assert got.constraint_residual < 1e-12


@pytest.mark.parametrize("bad", ["indefinite", "nan"])
@pytest.mark.parametrize("kind", CONE_KINDS)
def test_cone_newton_failure_stays_with_its_problem(monkeypatch, scenario, manifold, split, a0, kind, bad):
    # from its fourth iteration on, the Newton matrix of one problem of five
    # has a negative or a NaN diagonal entry; its direction comes back NaN,
    # so it stalls at its last iterate, which is feasible, while the other
    # problems solve as they do alone
    specs = _gamma_specs(kind, _packaged_covariances(scenario, 5), [CRITERION_10_GAMMAS[kind]] * 5,
                         manifold, split, a0)
    # the poisoned problem's z-space quadratic 2 B^H R B + 1e-10 trace(R)/M I,
    # in the real form the Newton systems are built from; matched within
    # 1e-9 relative, so it need not carry the solver's rounding
    _, basis = eliminate_constraint(a0)
    r = specs[2].quadratic
    quad = 2.0 * (basis.conj().T @ r @ basis) + 1e-10 * np.real(np.trace(r)) / r.shape[0] * np.eye(basis.shape[1])
    target = _real_form(quad.T)
    build, builds = solver._newton_matrix, []

    def poisoned(cones, sc, p_real):
        mat, linf = build(cones, sc, p_real)
        hit = np.abs(p_real - target).max(axis=(1, 2)) <= 1e-9 * np.abs(target).max()
        if hit.any():
            builds.append(hit.sum())
            if len(builds) > 3:
                mat[hit, 0, 0] = np.nan if bad == "nan" else -mat[hit, 0, 0]
        return mat, linf

    monkeypatch.setattr(solver, "_newton_matrix", poisoned)
    batch = cone_solve(specs)
    monkeypatch.undo()
    assert builds == [1] * 4
    stalled = batch[2]
    assert stalled.status is SolverStatus.MAX_ITERS and stalled.iterations == 3
    assert stalled.constraint_residual < 1e-12 and stalled.dual_residual > 1e-9
    for spec, got in zip(specs[:2] + specs[3:], batch[:2] + batch[3:]):
        alone = cone_solve(spec)
        assert got.status is alone.status is SolverStatus.CONVERGED
        assert abs(got.iterations - alone.iterations) <= 1
        expected = objective_value(spec, alone.w)
        assert abs(objective_value(spec, got.w) - expected) <= 1e-10 * expected


@pytest.mark.parametrize("solver", ["admm_solve", "cone_solve", "smooth_solve"])
def test_every_solver_fails_an_unfactorable_problem_at_w0(scenario, manifold, split, a0, solver):
    # one failure contract for the three batched solvers: a problem whose
    # quadratic is not positive definite ends at w0 after 0 iterations with
    # an infinite certificate, and its batch neighbours solve as they do alone;
    # a problem of gamma 0 ends at its unpenalized optimum after 0 iterations
    if solver == "smooth_solve":
        gamma = 0.1
        terms = (PenaltyTerm(split.a_main, PenaltyKind.QUARTIC_UNIT, gamma),
                 PenaltyTerm(split.a_side, PenaltyKind.SQUARED_L2, gamma))
        solve = smooth_solve
    else:
        terms = (PenaltyTerm(manifold.matrix, PenaltyKind.L1, CRITERION_10_GAMMAS["sparse"]),)
        solve = admm_solve if solver == "admm_solve" else cone_solve
    good = _packaged_covariances(scenario, 3)
    specs = [ProblemSpec(r, a0, terms) for r in (good[0], -1e6 * np.eye(8), good[1])]
    specs.append(ProblemSpec(good[2], a0, tuple(replace(t, weight=0.0) for t in terms)))
    batch = solve(specs, BENCHMARK_OPTIONS)

    failed = batch[1]
    assert failed.status is SolverStatus.NUMERICAL_FAILURE
    npt.assert_array_equal(failed.w, eliminate_constraint(a0)[0])
    assert failed.iterations == 0 and failed.dual_residual == np.inf
    for spec, got in zip(specs[::2], batch[::2]):
        alone = solve(spec, BENCHMARK_OPTIONS)
        assert got.status is alone.status is SolverStatus.CONVERGED
        if solve is cone_solve:
            assert abs(got.iterations - alone.iterations) <= 1
            expected = objective_value(spec, alone.w)
            assert abs(objective_value(spec, got.w) - expected) <= 1e-10 * expected
        elif solve is admm_solve:
            assert got.iterations == alone.iterations
            assert np.linalg.norm(got.w - alone.w) <= 1e-10 * np.linalg.norm(alone.w)
        else:
            assert got.iterations == alone.iterations
            npt.assert_array_equal(got.w, alone.w)
            assert got.dual_residual == alone.dual_residual
    unpenalized = batch[3]
    assert unpenalized.status is SolverStatus.CONVERGED and unpenalized.iterations == 0
    # the convex solvers certify a problem with no active penalty by 0, the
    # smooth one by its gradient norm
    certificate = (np.linalg.norm(smooth_gradient(specs[3], eliminate_constraint(a0)[1], unpenalized.w))
                   if solve is smooth_solve else 0.0)
    assert math.isclose(unpenalized.dual_residual, certificate, rel_tol=1e-12)


def test_cone_solve_pulls_a_step_back_inside_the_cones(scenario, manifold, a0):
    # on this 3 deg draw, rounding carries the dual point of one cone past
    # its boundary 18 iterations in, although the step length keeps it 1%
    # inside; taken whole, the step leaves the next scaling undefined and
    # the solve stalls at a gap of 1.07e-9
    truth = scenario.with_soi_doa(scenario.presumed_doa_deg + 3.0).with_seed(275)
    spec = ProblemSpec(sample_covariance(synthesize_snapshots(truth).data), a0,
                       (PenaltyTerm(manifold.matrix, PenaltyKind.L1, CRITERION_10_GAMMAS["sparse"]),))
    res = cone_solve(spec)
    assert res.status is SolverStatus.CONVERGED
    assert res.dual_residual <= 1e-9


def _tv_terms(manifold):
    n = manifold.angles_deg.size
    return [PenaltyTerm(manifold.matrix @ difference_operator(i, n).T, PenaltyKind.GROUP_L2, 1.0) for i in (1, 2)]


def test_group_cones_hold_the_range_of_their_rows(manifold, a0):
    # each TV group's 180 / 179 rows span at most m + 1 = 8 complex
    # dimensions, and its cone keeps the R factor of [K_g c_g] in their
    # place; ||R [z; 1]|| is ||G^H (w0 + B z)|| for every z
    w0, basis = eliminate_constraint(a0)
    terms = _tv_terms(manifold)
    cones = _Cones(terms, basis, w0)
    assert [term.operator.shape[1] for term in terms] == [180, 179]
    assert len(cones.groups) == 2 and cones.count == 2
    assert all(size <= basis.shape[1] + 1 for size in cones.group_sizes)
    z = random_vec(np.random.default_rng(3), 5 * basis.shape[1]).reshape(5, -1)
    v = cones.forward(z) + cones.c
    for term, (_, rows, _) in zip(terms, cones.groups):
        expected = np.linalg.norm((w0 + z @ basis.T) @ term.operator.conj(), axis=1)
        npt.assert_allclose(np.linalg.norm(v[:, rows], axis=1), expected, rtol=1e-12)


@pytest.mark.parametrize("columns", [[120, 135, 150], [120, 135, 150, 135]], ids=["narrow", "rank-deficient"])
def test_cone_solve_with_a_small_group_matches_tight_admm(scenario, manifold, a0, columns):
    # a group of 3 columns has fewer rows than m + 1, and a duplicated column
    # leaves [K_g c_g] rank-deficient, so its R factor has a zero row
    term = PenaltyTerm(manifold.matrix[:, columns], PenaltyKind.GROUP_L2, 1.0)
    specs = [ProblemSpec(r, a0, (term,)) for r in _packaged_covariances(scenario, 4)]
    tight = admm_solve(specs, SolverOptions(tol=1e-9, max_iters=50000))
    for spec, got, ref in zip(specs, cone_solve(specs), tight):
        assert ref.status is SolverStatus.CONVERGED
        assert got.status is SolverStatus.CONVERGED
        assert objective_value(spec, got.w) <= objective_value(spec, ref.w) * (1.0 + 1e-9)


def _interior(rng, cones, count):
    """Random strictly interior (x0, x1) of every cone, per problem."""
    x1 = random_vec(rng, count * (cones.k_fwd.shape[1] // 2)).reshape(count, -1)
    x0 = np.sqrt(cones.per_cone(np.abs(x1) ** 2)) + rng.uniform(0.1, 2.0, (count, cones.count))
    return x0, x1


@pytest.fixture
def kernel_cones(manifold):
    # 3-dimensional cones of an L1 term, LINF cones that share one epigraph
    # variable, and a group, over a random basis
    rng = np.random.default_rng(11)
    w0, basis = random_vec(rng, 8), np.linalg.qr(random_vec(rng, 56).reshape(8, 7))[0]
    terms = [PenaltyTerm(manifold.matrix[:, 85:95], PenaltyKind.LINF, 1.0),
             PenaltyTerm(manifold.matrix[:, 130:142], PenaltyKind.L1, 1.0)] + _tv_terms(manifold)[:1]
    return _Cones(terms, basis, w0)


def _scaling(rng, cones, count):
    s0, s1 = _interior(rng, cones, count)
    l0, l1 = _interior(rng, cones, count)
    return _Scaling(cones, s0, s1, l0, l1, cones.dot(s0, s1, l0, l1)), (s0, s1), (l0, l1)


def test_scaling_meets_the_nesterov_todd_identities(kernel_cones):
    # W^-1 s = lt and W^-1 lt = lambda at random interior points
    sc, s, lam = _scaling(np.random.default_rng(12), kernel_cones, 6)
    for x, y in ((s, (sc.lt0, sc.lt1)), ((sc.lt0, sc.lt1), lam)):
        got0, got1 = sc.inv(kernel_cones, *x)
        npt.assert_allclose(got0, y[0], rtol=1e-10)
        assert np.linalg.norm(got1 - y[1]) <= 1e-10 * np.linalg.norm(y[1])


def test_max_step_matches_a_bisection_on_cone_membership(kernel_cones):
    cones = kernel_cones
    rng = np.random.default_rng(13)
    sc, _, _ = _scaling(rng, cones, 6)
    d0, d1 = rng.standard_normal(sc.lt0.shape), random_vec(rng, sc.lt1.size).reshape(sc.lt1.shape)
    alpha = _max_step(cones, sc, d0, d1)

    def outside(step):
        return cones.outside(sc.lt0 + step[:, np.newaxis] * d0, sc.lt1 + step[:, np.newaxis] * d1)

    lo, hi = np.zeros(alpha.size), np.ones(alpha.size)
    for _ in range(60):
        hi = np.where(outside(hi), hi, 2.0 * hi)
    assert outside(hi).all()
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        out = outside(mid)
        lo, hi = np.where(out, lo, mid), np.where(out, mid, hi)
    npt.assert_allclose(alpha, lo, rtol=1e-9)
    # a direction inside every cone never leaves it
    d0 = np.sqrt(cones.per_cone(np.abs(d1) ** 2)) + 0.5
    assert np.isinf(_max_step(cones, sc, d0, d1)).all()

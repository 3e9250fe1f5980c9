"""Constraint elimination, the ADMM path, and the smooth descent path."""

import numpy as np
import numpy.testing as npt
import pytest

from caponshape.arrays import difference_operator, sample_covariance, synthesize_snapshots
from caponshape.cli import BENCHMARK_OPTIONS
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
    with pytest.raises(ValueError):
        PenaltyTerm(np.zeros(3), PenaltyKind.L1, 1.0)  # vector, not matrix
    with pytest.raises(ValueError):
        PenaltyTerm(np.eye(3), PenaltyKind.GROUP_L2, 1.0, groups=(np.array([0, 1]),))
    term = PenaltyTerm(np.eye(3), PenaltyKind.GROUP_L2, 1.0)
    assert len(term.groups) == 1 and term.groups[0].size == 3
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
        SolverOptions(tol_primal=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(ridge=-1e-3)
    with pytest.raises(ValueError):
        SolverOptions(smooth_grad_tol=0.0)


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
    assert res.primal_residual < opts.tol_primal
    assert res.dual_residual < opts.tol_dual
    assert res.subgrad_residual <= 10.0 * opts.tol_dual


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
        assert res.objective >= prev - 1e-8
        prev = res.objective


def test_admm_rejects_quartic_terms():
    a = np.ones(3)
    quartic = PenaltyTerm(np.eye(3), PenaltyKind.QUARTIC_UNIT, 1.0)
    with pytest.raises(ValueError):
        admm_solve(ProblemSpec(np.eye(3), a, (quartic,)))


def test_admm_unfactorizable_system_reports_numerical_failure():
    spec = ProblemSpec(np.zeros((2, 2)), np.array([1.0 + 0.0j, 0.0]))
    res = admm_solve(spec, SolverOptions(ridge=0.0))
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


def test_admm_trace_records_residuals():
    rng = np.random.default_rng(9)
    r = random_psd(rng, 5)
    a = random_vec(rng, 5)
    op = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    spec = ProblemSpec(r, a, (PenaltyTerm(op, PenaltyKind.L1, 0.3),))
    opts = SolverOptions(keep_trace=True)
    res = admm_solve(spec, opts)
    assert res.trace is not None
    assert len(res.trace) == res.iterations
    _, rp, rd = res.trace[-1]
    assert rp < opts.tol_primal and rd < opts.tol_dual


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
    rng = np.random.default_rng(12)
    spec = _quartic_spec(rng)
    res = smooth_solve(spec, SolverOptions(keep_trace=True))
    objs = [f for (_, f, _) in res.trace]
    assert len(objs) >= 2
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
    return [sample_covariance(synthesize_snapshots(scenario.with_seed(scenario.seed + t)).data).matrix
            for t in range(count)]


@pytest.mark.parametrize("kinds", ["l1", "linf+l1", "group_l2+l1"])
def test_admm_batch_equals_single_solves(scenario, manifold, split, a0, kinds):
    # the batched loop must run each problem exactly as a batch of one does
    first_difference = difference_operator(1, manifold.angles_deg.size)
    terms = {
        "l1": (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.3),),
        "linf+l1": (PenaltyTerm(split.a_main, PenaltyKind.LINF, 0.2), PenaltyTerm(split.a_side, PenaltyKind.L1, 0.2)),
        "group_l2+l1": (PenaltyTerm(manifold.matrix @ first_difference.T, PenaltyKind.GROUP_L2, 0.3),
                        PenaltyTerm(split.a_side, PenaltyKind.L1, 0.2)),
    }[kinds]
    specs = [ProblemSpec(r, a0, terms) for r in _packaged_covariances(scenario, 5)]
    batch = admm_solve(specs, BENCHMARK_OPTIONS)
    for spec, got in zip(specs, batch):
        alone = admm_solve(spec, BENCHMARK_OPTIONS)
        assert got.status is alone.status is SolverStatus.CONVERGED
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
        assert got.objective == pytest.approx(objective_value(spec, got.w))


def test_admm_batch_confines_a_failure_to_its_problem(monkeypatch, scenario, manifold, a0):
    good = _packaged_covariances(scenario, 2)
    opts = SolverOptions(ridge=0.0, max_iters=2000, tol_primal=1e-6, tol_dual=1e-6)
    # a singular quadratic with no active penalty cannot be factored
    unpenalized = (PenaltyTerm(manifold.matrix, PenaltyKind.L1, 0.0),)
    specs = [ProblemSpec(r, a0, unpenalized) for r in (good[0], np.zeros((8, 8)), good[1])]
    # an indefinite quadratic makes the penalized z-system unfactorable
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


def test_admm_batch_validation(a0):
    with pytest.raises(ValueError):
        admm_solve([])
    op = np.eye(8, dtype=complex)
    with pytest.raises(ValueError):
        admm_solve([ProblemSpec(np.eye(8), a0, (PenaltyTerm(op, PenaltyKind.L1, 0.1),)),
                    ProblemSpec(np.eye(8), a0, (PenaltyTerm(op, PenaltyKind.L1, 0.2),))])
    with pytest.raises(ValueError):
        admm_solve([ProblemSpec(np.eye(8), a0), ProblemSpec(np.eye(8), 1j * a0)])

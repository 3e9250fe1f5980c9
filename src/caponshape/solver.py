"""
Equality-constrained composite solver for beamformer design problems

    minimize_w   w^H R w + sum_j gamma_j * h_j(G_j^H w)
    subject to   w^H a = 1

with R Hermitian PSD and h_j drawn from a small penalty vocabulary (L1,
Linf, group-L2, squared-L2, and the quartic (||v||^2 - 1)^2 term).

The affine constraint is eliminated exactly: w = w0 + B z with w0 = a/||a||^2
and B an orthonormal basis of a's orthogonal complement, so every iterate is
feasible to machine precision. Nonsmooth penalties are handled by scaled ADMM
over the stacked operator K = [G_j^H B], for one problem or a batch of
problems that share K; the quartic term takes a smooth descent path with
Armijo backtracking preconditioned by a curvature model, likewise for one
problem or a batch.

Gradients follow the real-geometry (Wirtinger, factor-2) convention: for
f(z) = z^H M z + 2 Re(b^H z) the gradient is 2(Mz + b), which is exactly the
vector of partial derivatives with respect to the real and imaginary parts.
The z-update system therefore reads (2 B^H R B + ridge I + rho K^H K) z = rhs,
with ridge = 1e-10 trace(R)/M; this pins the fixed point to the stated
objective (a system without the 2 would double-count the penalties relative
to the quadratic).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .prox import group_shrink, prox_l1, prox_linf

__all__ = [
    "PenaltyKind",
    "PenaltyTerm",
    "ProblemSpec",
    "SolverOptions",
    "SolverStatus",
    "SolverResult",
    "NumericalError",
    "eliminate_constraint",
    "admm_solve",
    "smooth_solve",
    "smooth_gradient",
    "objective_value",
]


class NumericalError(RuntimeError):
    """Raised when a linear-algebra step fails beyond recovery."""


class PenaltyKind(enum.Enum):
    L1 = "l1"
    LINF = "linf"
    GROUP_L2 = "group_l2"
    SQUARED_L2 = "squared_l2"
    QUARTIC_UNIT = "quartic_unit"


class SolverStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    NUMERICAL_FAILURE = "numerical_failure"


_PROX_FRIENDLY = (PenaltyKind.L1, PenaltyKind.LINF, PenaltyKind.GROUP_L2)


@dataclass(frozen=True, eq=False)
class PenaltyTerm:
    """One term gamma * h(s * G^H w). ``operator`` is G (M x q complex).

    ``scale`` is an optional positive length-q column weight s (default all
    ones); it is kept apart from G so that problems differing only in s share
    one stacked ADMM operator. It applies to the prox kinds (L1, LINF,
    GROUP_L2). GROUP_L2 is the Euclidean norm of the whole vector s * G^H w.
    """

    operator: np.ndarray
    kind: PenaltyKind
    weight: float
    scale: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"penalty weight must be finite and >= 0, got {self.weight}")
        op = np.asarray(self.operator)
        if op.ndim != 2:
            raise ValueError(f"penalty operator must be a matrix, got shape {op.shape}")
        if self.scale is not None:
            scale = np.asarray(self.scale, dtype=float)
            if self.kind not in _PROX_FRIENDLY:
                raise ValueError(f"a column scale applies to L1, LINF and GROUP_L2 terms, not {self.kind}")
            if scale.shape != (op.shape[1],) or not np.all(np.isfinite(scale) & (scale > 0)):
                raise ValueError("scale must hold one positive finite weight per operator column")
            object.__setattr__(self, "scale", scale)

    def value(self, v: np.ndarray) -> float:
        """h(s * v) for this term's kind (without the gamma factor)."""
        if self.scale is not None:
            v = self.scale * v
        if self.kind is PenaltyKind.L1:
            return float(np.abs(v).sum())
        if self.kind is PenaltyKind.LINF:
            return float(np.abs(v).max()) if v.size else 0.0
        if self.kind is PenaltyKind.GROUP_L2:
            return float(np.linalg.norm(v))
        if self.kind is PenaltyKind.SQUARED_L2:
            return float(np.linalg.norm(v) ** 2)
        if self.kind is PenaltyKind.QUARTIC_UNIT:
            return float((np.linalg.norm(v) ** 2 - 1.0) ** 2)
        raise AssertionError(self.kind)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Quadratic form, equality-constraint vector, and penalty list.

    The quadratic matrix is Hermitian-symmetrized on construction.
    """

    quadratic: np.ndarray
    constraint_vector: np.ndarray
    penalties: tuple[PenaltyTerm, ...] = ()

    def __post_init__(self):
        r = np.asarray(self.quadratic, dtype=complex)
        a = np.asarray(self.constraint_vector, dtype=complex).ravel()
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError(f"quadratic must be square, got shape {r.shape}")
        if a.size != r.shape[0]:
            raise ValueError("constraint vector length does not match the quadratic")
        if not (np.isfinite(r).all() and np.isfinite(a).all()):
            raise ValueError("quadratic and constraint vector must be finite")
        if np.linalg.norm(a) == 0:
            raise ValueError("constraint vector must be nonzero")
        object.__setattr__(self, "quadratic", 0.5 * (r + r.conj().T))
        object.__setattr__(self, "constraint_vector", a)
        object.__setattr__(self, "penalties", tuple(self.penalties))
        for term in self.penalties:
            if np.asarray(term.operator).shape[0] != a.size:
                raise ValueError("penalty operator row count does not match w's length")

    @property
    def is_smooth_nonconvex(self) -> bool:
        return any(t.kind is PenaltyKind.QUARTIC_UNIT for t in self.penalties)


@dataclass(frozen=True)
class SolverOptions:
    """ADMM stops a problem when both its primal and dual residual norms are
    below ``tol``; the smooth path stops when the gradient norm is below
    ``smooth_grad_tol``."""

    rho: float = 1.0
    max_iters: int = 5000
    tol: float = 1e-7
    smooth_max_iters: int = 2000
    smooth_grad_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rho", "tol", "smooth_grad_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                math.isfinite(value) and value > 0
            ):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        for name, least in (("max_iters", 1), ("smooth_max_iters", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, eq=False)
class SolverResult:
    w: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    constraint_residual: float
    status: SolverStatus
    subgrad_residual: float = 0.0


def objective_value(spec: ProblemSpec, w: np.ndarray) -> float:
    """Total objective w^H R w + sum_j gamma_j h_j(s_j * G_j^H w)."""
    total = float(np.real(w.conj() @ spec.quadratic @ w))
    for term in spec.penalties:
        if term.weight > 0:
            total += term.weight * term.value(term.operator.conj().T @ w)
    return total


def eliminate_constraint(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parametrize {w : w^H a = 1} as w0 + B z.

    Returns w0 = a/||a||^2 (the minimum-norm feasible point) and an M x (M-1)
    matrix B whose orthonormal columns span the orthogonal complement of a.
    """
    a = np.asarray(a, dtype=complex).ravel()
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("constraint vector must be nonzero")
    w0 = a / norm**2
    q, _ = np.linalg.qr(a.reshape(-1, 1), mode="complete")
    return w0, q[:, 1:]


def _ridge(r: np.ndarray) -> float:
    """Ridge added to the eliminated quadratic: 1e-10 * trace(R)/M."""
    return 1e-10 * float(np.real(np.trace(r))) / r.shape[0]


def _fold_squared_l2(spec: ProblemSpec) -> np.ndarray:
    """Quadratic matrix with gamma * ||G^H w||^2 penalties absorbed."""
    r = spec.quadratic
    for term in spec.penalties:
        if term.kind is PenaltyKind.SQUARED_L2 and term.weight > 0:
            g = term.operator
            r = r + term.weight * (g @ g.conj().T)
    return r


# GROUP_L2 shrinks each row of its block as one group
_WHOLE_BLOCK = (slice(None),)


def _prox_block(kind: PenaltyKind, v: np.ndarray, t: float) -> np.ndarray:
    if kind is PenaltyKind.L1:
        return prox_l1(v, t)
    if kind is PenaltyKind.LINF:
        return prox_linf(v, t)
    if kind is PenaltyKind.GROUP_L2:
        return group_shrink(v, _WHOLE_BLOCK, t)
    raise AssertionError(kind)


def _inverses(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of each Hermitian matrix in a (T, m, m) stack, and whether it
    is positive definite (Cholesky succeeds); a failed slice inverts the
    identity instead."""
    ok = np.ones(mats.shape[0], dtype=bool)
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        for t, mat in enumerate(mats):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                ok[t] = False
        mats = np.where(ok[:, np.newaxis, np.newaxis], mats, np.eye(mats.shape[-1]))
    return np.linalg.inv(mats), ok


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex (T, n) array whose rows are
    contiguous."""
    flat = x.view(float)
    return np.sqrt(flat[:, np.newaxis, :] @ flat[:, :, np.newaxis])[:, 0, 0]


def _real_form(mat: np.ndarray) -> np.ndarray:
    """The real 2p x 2q matrix of a complex p x q matrix, for ``_times``."""
    out = np.empty((2 * mat.shape[0], 2 * mat.shape[1]))
    out[0::2, 0::2] = out[1::2, 1::2] = mat.real
    out[0::2, 1::2] = mat.imag
    out[1::2, 0::2] = -mat.imag
    return out


def _times(x: np.ndarray, real_form: np.ndarray) -> np.ndarray:
    """x @ mat for complex rows x with contiguous entries, as one real GEMM
    on the interleaved real and imaginary parts."""
    return (x.view(float) @ real_form).view(complex)


def _shares_operators(first: ProblemSpec, other: ProblemSpec) -> bool:
    """Whether two specs have the same constraint vector and penalty terms,
    up to each term's weight and column scale."""
    return (
        np.array_equal(first.constraint_vector, other.constraint_vector)
        and len(first.penalties) == len(other.penalties)
        and all(
            x.kind is y.kind
            and (x.operator is y.operator or np.array_equal(x.operator, y.operator))
            for x, y in zip(first.penalties, other.penalties)
        )
    )


def _same_scale(x, y) -> bool:
    return x is y or (x is not None and y is not None and np.array_equal(x, y))


def admm_solve(spec, opts: SolverOptions = SolverOptions()):
    """Solve a convex spec (no quartic term), or a batch of them, by scaled
    ADMM after constraint elimination.

    ``spec`` is one ProblemSpec, solved as a batch of one and returning one
    SolverResult, or a sequence of T specs, returning a list of T results.
    The specs of a batch must share the constraint vector and the penalty
    operators; their quadratics, penalty weights and column scales are free.
    Each problem runs the iteration it would run alone, with its own
    factorization, residuals and stopping test, and leaves the batch when it
    stops, so a failure is confined to its own result. A problem with no
    active penalty (weight > 0, squared-L2 aside) ends at the unpenalized
    optimum after 0 iterations, as it does alone.

    Squared-L2 penalties are folded into the quadratic; each remaining
    penalty j becomes a split variable v_j = S_j K_j z + S_j c_j with
    K_j = G_j^H B, c_j = G_j^H w0 and S_j = diag(scale_j). The splitting
    penalty for block j is rho * gamma_j * sigma_j with
    sigma_j = ||S_j K_j||_2, which makes the iteration behavior invariant to
    rescaling any penalty weight or operator (these penalties are positively
    1-homogeneous); rho is just the overall multiplier, and a block of weight
    0 gets splitting penalty and prox threshold 0, which leaves it inert. The
    fixed point does not depend on this choice. Blocks are stacked into one
    operator K shared by the batch (per-problem scales and splitting
    penalties enter as row weights). Each iteration costs two (T, m) x
    m-by-n products (the z-update's K^H product, with K^H c folded into the
    linear term once, and K z), one batched m x m inverse-times-vector, and
    the row-wise block proxes; the products run as real GEMMs on the
    interleaved real and imaginary parts. The dual residual, a third product
    K^H diag(rho) (v - v_old), is taken only on an iteration where some
    problem's primal residual is below ``tol`` or non-finite (only such a
    problem can stop) and on the cap iteration. The z-system of problem t
    is quad_t + sum_j rho_tj K_j^H K_j, built from the per-block Gram
    matrices when the batch shares its scales. Stops a problem when its
    absolute primal and dual residual norms (in the original, unscaled block
    units) both drop below ``tol``.
    """
    if isinstance(spec, ProblemSpec):
        return admm_solve([spec], opts)[0]
    specs = list(spec)
    if not specs:
        raise ValueError("admm_solve needs at least one spec")
    first = specs[0]
    if first.is_smooth_nonconvex:
        raise ValueError("admm_solve handles convex specs only; use smooth_solve")
    for term in first.penalties:
        if term.kind not in _PROX_FRIENDLY and term.kind is not PenaltyKind.SQUARED_L2:
            raise ValueError(f"unsupported penalty kind for admm_solve: {term.kind}")
    if not all(_shares_operators(first, other) for other in specs[1:]):
        raise ValueError("a batch must share the constraint vector and the penalty operators")

    count = len(specs)
    w0, basis = eliminate_constraint(first.constraint_vector)
    m = basis.shape[1]
    r_eff = np.stack([_fold_squared_l2(s) for s in specs])
    ridge = np.array([_ridge(s.quadratic) for s in specs])
    quad = 2.0 * (basis.conj().T @ r_eff @ basis) + ridge[:, np.newaxis, np.newaxis] * np.eye(m)
    lin = 2.0 * ((r_eff @ w0) @ basis.conj())
    active_terms = [j for j, t in enumerate(first.penalties)
                    if t.kind in _PROX_FRIENDLY and any(s.penalties[j].weight > 0 for s in specs)]
    terms = [first.penalties[j] for j in active_terms]

    def finish(t, z, iters, rp, rd, status, cert):
        w = w0 + basis @ z
        return SolverResult(
            w=w,
            objective=objective_value(specs[t], w),
            iterations=int(iters),
            primal_residual=float(rp),
            dual_residual=float(rd),
            constraint_residual=abs(w.conj() @ first.constraint_vector - 1.0),
            status=status,
            subgrad_residual=float(cert),
        )

    def failure(t):
        return finish(t, np.zeros(m, dtype=complex), 0, math.inf, math.inf,
                      SolverStatus.NUMERICAL_FAILURE, math.inf)

    # the unpenalized optimum: the answer for a problem with no active
    # penalty, and the warm start (zero if quad is not factorable) otherwise
    inv_quad, factored = _inverses(quad)
    z = np.where(factored[:, np.newaxis], -(inv_quad @ lin[:, :, np.newaxis])[:, :, 0], 0.0)
    if not terms or m == 0:
        cert = _row_norms((quad @ z[:, :, np.newaxis])[:, :, 0] + lin)
        return [
            finish(t, z[t], 0, 0.0, 0.0, SolverStatus.CONVERGED, cert[t]) if factored[t] else failure(t)
            for t in range(count)
        ]

    # stacked penalty operator shared by the batch, with per-problem row
    # scales and per-block splitting penalties
    sizes = [t.operator.shape[1] for t in terms]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(terms))]
    k_mat = np.vstack([t.operator.conj().T @ basis for t in terms])
    c_vec = np.concatenate([t.operator.conj().T @ w0 for t in terms])

    def column_scale(s):
        return np.concatenate([
            np.ones(size) if s.penalties[j].scale is None else s.penalties[j].scale
            for j, size in zip(active_terms, sizes)
        ])

    # a scale the whole batch shares (always so for one problem) folds into K
    scaled = not all(
        _same_scale(s.penalties[j].scale, first.penalties[j].scale) for s in specs[1:] for j in active_terms
    )
    if scaled:
        scale = np.stack([column_scale(s) for s in specs])
        sigmas = np.stack(
            [np.linalg.norm(scale[:, sl, np.newaxis] * k_mat[sl], 2, axis=(1, 2)) for sl in slices], axis=1
        )
        c = scale * c_vec
    else:
        shared = column_scale(first)
        k_mat, c = k_mat * shared[:, np.newaxis], c_vec * shared
        sigmas = np.array([[np.linalg.norm(k_mat[sl], 2) for sl in slices]])
    k_t, k_conj = k_mat.T, k_mat.conj()
    weights = np.array([[s.penalties[j].weight for j in active_terms] for s in specs])
    block_rho = opts.rho * weights * np.where(sigmas > 0, sigmas, 1.0)
    prox_ts = np.divide(weights, block_rho, out=np.zeros_like(weights), where=block_rho > 0)
    penalized = block_rho.any(axis=1)
    # splitting penalty per operator row (K_t^H diag(rho_t) y = K^H (scale *
    # rho * y) for problem t's scaled operator), one row when the batch
    # shares it
    shared_rho = not scaled and (block_rho == block_rho[0]).all()
    rho_k = np.repeat(block_rho[:1] if shared_rho else block_rho, sizes, axis=1)
    if scaled:
        rho_k = rho_k * scale
        # K_t^H diag(rho_t) K_t, one m x n product at a time
        gram = np.stack([(k_conj.T * weight) @ k_mat for weight in rho_k * scale])
    else:
        block_grams = np.stack([k_conj[sl].T @ k_mat[sl] for sl in slices])
        gram = np.tensordot(block_rho, block_grams, axes=1)
    inv_sys, ok = _inverses(quad + gram)

    # results by problem, where an unpenalized problem ends at its warm start;
    # the loop runs on the rows of the problems still active
    z_out = np.where(penalized[:, np.newaxis], 0.0, z)
    u_out = np.zeros((count, k_mat.shape[0]), dtype=complex)
    rp_out = np.where(penalized, math.inf, 0.0)
    rd_out = rp_out.copy()
    iters_out = np.where(penalized, opts.max_iters, 0)
    status_out = [SolverStatus.MAX_ITERS if p else SolverStatus.CONVERGED for p in penalized]

    active = np.flatnonzero(ok & penalized)
    inv_a, ts_a = inv_sys[active], prox_ts[active]
    # forward(z) = S_t K z + S_t c and back(y) = K_t^H diag(rho_t) y for each
    # active problem t, as real GEMMs; a scale or rho the batch shares folds
    # into K
    k_fwd = _real_form(k_t)
    if scaled:
        c_a, scale_a = c[active], scale[active]

        def forward(z):
            return _times(z, k_fwd) * scale_a + c_a
    else:
        c_a = c

        def forward(z):
            return _times(z, k_fwd) + c_a
    if shared_rho:
        k_back = _real_form(k_conj * rho_k[0][:, np.newaxis])

        def back(y):
            return _times(y, k_back)
    else:
        rho_a = rho_k[active]
        k_back = _real_form(k_conj)

        def back(y):
            return _times(rho_a * y, k_back)

    # the z-update right-hand side is back(v - u - c) - lin; back(c) is
    # folded into the linear term once
    lin_a = lin[active] + back(c_a)
    term_slices = list(zip(terms, slices))
    z = z[active]
    v = forward(z)
    u = np.zeros_like(v)
    rp = rd = np.full(active.size, math.inf)
    for it in range(1, opts.max_iters + 1):
        if not active.size:
            break
        z = (inv_a @ (back(v - u) - lin_a)[:, :, np.newaxis])[:, :, 0]
        kzc = forward(z)
        v_old = v
        arg = kzc + u
        blocks = [_prox_block(term.kind, arg[:, sl], ts_a[:, j]) for j, (term, sl) in enumerate(term_slices)]
        v = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        resid = kzc - v
        u = u + resid
        rp = _row_norms(resid)
        # a problem can stop only when its primal residual is small
        # (converged, if the dual residual is small too) or non-finite, so the
        # dual residual back(v - v_old) is taken only on an iteration where
        # some problem's is, and on the cap iteration, whose results report
        # it (tests on lists are cheaper than on short arrays)
        primal = rp.tolist()
        if it < opts.max_iters and min(primal) >= opts.tol and math.isfinite(sum(primal)):
            continue
        rd = _row_norms(back(v - v_old))
        stopped = [d < opts.tol if p < opts.tol else not p < math.inf for p, d in zip(primal, rd.tolist())]
        if any(stopped):
            stopped = np.array(stopped)
            for i in np.flatnonzero(stopped):
                t = active[i]
                z_out[t], u_out[t], rp_out[t], rd_out[t], iters_out[t] = z[i], u[i], rp[i], rd[i], it
                status_out[t] = SolverStatus.CONVERGED if rp[i] < opts.tol else SolverStatus.NUMERICAL_FAILURE
            going = ~stopped
            active, z, v, u, rp, rd, lin_a, inv_a, ts_a = (
                x[going] for x in (active, z, v, u, rp, rd, lin_a, inv_a, ts_a)
            )
            if not shared_rho:
                rho_a = rho_a[going]
            if scaled:
                c_a, scale_a = c_a[going], scale_a[going]
    # the problems still active stopped at the cap
    z_out[active], u_out[active], rp_out[active], rd_out[active] = z, u, rp, rd

    # stationarity certificate from the splitting duals:
    # rho_j * u_j in gamma_j * dh_j(v_j)
    certs = _row_norms((quad @ z_out[:, :, np.newaxis])[:, :, 0] + lin + (rho_k * u_out) @ k_conj)
    return [
        finish(t, z_out[t], iters_out[t], rp_out[t], rd_out[t], status_out[t], certs[t])
        if ok[t] else failure(t)
        for t in range(count)
    ]


def _mv(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of x times its own matrix, or times one shared matrix, as a
    stacked product taken problem by problem, so that a problem's result does
    not depend on the batch it is part of."""
    return (mats @ x[..., np.newaxis])[..., 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex (T, n) array, summed the way
    np.linalg.norm sums one vector (the real parts, then the imaginary)."""
    re, im = x.real, x.imag
    return np.sqrt(_mv(re[:, np.newaxis, :], re)[:, 0] + _mv(im[:, np.newaxis, :], im)[:, 0])


class _SmoothObjective:
    """The smooth objectives of a batch that shares the constraint and the
    penalty operators: per problem the squared-L2-folded quadratic and the
    quartic weights, with value and z-gradient evaluations on stacked (T, M)
    points. ``rows`` picks the problems a (k, M) point belongs to."""

    def __init__(self, specs: list, basis: np.ndarray):
        first = specs[0]
        for term in first.penalties:
            if term.kind not in (PenaltyKind.SQUARED_L2, PenaltyKind.QUARTIC_UNIT):
                raise ValueError(
                    f"smooth_solve accepts SQUARED_L2/QUARTIC_UNIT only, got {term.kind}"
                )
        quartics = [j for j, t in enumerate(first.penalties)
                    if t.kind is PenaltyKind.QUARTIC_UNIT and any(s.penalties[j].weight > 0 for s in specs)]
        self.basis = basis
        self.r_eff = np.stack([_fold_squared_l2(s) for s in specs])
        self.q_ops = [first.penalties[j].operator for j in quartics]
        self.q_adj = [g_op.conj().T for g_op in self.q_ops]
        self.q_wts = np.array([[s.penalties[j].weight for j in quartics] for s in specs], dtype=float).reshape(
            len(specs), len(quartics))

    def parts(self, w: np.ndarray, rows) -> tuple:
        """R_eff w, and G^H w with ||G^H w||^2 for each quartic term."""
        quartic = []
        for g_adj in self.q_adj:
            v = _mv(g_adj, w)
            quartic.append((v, _norms(v) ** 2))
        return _mv(self.r_eff[rows], w), quartic

    def value(self, w: np.ndarray, rows) -> np.ndarray:
        rw, quartic = self.parts(w, rows)
        total = np.real(_mv(w.conj()[:, np.newaxis, :], rw)[:, 0])
        for (_, s), wt in zip(quartic, self.q_wts[rows].T):
            total = total + wt * (s - 1.0) ** 2
        return total

    def gradient(self, w: np.ndarray, rows, parts=None) -> np.ndarray:
        rw, quartic = self.parts(w, rows) if parts is None else parts
        grad_w = 2.0 * rw
        for g_op, (v, s), wt in zip(self.q_ops, quartic, self.q_wts[rows].T):
            grad_w = grad_w + (4.0 * wt * (s - 1.0))[:, np.newaxis] * _mv(g_op, v)
        return _mv(self.basis.conj().T, grad_w)


def smooth_gradient(spec: ProblemSpec, basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Real-geometry gradient of the smooth objective in the eliminated
    variable z (w = w0 + B z).

    Its real and imaginary parts are the partial derivatives of the objective
    with respect to Re(z) and Im(z), so it can be checked coordinate by
    coordinate against central finite differences.
    """
    w = np.asarray(w, dtype=complex).reshape(1, -1)
    return _SmoothObjective([spec], basis).gradient(w, slice(None))[0]


# steps an Armijo search tries in one pass after its full step is rejected
_HALVINGS = 16


def smooth_solve(spec, opts: SolverOptions = SolverOptions(), w_init=None):
    """Descent on the smooth (possibly nonconvex) objective containing
    squared-L2 and quartic (||v||^2 - 1)^2 penalties, for one spec or a
    batch of them.

    ``spec`` is one ProblemSpec, solved as a batch of one and returning one
    SolverResult (``w_init`` is then one start point or None), or a sequence
    of T specs, returning a list of T results (``w_init`` is then None or one
    start point per spec). The specs of a batch must share the constraint
    vector and the penalty operators; their quadratics and penalty weights
    are free. The descent runs on stacked (T, m) arrays, each problem with its
    own step, stopping test and Cholesky factorizations; every product and
    factorization is taken problem by problem, so a problem's iterates do not
    depend on its batch (a batch reproduces single solves bit for bit), and
    a problem leaves the batch when it stops.

    Works in the eliminated variable z. The Wirtinger gradient

        g(z) = B^H [ 2 R_eff w + sum_q 4 gamma (||G^H w||^2 - 1) G G^H w ]

    (R_eff = R with squared-L2 folds) drives Armijo backtracking line search
    (halving, initial step 1). The search direction is -H^-1 g with H a
    Hermitian curvature model refreshed at each iterate (the quadratic-part
    Hessian plus the quartic's complex-linear curvature), falling back to
    the quadratic-only model when the model goes indefinite (its Cholesky
    factorization is the definiteness test); with no quartic terms this is
    an exact Newton step. A problem stops with status CONVERGED when
    ||g|| < smooth_grad_tol, or when an accepted step leaves its z
    bit-for-bit unchanged: from such a fixed point w, f and g repeat
    exactly, so every later iteration would repeat it, and
    ``subgrad_residual`` keeps ||g|| there. A problem whose quadratic-only
    model is not positive definite ends at w0 with status NUMERICAL_FAILURE;
    one whose line search finds no decrease ends at its last iterate with
    that status. The objective sequence is nonincreasing. Returns stationary
    points (not guaranteed to be global minima of a nonconvex spec).
    """
    if isinstance(spec, ProblemSpec):
        return smooth_solve([spec], opts, None if w_init is None else [w_init])[0]
    specs = list(spec)
    if not specs:
        raise ValueError("smooth_solve needs at least one spec")
    first = specs[0]
    if not all(_shares_operators(first, other) for other in specs[1:]):
        raise ValueError("a batch must share the constraint vector and the penalty operators")
    a = first.constraint_vector
    w0, basis = eliminate_constraint(a)
    smooth = _SmoothObjective(specs, basis)
    count = len(specs)
    m = basis.shape[1]
    basis_h = basis.conj().T

    if w_init is None:
        z = np.zeros((count, m), dtype=complex)
    else:
        starts = [np.asarray(w, dtype=complex).ravel() for w in w_init]
        if len(starts) != count:
            raise ValueError(f"smooth_solve needs one w_init per spec, got {len(starts)} for {count}")
        if any(abs(w.conj() @ a - 1.0) > 1e-6 for w in starts):
            raise ValueError("w_init does not satisfy the distortionless constraint")
        z = _mv(basis_h, np.stack(starts) - w0)

    ridge = np.array([_ridge(s.quadratic) for s in specs])
    quad = 2.0 * (basis_h @ smooth.r_eff @ basis) + ridge[:, np.newaxis, np.newaxis] * np.eye(m)
    # Cholesky factors problem by problem, through the LAPACK calls that
    # scipy.linalg.cho_factor/cho_solve make, so a problem's directions do
    # not depend on its batch
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (quad,))
    base = [potrf(mat, lower=False, clean=False) for mat in quad]
    factored = np.array([info == 0 for _, info in base], dtype=bool)
    # z-space Gram matrices of the quartic operators, for the refreshed
    # curvature model below
    p_z = [basis_h @ (g_op @ (g_adj @ basis)) for g_op, g_adj in zip(smooth.q_ops, smooth.q_adj)]

    def directions(g, parts, rows):
        # -H^-1 g with the Hermitian curvature model H of the quartic around
        # the current point, or the quadratic-only factor where H is
        # indefinite
        factors = [base[t][0] for t in rows]
        if smooth.q_ops:
            h = quad[rows]
            for g_op, (v, s), wt, pz in zip(smooth.q_ops, parts[1], smooth.q_wts[rows].T, p_z):
                y = _mv(basis_h, _mv(g_op, v))
                h = h + ((4.0 * wt * (s - 1.0))[:, np.newaxis, np.newaxis] * pz
                         + (8.0 * wt)[:, np.newaxis, np.newaxis] * (y[:, :, np.newaxis] * y.conj()[:, np.newaxis, :]))
            for i, mat in enumerate(h):
                factor, info = potrf(mat, lower=False, clean=False)
                if info == 0:
                    factors[i] = factor
        return -np.array([potrs(factor, rhs, lower=False)[0] for factor, rhs in zip(factors, g)]).reshape(g.shape)

    # results by problem, where one that cannot be factored fails at w0
    w_out = np.tile(w0, (count, 1))
    iters_out = np.zeros(count, dtype=int)
    grad_out = np.full(count, math.inf)
    status_out = [SolverStatus.NUMERICAL_FAILURE] * count

    def finish(rows, idx, w, grad_norm, iters, status):
        for i in idx:
            t = rows[i]
            w_out[t], grad_out[t], iters_out[t], status_out[t] = w[i], grad_norm[i], iters, status

    rows = np.flatnonzero(factored)
    z = z[rows]
    w = w0 + _mv(basis, z)
    f_curr = smooth.value(w, rows)
    for it in range(opts.smooth_max_iters + 1):
        if not rows.size:
            break
        parts = smooth.parts(w, rows)
        g = smooth.gradient(w, rows, parts)
        grad_norm = _norms(g)
        done = grad_norm < opts.smooth_grad_tol
        finish(rows, np.flatnonzero(done), w, grad_norm, it, SolverStatus.CONVERGED)
        if it == opts.smooth_max_iters:
            finish(rows, np.flatnonzero(~done), w, grad_norm, it, SolverStatus.MAX_ITERS)
            break
        if done.all():  # always so with no free coordinate (m = 0)
            break
        # a problem that is done takes this step too, but keeps its result
        direction = directions(g, parts, rows)
        slope = np.real(_mv(g.conj()[:, np.newaxis, :], direction)[:, 0])
        # Armijo backtracking: each problem tries the steps 2^-k, k < 60, in
        # turn and takes the first with sufficient decrease. After a rejected
        # full step, the next _HALVINGS steps of a problem are tried in one
        # pass; each test depends on its own step alone, so the step taken is
        # the one the sequential search takes
        tried = np.zeros(rows.size, dtype=int)
        failed = np.zeros(rows.size, dtype=bool)
        z_new, w_new, f_new = np.empty_like(z), np.empty_like(w), np.empty_like(f_curr)
        pending = np.arange(rows.size)
        width = 1
        while pending.size:
            exponents = tried[pending, np.newaxis] + np.arange(width)
            steps = 0.5 ** exponents
            z_try = z[pending, np.newaxis, :] + steps[:, :, np.newaxis] * direction[pending, np.newaxis, :]
            w_try = w0 + _mv(basis, z_try)
            f_try = smooth.value(w_try.reshape(-1, w.shape[1]), np.repeat(rows[pending], width)).reshape(steps.shape)
            accept = (f_try <= f_curr[pending, np.newaxis] + 1e-4 * steps * slope[pending, np.newaxis]) & (exponents < 60)
            hit = accept.any(axis=1)
            pick = accept.argmax(axis=1)[hit]
            took = pending[hit]
            z_new[took], w_new[took], f_new[took] = (x[hit, pick] for x in (z_try, w_try, f_try))
            tried[pending] += width
            failed[pending[~hit & (tried[pending] >= 60)]] = True
            pending = pending[~hit & (tried[pending] < 60)]
            width = _HALVINGS
        failed &= ~done
        finish(rows, np.flatnonzero(failed), w, grad_norm, it, SolverStatus.NUMERICAL_FAILURE)
        fixed = (z_new == z).all(axis=1) & ~(done | failed)
        finish(rows, np.flatnonzero(fixed), w, grad_norm, it + 1, SolverStatus.CONVERGED)
        going = ~(done | failed | fixed)
        rows, z, w, f_curr = rows[going], z_new[going], w_new[going], f_new[going]

    return [
        SolverResult(
            w=w_out[t],
            objective=objective_value(spec_t, w_out[t]),
            iterations=int(iters_out[t]),
            primal_residual=0.0,
            dual_residual=float(grad_out[t]),
            constraint_residual=abs(w_out[t].conj() @ a - 1.0),
            status=status_out[t],
            subgrad_residual=float(grad_out[t]),
        )
        for t, spec_t in enumerate(specs)
    ]

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
Armijo backtracking preconditioned by the quadratic-part Hessian.

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
        if self.rho <= 0 or self.tol <= 0:
            raise ValueError("rho and tol must be positive")
        if self.smooth_grad_tol <= 0:
            raise ValueError("smooth_grad_tol must be positive")


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
    penalties enter as row weights), so each iteration costs two (T, m) x
    m-by-n products, one batched m x m inverse-times-vector, and the
    row-wise block proxes. The z-system of problem t is
    quad_t + sum_j rho_tj K_j^H K_j, built from the per-block Gram matrices
    when the batch shares its scales. Stops a problem when its absolute
    primal and dual residual norms (in the original, unscaled block units)
    both drop below ``tol``.
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
    lin_a, inv_a, ts_a = (x[active] for x in (lin, inv_sys, prox_ts))
    # forward(z) = S_t K z + S_t c and back(y) = K_t^H diag(rho_t) y for each
    # active problem t; a scale or rho the batch shares folds into K
    if scaled:
        c_a, scale_a = c[active], scale[active]

        def forward(z):
            return (z @ k_t) * scale_a + c_a
    else:
        c_a = c

        def forward(z):
            return z @ k_t + c_a
    if shared_rho:
        k_rho = k_conj * rho_k[0][:, np.newaxis]

        def back(y):
            return y @ k_rho
    else:
        rho_a = rho_k[active]

        def back(y):
            return (rho_a * y) @ k_conj

    term_slices = list(zip(terms, slices))
    z = z[active]
    v = forward(z)
    u = np.zeros_like(v)
    rp = rd = np.full(active.size, math.inf)
    for it in range(1, opts.max_iters + 1):
        if not active.size:
            break
        z = (inv_a @ (back(v - u - c_a) - lin_a)[:, :, np.newaxis])[:, :, 0]
        kzc = forward(z)
        v_old = v
        arg = kzc + u
        blocks = [_prox_block(term.kind, arg[:, sl], ts_a[:, j]) for j, (term, sl) in enumerate(term_slices)]
        v = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        resid = kzc - v
        u = u + resid
        rp = _row_norms(resid)
        rd = _row_norms(back(v - v_old))
        # a problem stops converged or with a non-finite primal residual;
        # while no residual is small or non-finite, none can stop (a test on
        # a list is cheaper than on a short array)
        primal = rp.tolist()
        if min(primal) >= opts.tol and math.isfinite(sum(primal)):
            continue
        stopped = np.where(rp < opts.tol, rd < opts.tol, ~(rp < math.inf))
        if stopped.any():
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


class _SmoothObjective:
    """Cached pieces of the smooth objective: the squared-L2-folded quadratic
    plus the quartic terms, with value and z-gradient evaluations."""

    def __init__(self, spec: ProblemSpec, basis: np.ndarray):
        for term in spec.penalties:
            if term.kind not in (PenaltyKind.SQUARED_L2, PenaltyKind.QUARTIC_UNIT):
                raise ValueError(
                    f"smooth_solve accepts SQUARED_L2/QUARTIC_UNIT only, got {term.kind}"
                )
        quartics = [t for t in spec.penalties if t.kind is PenaltyKind.QUARTIC_UNIT and t.weight > 0]
        self.basis = basis
        self.r_eff = _fold_squared_l2(spec)
        self.q_ops = [t.operator for t in quartics]
        self.q_wts = [t.weight for t in quartics]

    def value(self, w: np.ndarray) -> float:
        total = float(np.real(w.conj() @ (self.r_eff @ w)))
        for g_op, wt in zip(self.q_ops, self.q_wts):
            total += wt * (np.linalg.norm(g_op.conj().T @ w) ** 2 - 1.0) ** 2
        return total

    def gradient(self, w: np.ndarray) -> np.ndarray:
        grad_w = 2.0 * (self.r_eff @ w)
        for g_op, wt in zip(self.q_ops, self.q_wts):
            v = g_op.conj().T @ w
            grad_w += 4.0 * wt * (np.linalg.norm(v) ** 2 - 1.0) * (g_op @ v)
        return self.basis.conj().T @ grad_w


def smooth_gradient(spec: ProblemSpec, basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Real-geometry gradient of the smooth objective in the eliminated
    variable z (w = w0 + B z).

    Its real and imaginary parts are the partial derivatives of the objective
    with respect to Re(z) and Im(z), so it can be checked coordinate by
    coordinate against central finite differences.
    """
    return _SmoothObjective(spec, basis).gradient(w)


def smooth_solve(
    spec: ProblemSpec,
    opts: SolverOptions = SolverOptions(),
    w_init: np.ndarray | None = None,
) -> SolverResult:
    """Descent on the smooth (possibly nonconvex) objective containing
    squared-L2 and quartic (||v||^2 - 1)^2 penalties.

    Works in the eliminated variable z. The Wirtinger gradient

        g(z) = B^H [ 2 R_eff w + sum_q 4 gamma (||G^H w||^2 - 1) G G^H w ]

    (R_eff = R with squared-L2 folds) drives Armijo backtracking line search
    (halving, initial step 1). The search direction is -H^-1 g with H a
    Hermitian curvature model refreshed at each iterate (the quadratic-part
    Hessian plus the quartic's complex-linear curvature), falling back to
    the quadratic-only factor when the model goes indefinite; with no
    quartic terms this is an exact Newton step. Stops with status CONVERGED
    when ||g|| < smooth_grad_tol, or when an accepted step leaves z
    bit-for-bit unchanged: from such a fixed point w, f and g repeat exactly,
    so every later iteration would repeat it, and ``subgrad_residual`` keeps
    ||g|| there. The objective sequence is nonincreasing. Returns a
    stationary point (not guaranteed to be the global minimum of a nonconvex
    spec).
    """
    a = spec.constraint_vector
    w0, basis = eliminate_constraint(a)
    m = basis.shape[1]
    smooth = _SmoothObjective(spec, basis)

    if w_init is None:
        z = np.zeros(m, dtype=complex)
    else:
        w_init = np.asarray(w_init, dtype=complex).ravel()
        if abs(w_init.conj() @ a - 1.0) > 1e-6:
            raise ValueError("w_init does not satisfy the distortionless constraint")
        z = basis.conj().T @ (w_init - w0)

    quad = 2.0 * (basis.conj().T @ smooth.r_eff @ basis) + _ridge(spec.quadratic) * np.eye(m)
    try:
        base_factor = scipy.linalg.cho_factor(quad) if m else None
    except scipy.linalg.LinAlgError:
        return SolverResult(
            w=w0, objective=objective_value(spec, w0), iterations=0,
            primal_residual=0.0, dual_residual=math.inf,
            constraint_residual=abs(w0.conj() @ a - 1.0),
            status=SolverStatus.NUMERICAL_FAILURE, subgrad_residual=math.inf,
        )
    # z-space Gram matrices of the quartic operators, for the refreshed
    # curvature model below
    p_z = [basis.conj().T @ (g_op @ (g_op.conj().T @ basis)) for g_op in smooth.q_ops]

    def direction_for(g, w):
        if m == 0:
            return np.zeros(0, dtype=complex)
        # Hermitian curvature model of the quartic around the current point;
        # falls back to the quadratic-only factor when indefinite
        if smooth.q_ops:
            h = quad.copy()
            for g_op, wt, pz in zip(smooth.q_ops, smooth.q_wts, p_z):
                v = g_op.conj().T @ w
                s = float(np.linalg.norm(v) ** 2)
                y = basis.conj().T @ (g_op @ v)
                h += 4.0 * wt * (s - 1.0) * pz + 8.0 * wt * np.outer(y, y.conj())
            try:
                return -scipy.linalg.cho_solve(scipy.linalg.cho_factor(h), g)
            except scipy.linalg.LinAlgError:
                pass
        return -scipy.linalg.cho_solve(base_factor, g)

    w = w0 + basis @ z
    f_curr = smooth.value(w)
    status = SolverStatus.MAX_ITERS
    iters = opts.smooth_max_iters
    grad_norm = math.inf

    for it in range(opts.smooth_max_iters + 1):
        g = smooth.gradient(w)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm < opts.smooth_grad_tol:
            status = SolverStatus.CONVERGED
            iters = it
            break
        if it == opts.smooth_max_iters:
            break
        direction = direction_for(g, w)
        slope = float(np.real(g.conj() @ direction))
        step = 1.0
        for _ in range(60):
            z_new = z + step * direction
            w_new = w0 + basis @ z_new
            f_new = smooth.value(w_new)
            if f_new <= f_curr + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            status = SolverStatus.NUMERICAL_FAILURE
            iters = it
            break
        if np.array_equal(z_new, z):
            status = SolverStatus.CONVERGED
            iters = it + 1
            break
        z, w, f_curr = z_new, w_new, f_new

    return SolverResult(
        w=w,
        objective=objective_value(spec, w),
        iterations=iters,
        primal_residual=0.0,
        dual_residual=grad_norm,
        constraint_residual=abs(w.conj() @ a - 1.0),
        status=status,
        subgrad_residual=grad_norm,
    )

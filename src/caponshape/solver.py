"""
Equality-constrained composite solver for beamformer design problems

    minimize_w   w^H R w + sum_j gamma_j * h_j(G_j^H w)
    subject to   w^H a = 1

with R Hermitian PSD and h_j drawn from a small penalty vocabulary (L1,
Linf, group-L2, squared-L2, and the quartic (||v||^2 - 1)^2 term).

The affine constraint is eliminated exactly: w = w0 + B z with w0 = a/||a||^2
and B an orthonormal basis of a's orthogonal complement, so every iterate is
feasible to machine precision. Nonsmooth penalties are handled by scaled ADMM
over the stacked operator K = [G_j^H B]; the quartic term takes a smooth
descent path with Armijo backtracking preconditioned by the quadratic-part
Hessian.

Gradients follow the real-geometry (Wirtinger, factor-2) convention: for
f(z) = z^H M z + 2 Re(b^H z) the gradient is 2(Mz + b), which is exactly the
vector of partial derivatives with respect to the real and imaginary parts.
The z-update system therefore reads (2 B^H R B + ridge I + rho K^H K) z = rhs;
this pins the fixed point to the stated objective (a system without the 2
would double-count the penalties relative to the quadratic).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class PenaltyTerm:
    """One term gamma * h(G^H w). ``operator`` is G (M x q complex).

    For GROUP_L2, ``groups`` partitions the q indices of v = G^H w; the
    default is a single group spanning all of v.
    """

    operator: np.ndarray
    kind: PenaltyKind
    weight: float
    groups: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"penalty weight must be >= 0, got {self.weight}")
        op = np.asarray(self.operator)
        if op.ndim != 2:
            raise ValueError(f"penalty operator must be a matrix, got shape {op.shape}")
        if self.kind is PenaltyKind.GROUP_L2:
            if self.groups is None:
                object.__setattr__(self, "groups", (np.arange(op.shape[1]),))
            else:
                groups = tuple(np.asarray(g).ravel() for g in self.groups)
                flat = np.concatenate(groups) if groups else np.array([])
                if (
                    flat.size != op.shape[1]
                    or np.unique(flat).size != flat.size
                    or np.union1d(flat, np.arange(op.shape[1])).size != op.shape[1]
                ):
                    raise ValueError("GROUP_L2 groups must partition the operator's columns")
                object.__setattr__(self, "groups", groups)

    def value(self, v: np.ndarray) -> float:
        """h(v) for this term's kind (without the gamma factor)."""
        if self.kind is PenaltyKind.L1:
            return float(np.abs(v).sum())
        if self.kind is PenaltyKind.LINF:
            return float(np.abs(v).max()) if v.size else 0.0
        if self.kind is PenaltyKind.GROUP_L2:
            return float(sum(np.linalg.norm(v[g]) for g in self.groups))
        if self.kind is PenaltyKind.SQUARED_L2:
            return float(np.linalg.norm(v) ** 2)
        if self.kind is PenaltyKind.QUARTIC_UNIT:
            return float((np.linalg.norm(v) ** 2 - 1.0) ** 2)
        raise AssertionError(self.kind)


_PROX_FRIENDLY = (PenaltyKind.L1, PenaltyKind.LINF, PenaltyKind.GROUP_L2)


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
    rho: float = 1.0
    max_iters: int = 5000
    tol_primal: float = 1e-7
    tol_dual: float = 1e-7
    ridge: float | None = None  # None -> 1e-10 * trace(R)/M
    smooth_max_iters: int = 2000
    smooth_grad_tol: float = 1e-8
    keep_trace: bool = False

    def __post_init__(self):
        if self.rho <= 0 or self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("rho and tolerances must be positive")
        if self.ridge is not None and self.ridge < 0:
            raise ValueError("ridge must be >= 0")
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
    trace: tuple | None = field(default=None, repr=False)


def objective_value(spec: ProblemSpec, w: np.ndarray) -> float:
    """Total objective w^H R w + sum_j gamma_j h_j(G_j^H w)."""
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


def _resolve_ridge(opts: SolverOptions, r: np.ndarray) -> float:
    if opts.ridge is not None:
        return opts.ridge
    return 1e-10 * float(np.real(np.trace(r))) / r.shape[0]


def _fold_squared_l2(spec: ProblemSpec) -> np.ndarray:
    """Quadratic matrix with gamma * ||G^H w||^2 penalties absorbed."""
    r = spec.quadratic
    for term in spec.penalties:
        if term.kind is PenaltyKind.SQUARED_L2 and term.weight > 0:
            g = term.operator
            r = r + term.weight * (g @ g.conj().T)
    return r


def _prox_block(kind: PenaltyKind, v: np.ndarray, t: float, groups) -> np.ndarray:
    if kind is PenaltyKind.L1:
        return prox_l1(v, t)
    if kind is PenaltyKind.LINF:
        return prox_linf(v, t)
    if kind is PenaltyKind.GROUP_L2:
        # partition already validated by PenaltyTerm
        return group_shrink(v, groups, t)
    raise AssertionError(kind)


def admm_solve(spec: ProblemSpec, opts: SolverOptions = SolverOptions()) -> SolverResult:
    """Solve a convex spec (no quartic term) by scaled ADMM after constraint
    elimination.

    Squared-L2 penalties are folded into the quadratic; each remaining
    penalty j becomes a split variable v_j = K_j z + c_j with K_j = G_j^H B,
    c_j = G_j^H w0. The splitting penalty for block j is rho * gamma_j *
    sigma_j with sigma_j = ||K_j||_2, which makes the iteration behavior
    invariant to rescaling any penalty weight or operator (these penalties
    are positively 1-homogeneous); rho is just the overall multiplier. The
    fixed point does not depend on this choice. Blocks are stacked into one
    operator so each iteration costs two small mat-vecs, the blockwise
    proxes, and one cached triangular solve. Stops when the absolute primal
    and dual residual norms (in the original, unscaled block units) drop
    below tol_primal / tol_dual.
    """
    if spec.is_smooth_nonconvex:
        raise ValueError("admm_solve handles convex specs only; use smooth_solve")
    for term in spec.penalties:
        if term.kind not in _PROX_FRIENDLY and term.kind is not PenaltyKind.SQUARED_L2:
            raise ValueError(f"unsupported penalty kind for admm_solve: {term.kind}")

    a = spec.constraint_vector
    w0, basis = eliminate_constraint(a)
    r_eff = _fold_squared_l2(spec)
    ridge = _resolve_ridge(opts, spec.quadratic)
    rho = opts.rho

    terms = [t for t in spec.penalties if t.kind in _PROX_FRIENDLY and t.weight > 0]

    def finish(z, iters, rp, rd, status, cert, trace):
        w = w0 + basis @ z
        return SolverResult(
            w=w,
            objective=objective_value(spec, w),
            iterations=iters,
            primal_residual=rp,
            dual_residual=rd,
            constraint_residual=abs(w.conj() @ a - 1.0),
            status=status,
            subgrad_residual=cert,
            trace=tuple(trace) if trace is not None else None,
        )

    m = basis.shape[1]
    quad = 2.0 * (basis.conj().T @ r_eff @ basis) + ridge * np.eye(m)
    lin = 2.0 * (basis.conj().T @ (r_eff @ w0))

    # the unpenalized optimum: the answer when no penalty is active, and the
    # warm start (zero if quad is not factorable) when one is
    try:
        z = scipy.linalg.cho_solve(scipy.linalg.cho_factor(quad), -lin) if m else np.zeros(0, dtype=complex)
    except scipy.linalg.LinAlgError:
        if not terms:
            return finish(np.zeros(m, dtype=complex), 0, math.inf, math.inf,
                          SolverStatus.NUMERICAL_FAILURE, math.inf, None)
        z = np.zeros(m, dtype=complex)
    if not terms or m == 0:
        cert = float(np.linalg.norm(quad @ z + lin)) if m else 0.0
        return finish(z, 0, 0.0, 0.0, SolverStatus.CONVERGED, cert, None)

    # stacked penalty operator with per-block splitting penalties
    k_blocks = [t.operator.conj().T @ basis for t in terms]
    c_blocks = [t.operator.conj().T @ w0 for t in terms]
    sizes = [kb.shape[0] for kb in k_blocks]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(terms))]
    k_mat = np.vstack(k_blocks)
    k_h = k_mat.conj().T
    c_vec = np.concatenate(c_blocks)

    sigmas = [float(np.linalg.norm(kb, 2)) for kb in k_blocks]
    block_rho = [rho * t.weight * (s if s > 0 else 1.0) for t, s in zip(terms, sigmas)]
    rho_row = np.concatenate(
        [np.full(size, br) for size, br in zip(sizes, block_rho)]
    )
    k_h_rho = k_h * rho_row[np.newaxis, :]

    try:
        factor = scipy.linalg.cho_factor(quad + k_h_rho @ k_mat)
    except scipy.linalg.LinAlgError:
        return finish(np.zeros(m, dtype=complex), 0, math.inf, math.inf,
                      SolverStatus.NUMERICAL_FAILURE, math.inf, None)

    v = k_mat @ z + c_vec
    u = np.zeros_like(v)
    trace = [] if opts.keep_trace else None

    prox_ts = [t.weight / br for t, br in zip(terms, block_rho)]
    rp = rd = math.inf
    status = SolverStatus.MAX_ITERS
    iters = opts.max_iters
    for it in range(1, opts.max_iters + 1):
        z = scipy.linalg.cho_solve(factor, k_h_rho @ (v - u - c_vec) - lin, check_finite=False)
        kzc = k_mat @ z + c_vec
        v_old = v
        arg = kzc + u
        v = np.empty_like(arg)
        for term, sl, t_j in zip(terms, slices, prox_ts):
            v[sl] = _prox_block(term.kind, arg[sl], t_j, term.groups)
        resid = kzc - v
        u = u + resid
        rp = float(np.linalg.norm(resid))
        rd = float(np.linalg.norm(k_h_rho @ (v - v_old)))
        if trace is not None:
            trace.append((it, rp, rd))
        if rp < opts.tol_primal and rd < opts.tol_dual:
            status = SolverStatus.CONVERGED
            iters = it
            break
        if not math.isfinite(rp):
            status = SolverStatus.NUMERICAL_FAILURE
            iters = it
            break

    # stationarity certificate from the splitting duals:
    # rho_j * u_j in gamma_j * dh_j(v_j)
    cert = float(np.linalg.norm(quad @ z + lin + k_h_rho @ u))
    return finish(z, iters, rp, rd, status, cert, trace)


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
    quartic terms this is an exact Newton step. Stops when
    ||g|| < smooth_grad_tol; the objective sequence is nonincreasing.
    Returns a stationary point (not guaranteed to be the global minimum of a
    nonconvex spec).
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

    ridge = _resolve_ridge(opts, spec.quadratic)
    quad = 2.0 * (basis.conj().T @ smooth.r_eff @ basis) + ridge * np.eye(m)
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
    trace = [] if opts.keep_trace else None
    status = SolverStatus.MAX_ITERS
    iters = opts.smooth_max_iters
    grad_norm = math.inf

    for it in range(opts.smooth_max_iters + 1):
        g = smooth.gradient(w)
        grad_norm = float(np.linalg.norm(g))
        if trace is not None:
            trace.append((it, f_curr, grad_norm))
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
        trace=tuple(trace) if trace is not None else None,
    )

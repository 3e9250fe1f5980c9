"""
Equality-constrained composite solver for beamformer design problems

    minimize_w   w^H R w + sum_j gamma_j * h_j(G_j^H w)
    subject to   w^H a = 1

with R Hermitian PSD and h_j drawn from a small penalty vocabulary (L1,
Linf, group-L2, squared-L2, and the quartic (||v||^2 - 1)^2 term).

The affine constraint is eliminated exactly: w = w0 + B z with w0 = a/||a||^2
and B an orthonormal basis of a's orthogonal complement, so every iterate is
feasible to machine precision. A stack of Hermitian matrices is tested for
positive definiteness in one place, ``_definite``, and solved in one,
``cholesky_solve``: the solvers' unpenalized start and the interior-point
Newton systems solve through it, the latter with the flags of one test per
iteration, which its two solves share. The nonsmooth penalties (L1, LINF,
group-L2) make the problem a second-order cone program, which cone_solve
solves by a primal-dual interior-point method over the stacked operator
K = [G_j^H B]; admm_solve solves the same problems by scaled ADMM over K,
and is the one of the two that takes a per-problem column scale. The
quartic term makes the problem nonconvex; smooth_solve finds its global
minimizer from one eigendecomposition per problem and the root of a scalar
secular equation.

The batch contract, the same for all three solvers: each takes one problem,
as a batch of one, or a batch of problems that share the constraint and the
penalty operators. One record, ``_Batch``, carries a batch from its front
end to its results. Its front end checks and eliminates the batch and is
the one reader of its specs: the quadratics, one (T, J) weight matrix and
each term's per-problem column scales. Each problem runs the iteration it
would run alone and leaves the batch when it stops; the record keeps its z,
iterations, certificate and status, and forms its result at w = w0 + B z.
The two iterative loops drop a stopped problem through one method of the
record, ``leave``. A problem that never starts, because its quadratic (or
ADMM's z-system) is not positive definite, fails at w0 after 0 iterations
with an infinite certificate. Every other problem starts where the front end
puts it: at the unpenalized optimum, the minimizer of w^H R_eff w on the
constraint (R_eff is R with the squared-L2 penalties folded in).

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
    "cholesky_solve",
    "admm_solve",
    "cone_solve",
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
    """One term gamma * h(s * G^H w). ``operator`` is G, a finite complex
    M x q matrix, kept as an array (the same object when given one).

    ``scale`` is an optional positive length-q column weight s of an L1 term
    (default all ones), kept apart from G so that problems differing only in
    s share one stacked ADMM operator. GROUP_L2 is the norm of all of G^H w.
    """

    operator: np.ndarray
    kind: PenaltyKind
    weight: float
    scale: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.kind, PenaltyKind):
            raise ValueError(f"penalty kind must be a PenaltyKind, got {self.kind!r}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"penalty weight must be finite and >= 0, got {self.weight}")
        op = np.asarray(self.operator)
        if op.ndim != 2 or not np.isfinite(op).all():
            raise ValueError(f"penalty operator must be a finite matrix, got shape {op.shape}")
        object.__setattr__(self, "operator", op)
        if self.scale is not None:
            scale = np.asarray(self.scale, dtype=float)
            if self.kind is not PenaltyKind.L1:
                raise ValueError(f"a column scale applies to L1 terms only, not {self.kind}")
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

    The quadratic matrix is Hermitian-symmetrized on construction. The
    constraint vector is kept as a 1-D complex array (the same object when
    given one), so specs built from one vector share it.
    """

    quadratic: np.ndarray
    constraint_vector: np.ndarray
    penalties: tuple[PenaltyTerm, ...] = ()

    def __post_init__(self):
        r = np.asarray(self.quadratic, dtype=complex)
        a = np.asarray(self.constraint_vector, dtype=complex)
        a = a if a.ndim == 1 else a.ravel()
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
            if term.operator.shape[0] != a.size:
                raise ValueError("penalty operator row count does not match w's length")

    @property
    def is_smooth_nonconvex(self) -> bool:
        return any(t.kind is PenaltyKind.QUARTIC_UNIT for t in self.penalties)


@dataclass(frozen=True)
class SolverOptions:
    """``max_iters`` caps every solver: ADMM and interior-point iterations,
    and the smooth path's root steps. ``tol`` is ADMM's alone: it stops a
    problem when both its primal and dual residual norms are below it. The
    interior-point and smooth paths stop on fixed relative tests instead
    (``cone_solve`` and ``smooth_solve`` say which)."""

    max_iters: int = 5000
    tol: float = 1e-7

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real) or not (
            math.isfinite(self.tol) and self.tol > 0
        ):
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True, eq=False)
class SolverResult:
    """``dual_residual`` is the solver's certificate: the interior-point
    relative duality gap, ADMM's dual residual at its last iteration (0 for a
    problem with no active penalty in either), or the smooth path's gradient
    norm."""

    w: np.ndarray
    iterations: int
    dual_residual: float
    constraint_residual: float
    status: SolverStatus


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


def _definite(mats: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (T, m, m) Hermitian stack is finite and
    positive definite: whether its Cholesky factorization succeeds, tried on
    the whole stack at once and, if a slice fails, slice by slice."""
    ok = np.isfinite(mats).all(axis=(1, 2))
    if ok.all():
        try:
            np.linalg.cholesky(mats)
            return ok
        except np.linalg.LinAlgError:
            pass
    for t in np.flatnonzero(ok):
        try:
            np.linalg.cholesky(mats[t])
        except np.linalg.LinAlgError:
            ok[t] = False
    return ok


def cholesky_solve(mats: np.ndarray, rhs: np.ndarray, ok: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Solve mats[t] x[t] = rhs[t] for a (T, m, m) Hermitian (complex) or
    symmetric (real) stack and its (T, m) right-hand sides: the definiteness
    test of ``_definite``, or its flags ``ok`` from an earlier call on the
    same stack, then one stacked LAPACK solve in which a failed matrix is
    swapped for the identity. Returns x, NaN where a matrix is not finite
    and positive definite, and whether each is. LAPACK solves each slice on
    its own, so a batch reproduces single solves bit for bit."""
    if ok is None:
        ok = _definite(mats)
    if not ok.all():
        mats = np.where(ok[:, np.newaxis, np.newaxis], mats, np.eye(mats.shape[-1]))
    # a 2-D right-hand side would read as one (m, K) matrix when T == m
    x = np.linalg.solve(mats, rhs[..., np.newaxis])[..., 0]
    x[~ok] = np.nan
    return x, ok


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex (T, n) array whose rows are
    contiguous."""
    flat = x.view(float)
    return np.sqrt(flat[:, np.newaxis, :] @ flat[:, :, np.newaxis])[:, 0, 0]


def _real_form(mat: np.ndarray) -> np.ndarray:
    """The real 2p x 2q matrix of a complex p x q matrix (or a stack of
    them), for ``_times``."""
    out = np.empty(mat.shape[:-2] + (2 * mat.shape[-2], 2 * mat.shape[-1]))
    out[..., 0::2, 0::2] = out[..., 1::2, 1::2] = mat.real
    out[..., 0::2, 1::2] = mat.imag
    out[..., 1::2, 0::2] = -mat.imag
    return out


def _times(x: np.ndarray, real_form: np.ndarray) -> np.ndarray:
    """x @ mat for complex rows x with contiguous entries, as one real GEMM
    on the interleaved real and imaginary parts."""
    return (x.view(float) @ real_form).view(complex)


def _mv(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of x times its own matrix, or times one shared matrix, as a
    stacked product taken problem by problem, so that a problem's result does
    not depend on the batch it is part of."""
    return (mats @ x[..., np.newaxis])[..., 0]


class _Batch:
    """A batch from its front end to its results: the one reader of the
    batch's specs, and the record of each problem's outcome.

    The front end, the constructor, takes the specs as a list, checked to be
    nonempty and to share the constraint vector and the penalty terms up to
    each term's weight and column scale. It keeps the shared ``terms``; the
    (T, J) matrix of their ``weights``; ``w0`` and ``basis`` (B) of the
    shared constraint; ``r_eff``, the (T, M, M) stack of the quadratics plus
    each squared-L2 term's G G^H (formed once) times its weight; ``quad``,
    the z-space quadratics 2 B^H R_eff B + ridge I with ridge = 1e-10 *
    trace(R)/M per problem; ``lin`` = 2 B^H R_eff w0; each problem's
    ``start``, quad z = -lin (0 where quad is not positive definite), and
    whether its quad is (``factored``); and whether any problem gives a term
    a column scale (``scaled``). lin and the starts are taken problem by
    problem.

    A problem's outcome is its z, iterations, certificate and status. Every
    problem starts out failed at w0: z = 0, 0 iterations, certificate inf
    and NUMERICAL_FAILURE, the outcome of a problem that is never stopped."""

    def __init__(self, spec, solver: str):
        specs = list(spec)
        if not specs:
            raise ValueError(f"{solver} needs at least one spec")
        first = specs[0]
        for other in specs[1:]:
            if not (
                (first.constraint_vector is other.constraint_vector
                 or np.array_equal(first.constraint_vector, other.constraint_vector))
                and len(first.penalties) == len(other.penalties)
                and all(x.kind is y.kind and (x.operator is y.operator or np.array_equal(x.operator, y.operator))
                        for x, y in zip(first.penalties, other.penalties))
            ):
                raise ValueError("a batch must share the constraint vector and the penalty operators")
        self.solver, self.specs, self.terms = solver, specs, first.penalties
        self.scaled = any(t.scale is not None for s in specs for t in s.penalties)
        self.weights = np.array([[t.weight for t in s.penalties] for s in specs], dtype=float)
        w0, basis = eliminate_constraint(first.constraint_vector)
        self.w0, self.basis = w0, basis
        r_eff = np.stack([s.quadratic for s in specs])
        ridge = 1e-10 * np.real(np.trace(r_eff, axis1=1, axis2=2)) / r_eff.shape[1]
        for j, term in enumerate(self.terms):
            if term.kind is PenaltyKind.SQUARED_L2:
                rows = self.weights[:, j] > 0
                r_eff[rows] += self.weights[rows, j, np.newaxis, np.newaxis] * (term.operator @ term.operator.conj().T)
        self.r_eff = r_eff
        self.quad = 2.0 * (basis.conj().T @ r_eff @ basis) + ridge[:, np.newaxis, np.newaxis] * np.eye(basis.shape[1])
        self.lin = 2.0 * _mv(basis.conj().T, _mv(r_eff, w0))
        self.start, self.factored = cholesky_solve(self.quad, -self.lin)
        self.start[~self.factored] = 0.0
        self.z = np.zeros((len(specs), basis.shape[1]), dtype=complex)
        self.iterations = np.zeros(len(specs), dtype=int)
        self.certificate = np.full(len(specs), math.inf)
        self.status = np.full(len(specs), SolverStatus.NUMERICAL_FAILURE, dtype=object)

    def scale(self, j: int) -> np.ndarray:
        """The (T, q) column scales of term j, ones for a problem that gives
        it none."""
        ones = np.ones(self.terms[j].operator.shape[1])
        return np.stack([ones if s.penalties[j].scale is None else s.penalties[j].scale for s in self.specs])

    def convex(self) -> tuple[list, np.ndarray]:
        """Check that the batch holds L1, LINF, GROUP_L2 and SQUARED_L2 terms
        only, and return the indices of the active terms (L1, LINF or
        GROUP_L2 terms with an operator column and a positive weight in some
        problem), in spec order, and whether each problem is left to iterate
        on (a positive weight on one of them and a free coordinate). Every
        other problem ends at its start after 0 iterations with certificate
        0, or stays failed at w0 where its quad is not positive definite."""
        if self.specs[0].is_smooth_nonconvex:
            raise ValueError(f"{self.solver} handles convex specs only; use smooth_solve")
        active_terms = [j for j, t in enumerate(self.terms)
                        if t.kind in _PROX_FRIENDLY and t.operator.shape[1] and (self.weights[:, j] > 0).any()]
        pending = (self.weights[:, active_terms] > 0).any(axis=1) & (self.basis.shape[1] > 0)
        done = np.flatnonzero(self.factored & ~pending)
        self.stop(done, self.start[done], 0, 0.0, SolverStatus.CONVERGED)
        return active_terms, pending

    def stop(self, rows, z, iterations, certificate, status) -> None:
        """Record that the problems ``rows`` stopped at ``z``; ``status`` is
        one SolverStatus, or one per row."""
        self.z[rows], self.iterations[rows], self.certificate[rows] = z, iterations, certificate
        self.status[rows] = status

    def leave(self, stop: np.ndarray, iterations: int, certificate, status, rows, z, *arrays) -> list:
        """The one way a problem leaves a solver's loop: record that the
        problems ``rows[stop]`` of the loop stopped at z[stop] after
        ``iterations``, with their entries of ``certificate`` and ``status``
        (one per problem of the loop), and return the rows that go on of
        ``rows``, ``z`` and each of ``arrays``, the loop's other per-problem
        arrays."""
        self.stop(rows[stop], z[stop], iterations, certificate[stop], status[stop])
        keep = ~stop
        return [x[keep] for x in (rows, z, *arrays)]

    def results(self) -> list:
        """One SolverResult per spec, at w = w0 + B z."""
        w = self.w0 + _mv(self.basis, self.z)
        return [SolverResult(w=w[t], iterations=int(self.iterations[t]), dual_residual=float(self.certificate[t]),
                             constraint_residual=abs(w[t].conj() @ s.constraint_vector - 1.0), status=self.status[t])
                for t, s in enumerate(self.specs)]


# the overall multiplier of admm_solve's splitting penalties
_RHO = 2.0
# admm_solve takes back(u) by its product, not by its running sum, on every
# _REFRESH-th iteration, so that the sum's rounding does not accumulate
_REFRESH = 32


def admm_solve(spec, opts: SolverOptions = SolverOptions()):
    """Solve a convex spec (no quartic term), or a batch of them, by scaled
    ADMM after constraint elimination.

    ``spec`` is one ProblemSpec, returning one SolverResult, or a sequence
    of T specs, returning a list of T results, under the batch contract of
    this module; the quadratics, penalty weights and column scales of a
    batch are free. Each problem has its own factorization, residuals and
    stopping test. A problem with no active penalty (weight > 0 on an
    operator with a column, squared-L2 aside) ends at the unpenalized
    optimum after 0 iterations, as it does alone.

    Squared-L2 penalties are folded into the quadratic; each remaining
    penalty j becomes a split variable v_j = S_j K_j z + S_j c_j with
    K_j = G_j^H B, c_j = G_j^H w0 and S_j = diag(scale_j). The splitting
    penalty for block j is rho * gamma_j * sigma_j with
    sigma_j = ||S_j K_j||_2, which makes the iteration behavior invariant to
    rescaling any penalty weight or operator (these penalties are positively
    1-homogeneous); rho is a fixed overall multiplier of 2, and a block of
    weight 0 gets splitting penalty and prox threshold 0, which leaves it
    inert. The fixed point does not depend on this choice. Blocks are
    stacked into one operator K shared by the batch (per-problem scales and
    splitting penalties enter as row weights). The z-system of problem t is
    quad_t + gram_t with gram_t = (S_t K)^H diag(rho_t) (S_t K), one Gram
    matrix per problem. Writing back(y) = (S_t K)^H diag(rho_t) y, the loop
    carries back(v) and back(u) in z-space: the z-update's right-hand side
    is back(v) - back(u) - back(c) - lin, with back(c) folded into the
    linear term once, and u+ = u + K z + c - v+ advances back(u) by
    gram_t z + back(c) - back(v+). So each iteration costs two (T, m) x
    m-by-n products, K z and the one back-product back(v), two batched
    m x m matrix-times-vector products (the inverted z-system and gram_t),
    and the row-wise block proxes; the products run as real GEMMs on the
    interleaved real and imaginary parts. Every 32nd iteration takes
    back(u) by its product instead of the running sum, so that the sum's
    rounding does not accumulate (residual replacement). The z-systems are
    inverted once per call, since every iteration applies them again. The
    dual residual K^H diag(rho) (v+ - v) is the difference of two
    consecutive back(v), taken only on an iteration where some problem's
    primal residual is below ``tol`` or non-finite (only such a problem can
    stop) and on the cap iteration. Stops a problem when its absolute primal
    and dual residual norms (in the original, unscaled block units) both
    drop below ``tol``.

    The dual residual is also the stationarity certificate: with
    u+ = u + K z+ + c - v+, the z-update gives quad z+ + lin + K^H diag(rho)
    u+ = K^H diag(rho) (v - v+) (Boyd et al. 2011, "Distributed Optimization
    and Statistical Learning via ADMM", sec. 3.3).
    """
    if isinstance(spec, ProblemSpec):
        return admm_solve([spec], opts)[0]
    # the unpenalized optimum z is the answer for a problem with no active
    # penalty, and the warm start otherwise
    batch = _Batch(spec, "admm_solve")
    active_terms, pending = batch.convex()
    if not pending.any():
        return batch.results()

    # stacked penalty operator shared by the batch, with per-problem column
    # scales and per-block splitting penalties
    terms, weights = [batch.terms[j] for j in active_terms], batch.weights[:, active_terms]
    sizes = [t.operator.shape[1] for t in terms]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(terms))]
    k_mat = np.vstack([t.operator.conj().T @ batch.basis for t in terms])
    k_conj = k_mat.conj()
    scale = np.concatenate([batch.scale(j) for j in active_terms], axis=1)
    sigmas = np.stack([np.linalg.norm(scale[:, sl, np.newaxis] * k_mat[sl], 2, axis=(1, 2)) for sl in slices],
                      axis=1)
    c = scale * np.concatenate([t.operator.conj().T @ batch.w0 for t in terms])
    block_rho = _RHO * weights * np.where(sigmas > 0, sigmas, 1.0)
    prox_ts = np.divide(weights, block_rho, out=np.zeros_like(weights), where=block_rho > 0)
    # splitting penalty per operator row, times the scale: for problem t's
    # operator K_t = S_t K, K_t^H diag(rho_t) y = K^H (scale * rho * y), and
    # its z-system takes K_t^H diag(rho_t) K_t, one m x n product at a time
    rho_k = np.repeat(block_rho, sizes, axis=1) * scale
    gram = np.stack([(k_conj.T * weight) @ k_mat for weight in rho_k * scale])
    system = batch.quad + gram
    # the loop runs on the rows of the problems still active; one whose
    # z-system is not positive definite fails at w0
    active = np.flatnonzero(_definite(system) & pending)
    # forward(z) = S_t K z + S_t c and back(y) = K_t^H diag(rho_t) y for each
    # active problem t, as real GEMMs
    k_fwd = _real_form(k_mat.T)
    k_back = _real_form(k_conj)

    def forward(z):
        return _times(z, k_fwd) * scale_a + c_a

    def back(y):
        return _times(rho_a * y, k_back)

    rho_a, scale_a, c_a = (x[active] for x in (rho_k, scale, c))
    # bv = back(v) and bu = back(u), carried in z-space (see above)
    bc_a = back(c_a)
    # the loop's per-problem arrays that no iteration changes, ending in one
    # threshold column per term
    fixed = [np.linalg.inv(system[active]), gram[active], batch.lin[active] + bc_a, bc_a, rho_a, scale_a, c_a,
             *(prox_ts[active, j] for j in range(len(terms)))]
    term_slices = list(zip(terms, slices))
    z = batch.start[active]
    v = forward(z)
    u = np.zeros_like(v)
    bv, bu = back(v), np.zeros_like(z)
    for it in range(1, opts.max_iters + 1):
        if not active.size:
            break
        inv_a, gram_a, lin_a, bc_a, rho_a, scale_a, c_a, *ts_a = fixed
        z = _mv(inv_a, bv - bu - lin_a)
        kzc = forward(z)
        arg = kzc + u
        blocks = [_prox_block(term.kind, arg[:, sl], t) for t, (term, sl) in zip(ts_a, term_slices)]
        v = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        kzc -= v
        u += kzc
        rp = _row_norms(kzc)
        bv_old, bv = bv, back(v)
        if it % _REFRESH:
            bu += _mv(gram_a, z)
            bu += bc_a
            bu -= bv
        else:
            bu = back(u)
        # a problem can stop only when its primal residual is small
        # (converged, if the dual residual is small too) or non-finite, so the
        # dual residual bv - bv_old is taken only on an iteration where some
        # problem's is, and on the cap iteration, where every problem stops
        # (tests on lists are cheaper than on short arrays)
        primal = rp.tolist()
        if it < opts.max_iters and min(primal) >= opts.tol and math.isfinite(sum(primal)):
            continue
        rd = _row_norms(bv - bv_old)
        stopped = [d < opts.tol if p < opts.tol else not p < math.inf for p, d in zip(primal, rd.tolist())]
        if it == opts.max_iters or any(stopped):
            stopped = np.array(stopped)
            status = np.where(stopped, np.where(rp < opts.tol, SolverStatus.CONVERGED, SolverStatus.NUMERICAL_FAILURE),
                              SolverStatus.MAX_ITERS)
            active, z, u, bv, bu, *fixed = batch.leave(stopped | (it == opts.max_iters), it, rd, status,
                                                       active, z, u, bv, bu, *fixed)
    return batch.results()


# relative duality gap at which cone_solve stops a problem
_GAP_TOL = 1e-9
# fraction of the step to the cone boundary that cone_solve takes
_STEP_FRACTION = 0.99
# a cone_solve step shorter than this is a stall
_MIN_STEP = 1e-8
# halvings of a step whose end is not strictly inside every cone
_PULLBACKS = 20


def _re_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re(conj(x) * y) entry by entry: the real inner product of the
    (Re, Im) pairs of two complex arrays."""
    out = np.conjugate(x)
    out *= y
    return out.real


class _Cones:
    """The second-order cones of a batch's penalty terms, and the operators
    between them and the eliminated variable z.

    Row i of the stacked operator K = [G_j^H B] gives the complex entry
    v_i = (K z + c)_i. Each row of an L1 or a LINF term is a 3-dimensional
    cone (t, Re v_i, Im v_i), and a GROUP_L2 term is one cone over the at
    most m + 1 rows of the R factor of its [K_g c_g] (see ``cone_solve``);
    ``terms`` lists the groups last, so the first ``pairs`` rows and
    cones correspond one to one. The epigraph variable t is the cone's own
    for an L1 row or a group ("private"), and the cones of a LINF term share
    one. Cone quantities are (T, C) arrays of the scalar parts and (T, N)
    complex arrays of the rows: ``per_cone`` sums rows into their cone and
    ``per_row`` spreads a cone's scalar over its rows.
    """

    def __init__(self, terms: list, basis: np.ndarray, w0: np.ndarray):
        ks, cs = [], []
        for term in terms:
            k, c = term.operator.conj().T @ basis, term.operator.conj().T @ w0
            if term.kind is PenaltyKind.GROUP_L2:  # the same norm in fewer rows
                r = np.linalg.qr(np.column_stack([k, c]), mode="r")
                k, c = r[:, :-1], r[:, -1]
            ks.append(k)
            cs.append(c)
        k_mat = np.vstack(ks)
        self.c = np.concatenate(cs)
        self.k_fwd = _real_form(k_mat.T)
        # back(y) = (y @ conj(K)) as reals: row 2i (2i+1) of k_back is the
        # image of Re y_i (Im y_i)
        self.k_back = _real_form(k_mat.conj())
        # (kind, cone slice, row slice) per term
        self.blocks = []
        rows = cones = 0
        for term, k in zip(terms, ks):
            size = k.shape[0]
            width = 1 if term.kind is PenaltyKind.GROUP_L2 else size
            self.blocks.append((term.kind, slice(cones, cones + width), slice(rows, rows + size)))
            rows, cones = rows + size, cones + width
        self.count = cones
        self.private = np.ones(cones, dtype=bool)
        self.linf, self.groups = [], []
        self.pairs = sum(r.stop - r.start for kind, _, r in self.blocks if kind is not PenaltyKind.GROUP_L2)
        for kind, cone_sl, row_sl in self.blocks:
            if kind is PenaltyKind.LINF:
                self.private[cone_sl] = False
                self.linf.append((cone_sl, row_sl))
            elif kind is PenaltyKind.GROUP_L2:
                k_rows = self.k_back[2 * row_sl.start:2 * row_sl.stop]
                self.groups.append((cone_sl.start, row_sl, k_rows.T @ k_rows))
        self.group_sizes = np.array([row_sl.stop - row_sl.start for _, row_sl, _ in self.groups], dtype=int)
        self.group_starts = np.cumsum(self.group_sizes) - self.group_sizes
        # Gram stacks of the pair rows, upper triangles: with r_i and q_i the
        # rows 2i and 2i+1 of k_back, sum_i L_i^T D_i L_i for the 2 x 2
        # blocks D_i = a_i I + Re(e_i) diag(1, -1) + Im(e_i) [[0, 1], [1, 0]]
        # is a @ gram + e.view(float) @ gram_e
        dim = self.k_back.shape[1]
        self.upper = np.triu_indices(dim)
        r, q = self.k_back[0:2 * self.pairs:2], self.k_back[1:2 * self.pairs:2]
        iu, ju = self.upper
        rr, qq = r[:, iu] * r[:, ju], q[:, iu] * q[:, ju]
        self.gram = rr + qq
        self.gram_e = np.empty((self.pairs, 2, iu.size))
        self.gram_e[:, 0] = rr - qq
        self.gram_e[:, 1] = r[:, iu] * q[:, ju] + q[:, iu] * r[:, ju]
        self.gram_e = self.gram_e.reshape(2 * self.pairs, iu.size)

    def cone_weights(self, weights: np.ndarray) -> np.ndarray:
        """The (T, C) cost of each cone's scalar part from the (T, terms)
        penalty weights: a LINF term's weight is split evenly over its rows,
        whose cones share the one epigraph variable."""
        out = np.empty((weights.shape[0], self.count))
        for j, (kind, cone_sl, _) in enumerate(self.blocks):
            out[:, cone_sl] = weights[:, j:j + 1] / (cone_sl.stop - cone_sl.start if kind is PenaltyKind.LINF else 1)
        return out

    def per_cone(self, x: np.ndarray) -> np.ndarray:
        if not self.groups:
            return x
        pairs = self.pairs
        return np.concatenate([x[:, :pairs], np.add.reduceat(x[:, pairs:], self.group_starts, axis=1)], axis=1)

    def per_row(self, x: np.ndarray) -> np.ndarray:
        if not self.groups:
            return x
        pairs = self.pairs
        return np.concatenate([x[:, :pairs], np.repeat(x[:, pairs:], self.group_sizes, axis=1)], axis=1)

    def dot(self, x0, x1, y0, y1) -> np.ndarray:
        """x^T y for each cone."""
        return x0 * y0 + self.per_cone(_re_dot(x1, y1))

    def outside(self, x0, x1) -> np.ndarray:
        """Per problem, whether some cone of x is not strictly interior."""
        return (x0 <= np.sqrt(self.per_cone(_re_dot(x1, x1)))).any(axis=1)

    def forward(self, dz: np.ndarray) -> np.ndarray:
        """K dz, by rows."""
        return _times(dz, self.k_fwd)

    def back(self, y: np.ndarray, rows: slice | None = None) -> np.ndarray:
        """K^H y, or the part of it over a slice of K's rows that y then
        spans, as the real (T, 2m) z-gradient of Re(y^H K z)."""
        k_back = self.k_back if rows is None else self.k_back[2 * rows.start:2 * rows.stop]
        return y.view(float) @ k_back

    def start(self, z: np.ndarray, cone_weight: np.ndarray) -> tuple:
        """The strictly feasible start at z: s = (t, K z + c) with
        t = |v| + mean |v| over each term's cones (the max |v| for the
        shared variable of a LINF term), and lambda = (cone weight, 0)."""
        s1 = self.forward(z) + self.c
        norms = np.sqrt(self.per_cone(_re_dot(s1, s1)))
        s0 = np.empty_like(norms)
        for kind, cone_sl, _ in self.blocks:
            block = norms[:, cone_sl]
            mean = block.mean(axis=1, keepdims=True)
            mean = np.where(mean > 0, mean, 1.0)  # v = 0 on every cone: t = 1
            s0[:, cone_sl] = (block.max(axis=1, keepdims=True) if kind is PenaltyKind.LINF else block) + mean
        return s0, s1, cone_weight.copy(), np.zeros_like(s1)


class _Scaling:
    """Nesterov-Todd scaling of every cone at (s, lambda): W = beta P(v)
    with P(u) = 2 u u^T - J and v the square root of the scaling point wb,
    for which W^2 = beta^2 P(wb), W lambda = W^-1 s = lt, and
    W^-2 = beta^-2 (2 J wb wb^T J - J). ``gap`` is s^T lambda per cone."""

    def __init__(self, cones: _Cones, s0, s1, l0, l1, gap):
        per_row = cones.per_row
        s_mod = np.sqrt(cones.per_cone(_re_dot(s1, s1)))
        l_mod = np.sqrt(cones.per_cone(_re_dot(l1, l1)))
        ns = np.sqrt((s0 - s_mod) * (s0 + s_mod))
        nl = np.sqrt((l0 - l_mod) * (l0 + l_mod))
        self.det = ns * nl  # det(lt)
        g = np.sqrt(0.5 * (1.0 + gap / self.det))
        # with sb = s / ns and lb = lambda / nl: wb = (sb + J lb) / 2g
        sb0, lb0 = s0 / ns, l0 / nl
        self.wb0 = (sb0 + lb0) / (2.0 * g)
        self.wb1 = s1 * per_row(0.5 / (g * ns))
        self.wb1 -= l1 * per_row(0.5 / (g * nl))
        self.binv2 = nl / ns  # beta^-2
        self.beta = np.sqrt(ns / nl)
        self.den = 2.0 * self.wb0**2 - 1.0
        # v = (wb + e) / (2 v0) with v0 = sqrt((wb0 + 1) / 2)
        self.v0 = np.sqrt(0.5 * (self.wb0 + 1.0))
        # lt = sqrt(ns nl) (g, ((g + lb0) sb1 + (g + sb0) lb1) / (sb0 + lb0 + 2g))
        root = np.sqrt(self.det)
        self.lt0 = root * g
        k = root / (sb0 + lb0 + 2.0 * g)
        self.lt1 = s1 * per_row(k * (g + lb0) / ns)
        self.lt1 += l1 * per_row(k * (g + sb0) / nl)

    def inv(self, cones: _Cones, x0, x1) -> tuple:
        """W^-1 x = (2 J v (v^T J x) - J x) / beta."""
        d = self.v0 * x0 - cones.per_cone(_re_dot(self.wb1, x1)) * (0.5 / self.v0)
        y1 = self.wb1 * cones.per_row(d / self.v0)
        np.subtract(x1, y1, out=y1)
        y1 /= cones.per_row(self.beta)
        return (2.0 * self.v0 * d - x0) / self.beta, y1


def _max_step(cones: _Cones, sc: _Scaling, d0, d1) -> np.ndarray:
    """Per problem, the largest alpha with lt + alpha d in every cone (inf if
    there is none): the first positive root of det(lt + alpha d), taken in
    the form that does not cancel."""
    b = sc.lt0 * d0 - cones.per_cone(_re_dot(sc.lt1, d1))
    a = d0**2 - cones.per_cone(_re_dot(d1, d1))
    disc = b**2 - a * sc.det
    denom = np.sqrt(np.maximum(disc, 0.0)) - b
    hit = (disc >= 0) & (denom > 0)
    alpha = np.divide(sc.det, denom, out=np.full_like(denom, np.inf), where=hit)
    return alpha.min(axis=1)


def _newton_matrix(cones: _Cones, sc: _Scaling, p_real: np.ndarray) -> tuple:
    """The reduced Newton matrix of ``_Newton``, one real symmetric 2m x 2m
    matrix per problem, and the (cone slice, c, h) of each LINF term's
    rank-one elimination of its shared variable."""
    # the 2 x 2 block of a pair row is binv2 I + f wb1 wb1^T, with
    # f = -2 binv2 / den for an L1 row and 2 binv2 for a LINF row
    pairs = cones.pairs
    binv2, den = sc.binv2[:, :pairs], sc.den[:, :pairs]
    f = np.where(cones.private[:pairs], -2.0 * binv2 / den, 2.0 * binv2)
    w1 = sc.wb1[:, :pairs]
    e = w1 * w1
    e *= 0.5 * f
    vals = (binv2 + 0.5 * f * _re_dot(w1, w1)) @ cones.gram + e.view(float) @ cones.gram_e
    mat = np.empty_like(p_real)
    iu, ju = cones.upper
    mat[:, iu, ju] = vals
    mat[:, ju, iu] = vals
    mat += p_real
    for cone, rows, gram in cones.groups:
        p = cones.back(sc.wb1[:, rows], rows)
        mat += sc.binv2[:, cone, np.newaxis, np.newaxis] * gram
        coef = 2.0 * sc.binv2[:, cone] / sc.den[:, cone]
        mat -= coef[:, np.newaxis, np.newaxis] * (p[:, :, np.newaxis] * p[:, np.newaxis, :])
    # a LINF term: c = K^H H_yt over its rows with H_yt = -2 binv2 wb0 wb1,
    # h = sum of H_tt = binv2 den over its cones
    linf = []
    for cone_sl, row_sl in cones.linf:
        hyt = (-2.0 * sc.binv2[:, cone_sl] * sc.wb0[:, cone_sl]) * sc.wb1[:, row_sl]
        c = cones.back(hyt, row_sl)
        h = (sc.binv2[:, cone_sl] * sc.den[:, cone_sl]).sum(axis=1)
        mat -= (c[:, :, np.newaxis] * c[:, np.newaxis, :]) / h[:, np.newaxis, np.newaxis]
        linf.append((cone_sl, c, h))
    return mat, linf


class _Newton:
    """The reduced Newton system of one iteration, solved for any
    right-hand side rho = W^-1 ds (Vandenberghe 2010, sec. 4).

    With H = W^-2, a step satisfies dlambda = rho - H ds with ds = (dt, K dz),
    the t-row of the dual equation (sum of dlambda_0 over the cones that
    share t is 0) and the z-row quad dz = K^H dlambda_1. Eliminating a
    private t leaves the 2 x 2 block beta^-2 (I - 2 wb1 wb1^T / den) per L1
    row (den = 2 wb0^2 - 1), and beta^-2 (K^H K - 2 p p^T / den) with
    p = K^H wb1 per group; a LINF term keeps beta^-2 (I + 2 wb1 wb1^T) per
    row and eliminates its shared variable by a rank-one update. The result
    (``_newton_matrix``) is one real symmetric 2m x 2m matrix per problem,
    solved as ``cholesky_solve`` solves it; where it is not positive
    definite the direction is NaN, and ``_step`` stalls the problem. Both
    solves of an iteration share one definiteness test, taken when the
    matrix is built.
    """

    def __init__(self, cones: _Cones, sc: _Scaling, p_real: np.ndarray):
        self.cones, self.sc = cones, sc
        self.mat, self.linf = _newton_matrix(cones, sc, p_real)
        self.ok = _definite(self.mat)

    def solve(self, rho0, rho1, dual: bool = True) -> tuple:
        """dz, ds = (dt, dy) and, if ``dual``, dlambda for rho."""
        cones, sc = self.cones, self.sc
        per_row = cones.per_row
        # fold each private t into the rows: rho1 + 2 wb0 rho0 / den * wb1
        rhs = sc.wb1 * per_row(np.where(cones.private, 2.0 * sc.wb0 * rho0 / sc.den, 0.0))
        rhs += rho1
        rhs = cones.back(rhs)
        for cone_sl, c, h in self.linf:
            rhs -= c * (rho0[:, cone_sl].sum(axis=1) / h)[:, np.newaxis]
        dx, _ = cholesky_solve(self.mat, rhs, self.ok)
        dz = dx.view(complex)
        dy = cones.forward(dz)
        q = cones.per_cone(_re_dot(sc.wb1, dy))
        dt = (rho0 / sc.binv2 + 2.0 * sc.wb0 * q) / sc.den
        for cone_sl, c, h in self.linf:
            dt[:, cone_sl] = ((rho0[:, cone_sl].sum(axis=1) - (c * dx).sum(axis=1)) / h)[:, np.newaxis]
        if not dual:
            return dz, dt, dy
        dl0 = np.zeros_like(rho0)
        for cone_sl, _, _ in self.linf:
            dl0[:, cone_sl] = rho0[:, cone_sl] - sc.binv2[:, cone_sl] * (
                sc.den[:, cone_sl] * dt[:, cone_sl] - 2.0 * sc.wb0[:, cone_sl] * q[:, cone_sl])
        # dlambda_1 = rho1 + binv2 (2 (wb0 dt - q) wb1 - dy)
        dl1 = sc.wb1 * per_row(2.0 * sc.binv2 * (sc.wb0 * dt - q))
        dl1 += rho1
        dl1 -= dy * per_row(sc.binv2)
        return dz, dt, dy, dl0, dl1


def cone_solve(spec, opts: SolverOptions = SolverOptions()):
    """Solve a convex spec with L1, LINF and GROUP_L2 penalties (squared-L2
    terms fold into the quadratic), or a batch of them, by a primal-dual
    interior-point method on its second-order cone form.

    ``spec`` is one ProblemSpec, returning one SolverResult, or a sequence
    of T specs, returning a list of T results, under the batch contract of
    this module; the quadratics and penalty weights of a batch are free, and
    column scales are rejected. A problem's penalty weights must be all zero
    (it ends at the unpenalized optimum after 0 iterations) or all positive.

    After constraint elimination w = w0 + B z, each entry v_i of an L1 term
    becomes the 3-dimensional cone (t_i, Re v_i, Im v_i) with the cost
    gamma * t_i, the entries of a LINF term 3-dimensional cones that share
    one epigraph variable, and a GROUP_L2 term one cone of dimension 2r + 1:
    its q rows [K_g c_g] give way to the r = min(q, m + 1) rows of R in
    [K_g c_g] = Q R, Q with orthonormal columns. Then ||K_g z + c_g|| =
    ||R [z; 1]||, the same constraint, and the start, the scaling and the
    Newton system use only inner products of the rows, which Q keeps, so the
    iterates are those of the 2q + 1 dimensional cone in exact arithmetic.
    The primal start is the unpenalized optimum with t = |v| + mean |v| over
    each term's cones, the dual start (weight, 0) on each cone (a LINF
    term's weight split evenly over its cones). Both are strictly feasible
    and satisfy the equality constraints, which every Newton step keeps, so
    only the duality gap s^T lambda has to reach 0.

    Each iteration takes the Nesterov-Todd scaling of every cone and one
    Mehrotra predictor-corrector step (Vandenberghe 2010, "The CVXOPT linear
    and quadratic cone program solvers"): the reduced Newton system (see
    ``_Newton``, a 2m x 2m real matrix per problem: the z-space quadratic,
    one GEMM of per-row weights with Gram stacks of the rows built once per
    call, and rank-one terms) is solved twice, and the step goes 0.99 of the
    way to the cone boundary (at most 1); where rounding still carries a
    problem's new point out of a cone, the problem keeps half its step, then
    a quarter, and so on. A problem stops with status CONVERGED when its
    relative gap, s^T lambda over its primal objective, is at most 1e-9. It
    stops with MAX_ITERS at its last iterate, which is feasible, after
    ``opts.max_iters`` iterations, or when its direction is not finite or
    its step stalls. ``dual_residual`` reports the relative gap. A problem
    whose quadratic is not positive definite fails at w0.
    """
    if isinstance(spec, ProblemSpec):
        return cone_solve([spec], opts)[0]
    # the unpenalized optimum z is the answer for a problem with no active
    # penalty, and the primal start otherwise
    batch = _Batch(spec, "cone_solve")
    active_terms, pending = batch.convex()
    if batch.scaled:
        raise ValueError("cone_solve takes no column scale")
    # the groups go last (see _Cones)
    active_terms.sort(key=lambda j: batch.terms[j].kind is PenaltyKind.GROUP_L2)
    terms, weights = [batch.terms[j] for j in active_terms], batch.weights[:, active_terms]
    if ((weights > 0) != (weights > 0).any(axis=1, keepdims=True)).any():
        raise ValueError("cone_solve needs each problem's penalty weights all zero or all positive")

    rows = np.flatnonzero(batch.factored & pending)
    if rows.size:
        cones = _Cones(terms, batch.basis, batch.w0)
        _interior_point(batch, cones, rows, cones.cone_weights(weights[rows]), opts.max_iters)
    return batch.results()


def _interior_point(batch: _Batch, cones: _Cones, rows, cone_weight, max_iters: int) -> None:
    """The predictor-corrector loop of ``cone_solve`` over the problems
    ``rows`` of ``batch``, started at their starts, with the cone costs
    ``cone_weight``. A problem leaves the loop through ``batch.leave`` when
    it converges, when its step stalls and at the cap."""
    z, quad = batch.start[rows], batch.quad[rows]
    # each problem's w0^H R_eff w0
    const = np.real(np.einsum("i,tij,j->t", batch.w0.conj(), batch.r_eff[rows], batch.w0))
    state = [rows, z, *cones.start(z, cone_weight), quad, _real_form(quad.transpose(0, 2, 1)), batch.lin[rows],
             const, cone_weight]
    for it in range(max_iters + 1):
        rows, z, s0, s1, l0, l1, quad, p_real, lin, const, cone_weight = state
        cone_gap = cones.dot(s0, s1, l0, l1)
        objective = (0.5 * np.real(np.einsum("ti,tij,tj->t", z.conj(), quad, z)) + _re_dot(lin, z).sum(axis=1)
                     + const + (cone_weight * s0).sum(axis=1))
        rel = cone_gap.sum(axis=1) / objective
        stop = (rel <= _GAP_TOL) | (it == max_iters)
        if not stop.all():
            # the step of each problem that goes on; one whose step stalls
            # stops and keeps its iterate
            going = np.flatnonzero(~stop)
            step = _step(cones, *(x[going] if stop.any() else x for x in (p_real, s0, s1, l0, l1, cone_gap)))
            stalled = ~(step[0] > _MIN_STEP)
            if stalled.any():
                stop[going[stalled]] = True
                step = [x[~stalled] for x in step]
        if stop.any():
            status = np.where(rel <= _GAP_TOL, SolverStatus.CONVERGED, SolverStatus.MAX_ITERS)
            state = batch.leave(stop, it, rel, status, *state)
            if not state[0].size:
                return
        alpha = step[0][:, np.newaxis]
        for x, dx in zip(state[1:6], step[1:]):
            dx *= alpha
            x += dx
        # rounding can carry a point that the step keeps 1% inside its cone
        # out of it; such a problem keeps half of its step, then a quarter, ...
        for _ in range(_PULLBACKS):
            # state[2:4] is s and state[4:6] is lambda
            outside = cones.outside(*state[2:4]) | cones.outside(*state[4:6])
            if not outside.any():
                break
            for x, dx in zip(state[1:6], step[1:]):
                dx[outside] *= 0.5
                x[outside] -= dx[outside]
        del step


def _step(cones: _Cones, p_real, s0, s1, l0, l1, gap) -> tuple:
    """One Mehrotra predictor-corrector direction at (s, lambda) and its
    step length: (alpha, dz, dt, dy, dlambda0, dlambda1), with alpha 0
    where the direction is not finite. ``gap`` is s^T lambda per cone."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sc = _Scaling(cones, s0, s1, l0, l1, gap)
        newton = _Newton(cones, sc, p_real)
        # predictor (affine) direction: ds~ = -lt, so rho = W^-1 ds~ = -lambda;
        # in scaled form ds~_a = W^-1 ds_a and dl~_a = -lt - ds~_a
        _, dt, dy = newton.solve(-l0, -l1, dual=False)
        ds0, ds1 = sc.inv(cones, dt, dy)
        del dt, dy
        dl0 = -sc.lt0 - ds0
        dl1 = np.negative(sc.lt1)
        dl1 -= ds1
        alpha = np.minimum(1.0, np.minimum(_max_step(cones, sc, ds0, ds1), _max_step(cones, sc, dl0, dl1)))
        mu = gap.sum(axis=1) / cones.count
        # corrector: r = sigma mu e - ds~_a o dl~_a with sigma = (1 - alpha)^3,
        # x = lt \ r (the inverse of the Jordan product by lt), ds~ = x - lt
        # and rho = W^-1 ds~ = W^-1 x - lambda
        r0 = ((1.0 - alpha) ** 3 * mu)[:, np.newaxis] - cones.dot(ds0, ds1, dl0, dl1)
        r1 = ds1 * cones.per_row(-dl0)
        del ds1
        r1 -= dl1 * cones.per_row(ds0)
        del ds0, dl0, dl1
        x0 = (sc.lt0 * r0 - cones.per_cone(_re_dot(sc.lt1, r1))) / sc.det
        x1 = sc.lt1 * cones.per_row(-x0)
        x1 += r1
        x1 /= cones.per_row(sc.lt0)
        del r0, r1
        rho0, rho1 = sc.inv(cones, x0, x1)
        rho0 -= l0
        rho1 -= l1
        dz, dt, dy, dl0, dl1 = newton.solve(rho0, rho1)
        del rho0, rho1
        ds0, ds1 = sc.inv(cones, dt, dy)
        alpha = _max_step(cones, sc, ds0, ds1)
        # dl~ = ds~ - ds~_c = x - lt - ds~_c, in place of x
        x1 -= sc.lt1
        x1 -= ds1
        del ds1
        alpha = np.minimum(alpha, _max_step(cones, sc, x0 - sc.lt0 - ds0, x1))
        alpha = np.minimum(1.0, _STEP_FRACTION * alpha)
        finite = np.isfinite(alpha) & np.isfinite(dz).all(axis=1)
    return np.where(finite, alpha, 0.0), dz, dt, dy, dl0, dl1


class _SmoothObjective:
    """The smooth objectives of a ``_Batch``: per problem R_eff and the
    weight gamma of the one quartic term gamma (||G^H w||^2 - 1)^2 (0 if
    there is none), with z-gradients in the basis ``basis`` at the (k, M)
    points of the problems ``rows``."""

    def __init__(self, batch: _Batch, basis: np.ndarray):
        terms, weights = batch.terms, batch.weights
        for term in terms:
            if term.kind not in (PenaltyKind.SQUARED_L2, PenaltyKind.QUARTIC_UNIT):
                raise ValueError(f"smooth_solve accepts SQUARED_L2/QUARTIC_UNIT only, got {term.kind}")
        quartics = [j for j, t in enumerate(terms) if t.kind is PenaltyKind.QUARTIC_UNIT]
        if len(quartics) > 1:
            raise ValueError(f"smooth_solve takes at most one QUARTIC_UNIT term, got {len(quartics)}")
        self.basis, self.r_eff = basis, batch.r_eff
        self.g_op = terms[quartics[0]].operator if quartics else np.zeros((basis.shape[0], 0))
        self.gamma = weights[:, quartics[0]] if quartics else np.zeros(weights.shape[0])

    def gradient(self, w: np.ndarray, rows) -> np.ndarray:
        v = _mv(self.g_op.conj().T, w)
        grad_w = 2.0 * _mv(self.r_eff[rows], w)
        grad_w += (4.0 * self.gamma[rows] * (_row_norms(v) ** 2 - 1.0))[:, np.newaxis] * _mv(self.g_op, v)
        return _mv(self.basis.conj().T, grad_w)


def smooth_gradient(spec: ProblemSpec, basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Real-geometry gradient of the smooth objective in the eliminated
    variable z (w = w0 + B z).

    Its real and imaginary parts are the partial derivatives of the objective
    with respect to Re(z) and Im(z), so it can be checked coordinate by
    coordinate against central finite differences.
    """
    w = np.asarray(w, dtype=complex).reshape(1, -1)
    return _SmoothObjective(_Batch([spec], "smooth_gradient"), basis).gradient(w, slice(None))[0]


# the secular bracket ends at nu = -_POLE / max(d) where that is above
# -2 gamma, so that 1 + nu d > 0 holds under rounding
_POLE = 1.0 - 4.0 * np.finfo(float).eps
# smooth_solve stops a problem once its root is known to within this much
# of the scale of the secular function
_ROOT_TOL = 1e-12


def smooth_solve(spec, opts: SolverOptions = SolverOptions()):
    """The global minimizer of the smooth (nonconvex) objective with
    squared-L2 penalties and at most one quartic gamma (||G^H w||^2 - 1)^2
    term (a second raises ValueError), for one spec or a batch of them.

    ``spec`` is one ProblemSpec, returning one SolverResult, or a sequence
    of T specs, returning a list of T results, under the batch contract of
    this module; the quadratics and penalty weights of a batch are free.
    Every product, factorization and eigendecomposition is taken problem by
    problem, so a batch reproduces single solves bit for bit.

    In the eliminated variable z the objective is q(z) + gamma (p(z) - 1)^2,
    q(z) = w^H R_eff w with gradient quad z + lin (the front end's, ridge
    included) and p(z) = ||G^H w||^2 with gradient P z + p0. A stationary
    point solves (quad + nu P) z = -(lin + nu p0), nu = 2 gamma (p(z) - 1).
    With quad = L L^H and L^-1 P L^-H = U diag(d) U^H, z(nu) is explicit,
    and phi(nu) = nu - 2 gamma (p(z(nu)) - 1), a sum of m scalar terms,
    increases and is concave on nu > -1/max(d), with one root there (the
    secular equation of Li, Stoica and Wang 2003, "On robust Capon
    beamforming and diagonal loading", and of the trust-region problem). At
    the root quad + nu P is positive semidefinite, so z minimizes q + nu p,
    and gamma (s - 1)^2 - nu s is least at s = p(z); adding the two shows
    that z is the global minimizer. Where phi stays positive down to
    -1/max(d) (the hard case), the minimizer is z there plus the top
    eigenvector, scaled so that p(z) = 1 + nu / (2 gamma).

    Newton's method inside a bisection bracket finds the root from nu = 0,
    the unpenalized optimum, at O(m) per step (an iteration; a hard case
    takes 1). A problem stops CONVERGED once a step puts the root within
    1e-12 of 2 gamma (1 + p(z(0)) + p(z(nu))), the scale of phi, of the
    point it reaches, and returns z there; ``dual_residual`` is the norm of
    the objective's gradient (of q without its ridge). The test reads no
    option and does not change under R -> cR, gamma -> c gamma.
    ``opts.max_iters`` caps the steps with status MAX_ITERS. A problem with
    no positive quartic weight ends at its start, its minimizer, after 0
    iterations with its gradient norm as its certificate; one whose
    quadratic is not positive definite fails at w0.
    """
    if isinstance(spec, ProblemSpec):
        return smooth_solve([spec], opts)[0]
    batch = _Batch(spec, "smooth_solve")
    w0, basis = batch.w0, batch.basis
    smooth = _SmoothObjective(batch, basis)
    if not basis.shape[1]:  # w0 is the only feasible point
        batch.stop(slice(None), batch.start, 0, 0.0, SolverStatus.CONVERGED)
        return batch.results()

    # a problem with no positive quartic weight ends at its start, its
    # minimizer; one whose quadratic is not positive definite fails at w0
    quartic = smooth.gamma > 0
    done = np.flatnonzero(batch.factored & ~quartic)
    z = batch.start[done]
    batch.stop(done, z, 0, _row_norms(smooth.gradient(w0 + _mv(basis, z), done)), SolverStatus.CONVERGED)
    rows = np.flatnonzero(batch.factored & quartic)
    z, gamma = batch.start[rows], smooth.gamma[rows]
    # V = L^-H U: V^H quad V = I and V^H P V = diag(d), d ascending
    gz = basis.conj().T @ smooth.g_op
    l_inv = np.linalg.inv(np.linalg.cholesky(batch.quad[rows]))
    lg = l_inv @ gz
    d, u = np.linalg.eigh(2.0 * (lg @ lg.conj().transpose(0, 2, 1)))
    v = l_inv.conj().transpose(0, 2, 1) @ u
    # in the coordinates x of z = z(0) + V x, z(nu) is x = -s e with
    # s = nu / (1 + nu d) and e = V^H (P z(0) + p0), p's gradient at the
    # start, so that p(z(nu)) = p(z(0)) - sum |e|^2 (s - d s^2 / 2)
    gw = _mv(smooth.g_op.conj().T, w0 + _mv(basis, z))
    p_start = _row_norms(gw) ** 2
    e = _mv(v.conj().transpose(0, 2, 1), 2.0 * _mv(gz, gw))
    c = e.real**2 + e.imag**2

    def secular(nu):
        # phi(nu), phi'(nu), |phi''(nu)| and p(z(nu)), from the sums over
        # |e|^2 of s - d s^2 / 2, r^3 and d r^4 with r = 1 / (1 + nu d)
        r = 1.0 / (1.0 + nu[:, np.newaxis] * d)
        s = nu[:, np.newaxis] * r
        sums = _mv(np.stack([s - 0.5 * d * s * s, r**3, d * r**4], axis=1), c)
        p = p_start - sums[:, 0]
        return nu - 2.0 * gamma * (p - 1.0), 1.0 + 2.0 * gamma * sums[:, 1], 6.0 * gamma * sums[:, 2], p

    # the root lies in [lo, hi]: nu >= -2 gamma since p >= 0, and
    # nu <= 2 gamma (p(z(0)) - 1) where it is positive, since p decreases;
    # lo stays just above the pole -1/max(d) where that is higher
    pole = 2.0 * gamma * d[:, -1] > _POLE
    lo = np.where(pole, -_POLE / np.where(pole, d[:, -1], 1.0), -2.0 * gamma)
    hi = np.maximum(0.0, 2.0 * gamma * (p_start - 1.0))
    # phi(lo) >= 0: the root is at lo, within rounding (the hard case)
    phi_lo = secular(lo)[0]
    hard = phi_lo >= 0
    nu = np.where(hard, lo, 0.0)
    iterations = hard.astype(int)
    going = ~hard
    for it in range(1, opts.max_iters + 1):
        if not going.any():
            break
        phi, slope, curve, p = secular(nu)
        lo = np.where(phi < 0, nu, lo)
        hi = np.where(phi > 0, nu, hi)
        # a Newton step, or the midpoint where it leaves the bracket; the
        # root lies within the step's length of its end, and within
        # |phi''| step^2 / 2 after a Newton step from the left, where
        # phi < 0 (phi is concave, |phi''| falls to the right and phi' >= 1)
        new = nu - phi / slope
        newton = (lo <= new) & (new <= hi)
        new = np.where(newton, new, 0.5 * (lo + hi))
        gap = np.abs(new - nu)
        gap = np.where(newton & (phi < 0), np.minimum(gap, 0.5 * curve * gap**2), gap)
        nu = np.where(going, new, nu)
        iterations[going] = it
        going &= ~(gap <= _ROOT_TOL * 2.0 * gamma * (1.0 + p_start + p))
    x = -(nu[:, np.newaxis] / (1.0 + nu[:, np.newaxis] * d)) * e
    # the hard case: x takes the top eigenvector times tau, in the phase of
    # p's gradient g there, so that p(z) grows by delta = phi(lo) / (2 gamma)
    # to 1 + lo / (2 gamma)
    g = x[hard, -1] * d[hard, -1] + e[hard, -1]
    g_abs, delta = np.abs(g), phi_lo[hard] / (2.0 * gamma[hard])
    den = g_abs + np.sqrt(g_abs**2 + 2.0 * d[hard, -1] * delta)
    tau = np.divide(2.0 * delta, den, out=np.zeros_like(den), where=den > 0)
    x[hard, -1] += tau * np.divide(g, g_abs, out=np.ones_like(g), where=g_abs > 0)
    z = z + _mv(v, x)
    batch.stop(rows, z, iterations, _row_norms(smooth.gradient(w0 + _mv(basis, z), rows)),
               np.where(going, SolverStatus.MAX_ITERS, SolverStatus.CONVERGED))
    return batch.results()

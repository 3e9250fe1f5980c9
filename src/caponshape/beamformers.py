"""
Six Capon-family beamformers.

The closed-form minimum-variance beamformer plus five shaped variants that
add a beam-pattern penalty on top of the same distortionless quadratic
program:

========================  ====================================================
kind                      penalty added to w^H R w
========================  ====================================================
CAPON                     (none; closed form)
SPARSE                    gamma * ||A^H w||_1 over the full manifold
WEIGHTED_SPARSE           gamma * ||Q A^H w||_1, Q the data-driven SNM diagonal
MIXED_NORM                gamma * (||A_M^H w||_inf + ||A_S^H w||_1)
TVM_SPARSE                gamma * (sum_i ||D_i A^H w||_2 + ||A_S^H w||_1)
MSPR_RELAXED              gamma * ((||A_M^H w||^2 - 1)^2 + ||A_S^H w||^2)
========================  ====================================================

A_M / A_S are the mainlobe/sidelobe column blocks of the manifold, D_i the
stacked forward/backward order-i finite-difference matrices. SPARSE,
MIXED_NORM and TVM_SPARSE go through the interior-point cone_solve,
WEIGHTED_SPARSE (whose per-trial SNM weights are a column scale) through
admm_solve, and MSPR_RELAXED through the smooth nonconvex path smooth_solve,
each batched across trials or gammas by solve_trials and started at the
unpenalized optimum, the minimizer of w^H R_eff w on the constraint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .arrays import ArrayManifold, ManifoldSplit, difference_operator, snm_weighting, split_manifold
from .solver import (
    NumericalError,
    PenaltyKind,
    PenaltyTerm,
    ProblemSpec,
    SolverOptions,
    SolverResult,
    SolverStatus,
    admm_solve,
    cholesky_solve,
    cone_solve,
    smooth_solve,
)

__all__ = [
    "BeamformerKind",
    "BeamformerSpec",
    "WeightVector",
    "capon_closed_form",
    "mspr_capon",
    "resolve_split",
    "solve_method",
    "solve_trials",
]


# the most problems that solve_trials passes a solver in one call; a larger
# batch solves in consecutive slices of this size, which keeps the solvers'
# stacked arrays in cache and bounds their memory
_BATCH_CAP = 50


class BeamformerKind(enum.Enum):
    CAPON = "capon"
    SPARSE = "sparse"
    WEIGHTED_SPARSE = "weighted_sparse"
    MIXED_NORM = "mixed_norm"
    TVM_SPARSE = "tvm_sparse"
    MSPR_RELAXED = "mspr_relaxed"


_KINDS_WITH_B = (BeamformerKind.MIXED_NORM, BeamformerKind.MSPR_RELAXED)


@dataclass(frozen=True)
class BeamformerSpec:
    """A beamformer kind plus its parameters.

    ``gamma`` is the penalty weight; None means "auto" (resolve by sweep
    before solving). ``b`` overrides the mainlobe half-width for the kinds
    that split the manifold; ``tv_orders`` is the number of difference
    orders I for TVM_SPARSE.
    """

    kind: BeamformerKind
    gamma: float | None = None
    b: int | None = None
    tv_orders: int | None = None

    def __post_init__(self):
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be a finite number >= 0, got {self.gamma}")
        if self.kind is BeamformerKind.CAPON and self.gamma not in (None, 0.0):
            raise ValueError(f"gamma must be 0 or auto for CAPON, got {self.gamma}")
        if self.b is not None and self.kind not in _KINDS_WITH_B:
            raise ValueError(f"b applies to MIXED_NORM/MSPR_RELAXED, not {self.kind.name}")
        if self.b is not None and self.b < 0:
            raise ValueError(f"b must be >= 0, got {self.b}")
        if self.tv_orders is not None and self.kind is not BeamformerKind.TVM_SPARSE:
            raise ValueError(f"tv_orders applies to TVM_SPARSE, not {self.kind.name}")
        if self.tv_orders is not None and not 1 <= self.tv_orders <= 3:
            raise ValueError(f"tv_orders must be in 1..3, got {self.tv_orders}")

    @property
    def gamma_is_auto(self) -> bool:
        return self.kind is not BeamformerKind.CAPON and self.gamma is None

    def with_gamma(self, gamma: float) -> "BeamformerSpec":
        return BeamformerSpec(self.kind, gamma, self.b, self.tv_orders)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Beamformer weights with solve metadata.

    ``constraint_residual`` is |w^H a - 1| at the presumed steering vector;
    ``ridged`` flags a closed-form solve that needed the singularity-rescue
    ridge. ``subgrad_residual`` is the solver's certificate, its
    ``SolverResult.dual_residual``: the relative duality gap of
    ``cone_solve``, the final dual residual of ``admm_solve`` or the gradient
    norm of ``smooth_solve``; the closed form has none and reports 0.
    """

    weights: np.ndarray
    constraint_residual: float
    status: SolverStatus
    iterations: int
    ridged: bool = False
    subgrad_residual: float = 0.0


def _covariance_matrix(r) -> np.ndarray:
    mat = np.asarray(r, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"covariance must be square, got shape {mat.shape}")
    return mat


def _weights(result: SolverResult) -> WeightVector:
    return WeightVector(weights=result.w, constraint_residual=result.constraint_residual, status=result.status,
                        iterations=result.iterations, subgrad_residual=result.dual_residual)


def capon_closed_form(r, a: np.ndarray):
    """Minimum-variance distortionless weights w = R^-1 a / (a^H R^-1 a).

    ``r`` is one M x M covariance, returning one WeightVector, or a
    sequence of T of them, returning a list of T; a batch solves as one
    stack through ``cholesky_solve``, which tests and solves each matrix on
    its own, so it reproduces single solves bit for bit. A covariance that
    is not positive definite gets one rescue attempt with a ridge of
    1e-12 * trace(R)/M (flagged on the result). A covariance or steering
    vector with a NaN or infinite entry is never solved. Where a
    covariance fails, past the ridge or for a non-finite entry, one
    covariance raises NumericalError, and a batch reports that trial alone
    with status NUMERICAL_FAILURE and NaN weights.
    """
    mats = np.asarray(r, dtype=complex)
    if mats.ndim == 2:
        out = capon_closed_form(mats[np.newaxis], a)[0]
        if out.status is SolverStatus.NUMERICAL_FAILURE:
            raise NumericalError("covariance is not finite, or singular beyond the ridge rescue")
        return out
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"covariance must be square, got shape {mats.shape[1:]}")
    a = np.asarray(a, dtype=complex).ravel()
    count, size = mats.shape[:2]
    if a.size != size:
        raise ValueError("steering vector length does not match the covariance")
    rhs = np.broadcast_to(a, (count, size))
    finite = np.isfinite(mats).all(axis=(1, 2)) & np.isfinite(a).all()
    x = np.full((count, size), np.nan, dtype=complex)
    ok = np.zeros(count, dtype=bool)
    x[finite], ok[finite] = cholesky_solve(mats[finite], rhs[finite])
    ridged = finite & ~ok
    if ridged.any():
        ridge = 1e-12 * np.trace(mats[ridged], axis1=1, axis2=2).real / size
        x[ridged], ok[ridged] = cholesky_solve(mats[ridged] + ridge[:, np.newaxis, np.newaxis] * np.eye(size),
                                               rhs[ridged])
    denom = (a.conj() * x).sum(axis=1).real
    ok &= np.isfinite(denom) & (denom > 0)
    w = np.divide(x, denom[:, np.newaxis], out=np.full_like(x, np.nan), where=ok[:, np.newaxis])
    return [
        WeightVector(weights=w[t], constraint_residual=abs(w[t].conj() @ a - 1.0), status=SolverStatus.CONVERGED,
                     iterations=0, ridged=bool(ridged[t]))
        if ok[t] else WeightVector(w[t], math.nan, SolverStatus.NUMERICAL_FAILURE, 0)
        for t in range(count)
    ]


def mspr_capon(
    r,
    split: ManifoldSplit,
    a: np.ndarray,
    gamma: float,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """min w^H R w + gamma * ((||A_M^H w||^2 - 1)^2 + ||A_S^H w||^2).

    Smooth but nonconvex; starts at the unpenalized optimum, the minimizer
    of w^H R_eff w on the constraint (R_eff = R + gamma A_S A_S^H, the
    sidelobe term folded in), and returns the global minimizer (see
    ``smooth_solve``).
    """
    return solve_method(BeamformerSpec(BeamformerKind.MSPR_RELAXED, gamma), r, None, split, a, None, options)


def _penalty_terms(method: BeamformerSpec, manifold: ArrayManifold, split: ManifoldSplit) -> tuple:
    """The penalty terms of a shaped method, at gamma = 1 (each problem
    scales their weights by its own gamma). WEIGHTED_SPARSE's SNM weights
    are per trial, so they enter as the column scale of its one term
    (Q A^H w = (A Q)^H w since Q = diag(q) is real)."""
    kind = method.kind
    if kind in (BeamformerKind.SPARSE, BeamformerKind.WEIGHTED_SPARSE):
        return (PenaltyTerm(operator=manifold.matrix, kind=PenaltyKind.L1, weight=1.0),)
    if kind in _KINDS_WITH_B:
        split = resolve_split(method, manifold, split)
        main, side = ((PenaltyKind.LINF, PenaltyKind.L1) if kind is BeamformerKind.MIXED_NORM
                      else (PenaltyKind.QUARTIC_UNIT, PenaltyKind.SQUARED_L2))
        return (
            PenaltyTerm(operator=split.a_main, kind=main, weight=1.0),
            PenaltyTerm(operator=split.a_side, kind=side, weight=1.0),
        )
    if kind is BeamformerKind.TVM_SPARSE:
        n = manifold.angles_deg.size
        terms = []
        for i in range(1, (2 if method.tv_orders is None else method.tv_orders) + 1):
            f = difference_operator(i, n)
            # D_i = [F; flip(F)] and flip(F) = (-1)^i F, so ||D_i p|| = sqrt(2) ||F p||;
            # v = F A^H w, so the operator is A F^T (F is real)
            terms.append(
                PenaltyTerm(operator=manifold.matrix @ f.T, kind=PenaltyKind.GROUP_L2, weight=math.sqrt(2.0))
            )
        terms.append(PenaltyTerm(operator=split.a_side, kind=PenaltyKind.L1, weight=1.0))
        return tuple(terms)
    raise AssertionError(kind)


def resolve_split(method: BeamformerSpec, manifold: ArrayManifold, split: ManifoldSplit) -> ManifoldSplit:
    """The split a method uses: ``split`` itself, or one re-centred on the
    same grid angle with the method's own mainlobe half-width ``b``."""
    if method.b is None or method.b == split.b:
        return split
    center_deg = float(manifold.angles_deg[split.center_index])
    return split_manifold(manifold, center_deg, method.b)


def solve_trials(
    methods,
    covariances,
    manifold: ArrayManifold,
    split: ManifoldSplit,
    a: np.ndarray,
    snapshots=None,
    options: SolverOptions = SolverOptions(),
) -> list:
    """Solve each covariance estimate of a batch with its own BeamformerSpec,
    returning one WeightVector per covariance.

    ``methods`` holds one spec per covariance, all of one kind with the same
    ``b`` and ``tv_orders``; their gammas are free but must be resolved (not
    auto). A batch of Monte Carlo trials repeats one spec over many
    covariances; a gamma sweep repeats one covariance over a grid of gammas.
    ``snapshots`` holds one ``x`` per covariance, as ``solve_method`` takes
    it (the M x K draw, or its M x 1 mean snapshot, which gives the same SNM
    weights); WEIGHTED_SPARSE requires it and forms each trial's SNM weights
    from it with ``snm_weighting`` before any solve, and the other kinds
    ignore it. A solver takes at most 50 problems per call (``_BATCH_CAP``):
    a larger batch solves in consecutive slices of that size, and the
    results come back in input order. CAPON solves each slice as one stack in
    ``capon_closed_form``. The shaped kinds build their penalty terms once
    and reweight them per problem, so a slice shares the operator objects
    and solves in one call from the unpenalized optimum: SPARSE, MIXED_NORM
    and TVM_SPARSE in one ``cone_solve``, WEIGHTED_SPARSE in one
    ``admm_solve`` (each trial's SNM weights its column scale), MSPR_RELAXED
    in one ``smooth_solve``. A trial whose
    covariance is not finite (never solved, NaN weights) or whose solve
    fails numerically comes back with status NUMERICAL_FAILURE rather than
    raising, so it fails alone. The steering vector is shared by the batch,
    so one with a NaN or infinite entry raises ValueError for every kind.
    """
    methods = list(methods)
    mats = [_covariance_matrix(r) for r in covariances]
    if not mats or len(methods) != len(mats):
        raise ValueError(f"solve_trials needs one method per covariance, got {len(methods)} and {len(mats)}")
    first = methods[0]
    kind = first.kind
    if any((m.kind, m.b, m.tv_orders) != (kind, first.b, first.tv_orders) for m in methods):
        raise ValueError("a batch solves one kind with one b and tv_orders; only gamma may differ")
    a = np.asarray(a, dtype=complex).ravel()
    if not np.isfinite(a).all():
        raise ValueError("steering vector must be finite")
    if kind is BeamformerKind.CAPON:
        return _in_slices(lambda batch: capon_closed_form(batch, a), mats)
    if any(m.gamma is None for m in methods):
        raise ValueError(f"{kind.name} needs a resolved gamma (got auto)")
    if kind is BeamformerKind.WEIGHTED_SPARSE:
        if snapshots is None:
            raise ValueError("WEIGHTED_SPARSE needs the snapshots (their SNM weights)")
        scales = [snm_weighting(manifold, x) for x in snapshots]
    else:
        scales = [None] * len(mats)
    terms = _penalty_terms(first, manifold, split)
    finite = [bool(np.isfinite(r).all()) for r in mats]
    specs = [
        ProblemSpec(r, a, tuple(replace(t, weight=t.weight * m.gamma, scale=q) for t in terms))
        for r, m, q, ok in zip(mats, methods, scales, finite, strict=True) if ok
    ]
    solve = (smooth_solve if kind is BeamformerKind.MSPR_RELAXED
             else admm_solve if kind is BeamformerKind.WEIGHTED_SPARSE else cone_solve)
    solved = iter(_in_slices(lambda batch: solve(batch, options), specs))
    return [_weights(next(solved)) if ok
            else WeightVector(np.full(a.size, np.nan, dtype=complex), math.nan, SolverStatus.NUMERICAL_FAILURE, 0)
            for ok in finite]


def _in_slices(solve, problems: list) -> list:
    """solve(batch) over consecutive slices of at most ``_BATCH_CAP``
    problems, with the results in input order."""
    return [out for lo in range(0, len(problems), _BATCH_CAP) for out in solve(problems[lo:lo + _BATCH_CAP])]


def solve_method(
    method: BeamformerSpec,
    r,
    manifold: ArrayManifold,
    split: ManifoldSplit,
    a: np.ndarray,
    x: np.ndarray | None = None,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """Solve one BeamformerSpec against one covariance estimate: the
    one-trial case of ``solve_trials``, raising NumericalError where a batch
    would report a failed trial.

    ``x`` (the M x K snapshots, or the M x 1 mean snapshot, which gives the
    same SNM weights) is required only by WEIGHTED_SPARSE, whose SNM weights
    ``solve_trials`` forms from it.
    """
    out = solve_trials([method], [r], manifold, split, a, None if x is None else [x], options)[0]
    if out.status is SolverStatus.NUMERICAL_FAILURE:
        raise NumericalError(f"{method.kind.value} solve failed numerically")
    return out

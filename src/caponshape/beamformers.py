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
stacked forward/backward order-i finite-difference matrices. Convex kinds go
through admm_solve and MSPR_RELAXED through the smooth nonconvex path
(smooth_solve, initialized at the closed form), each batched across trials
or gammas by solve_trials.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

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
    smooth_solve,
)

__all__ = [
    "BeamformerKind",
    "BeamformerSpec",
    "WeightVector",
    "capon_closed_form",
    "sparse_capon",
    "weighted_sparse_capon",
    "mixed_norm_capon",
    "tvm_capon",
    "mspr_capon",
    "resolve_split",
    "solve_method",
    "solve_trials",
]


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
            raise ValueError("CAPON takes no gamma")
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
    ridge. ``subgrad_residual`` is the solver's stationarity certificate,
    its ``SolverResult.dual_residual``; the closed form has none and reports
    0.
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


def capon_closed_form(r, a: np.ndarray) -> WeightVector:
    """Minimum-variance distortionless weights w = R^-1 a / (a^H R^-1 a).

    A singular covariance gets one rescue attempt with a ridge of
    1e-12 * trace(R)/M (flagged on the result); failure past that raises
    NumericalError.
    """
    mat = _covariance_matrix(r)
    a = np.asarray(a, dtype=complex).ravel()
    if a.size != mat.shape[0]:
        raise ValueError("steering vector length does not match the covariance")
    ridged = False
    try:
        x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(mat), a)
    except (scipy.linalg.LinAlgError, ValueError):
        ridge = 1e-12 * float(np.real(np.trace(mat))) / mat.shape[0]
        try:
            x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(mat + ridge * np.eye(mat.shape[0])), a)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NumericalError("covariance is singular beyond the ridge rescue") from exc
        ridged = True
    denom = np.real(a.conj() @ x)
    if not np.isfinite(denom) or denom <= 0:
        raise NumericalError("covariance is singular beyond the ridge rescue")
    w = x / denom
    return WeightVector(
        weights=w,
        constraint_residual=abs(w.conj() @ a - 1.0),
        status=SolverStatus.CONVERGED,
        iterations=0,
        ridged=ridged,
    )


def sparse_capon(
    r,
    manifold: ArrayManifold,
    a: np.ndarray,
    gamma: float,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """min w^H R w + gamma * ||A^H w||_1  s.t.  w^H a = 1."""
    return solve_method(BeamformerSpec(BeamformerKind.SPARSE, gamma), r, manifold, None, a, None, options)


def weighted_sparse_capon(
    r,
    manifold: ArrayManifold,
    x: np.ndarray,
    a: np.ndarray,
    gamma: float,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """min w^H R w + gamma * ||Q A^H w||_1 with the SNM weighting Q built
    from the snapshots x."""
    return solve_method(BeamformerSpec(BeamformerKind.WEIGHTED_SPARSE, gamma), r, manifold, None, a, x, options)


def mixed_norm_capon(
    r,
    split: ManifoldSplit,
    a: np.ndarray,
    gamma: float,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """min w^H R w + gamma * (||A_M^H w||_inf + ||A_S^H w||_1)."""
    return solve_method(BeamformerSpec(BeamformerKind.MIXED_NORM, gamma), r, None, split, a, None, options)


def tvm_capon(
    r,
    manifold: ArrayManifold,
    split: ManifoldSplit,
    a: np.ndarray,
    gamma: float,
    orders: int = 2,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """min w^H R w + gamma * (sum_{i<=orders} ||D_i A^H w||_2 + ||A_S^H w||_1).

    Each difference order contributes a single L2 norm of the whole stacked
    forward/backward difference of the pattern, so every order is one
    GROUP_L2 penalty with one group, built from the forward block alone.
    """
    method = BeamformerSpec(BeamformerKind.TVM_SPARSE, gamma, tv_orders=orders)
    return solve_method(method, r, manifold, split, a, None, options)


def mspr_capon(
    r,
    split: ManifoldSplit,
    a: np.ndarray,
    gamma: float,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """min w^H R w + gamma * ((||A_M^H w||^2 - 1)^2 + ||A_S^H w||^2).

    Smooth but nonconvex; starts from the closed-form point and descends to
    a stationary point. The sidelobe term is a squared L2 norm and is folded
    into the quadratic by the solver.
    """
    return solve_method(BeamformerSpec(BeamformerKind.MSPR_RELAXED, gamma), r, None, split, a, None, options)


def _convex_terms(method: BeamformerSpec, manifold: ArrayManifold, split: ManifoldSplit) -> tuple:
    """The penalty terms of a method solved by ADMM, at gamma = 1 (each
    problem scales their weights by its own gamma). WEIGHTED_SPARSE's SNM
    weights are per trial, so they enter as the column scale of its one term
    (Q A^H w = (A Q)^H w since Q = diag(q) is real)."""
    kind = method.kind
    if kind in (BeamformerKind.SPARSE, BeamformerKind.WEIGHTED_SPARSE):
        return (PenaltyTerm(operator=manifold.matrix, kind=PenaltyKind.L1, weight=1.0),)
    if kind is BeamformerKind.MIXED_NORM:
        split = resolve_split(method, manifold, split)
        return (
            PenaltyTerm(operator=split.a_main, kind=PenaltyKind.LINF, weight=1.0),
            PenaltyTerm(operator=split.a_side, kind=PenaltyKind.L1, weight=1.0),
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
    snm=None,
    options: SolverOptions = SolverOptions(),
) -> list:
    """Solve each covariance estimate of a batch with its own BeamformerSpec,
    returning one WeightVector per covariance.

    ``methods`` holds one spec per covariance, all of one kind with the same
    ``b`` and ``tv_orders``; their gammas are free but must be resolved (not
    auto). A batch of Monte Carlo trials repeats one spec over many
    covariances; a gamma sweep repeats one covariance over a grid of gammas.
    ``snm`` holds each covariance's SNM weight vector (see
    ``snm_weighting``) and is required only by WEIGHTED_SPARSE. The ADMM
    kinds build their penalty terms once and reweight them per problem, so
    the batch shares the operator objects and solves in one ``admm_solve``,
    where a gamma-0 problem ends at the closed form. MSPR_RELAXED solves in
    one ``smooth_solve`` batch, each problem started at its closed form;
    CAPON solves one by one. A problem that fails numerically comes back
    with status NUMERICAL_FAILURE rather than raising, so it fails alone.
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
    if kind is BeamformerKind.CAPON:
        return _each_trial(lambda r, gamma: capon_closed_form(r, a), mats, methods, a.size)
    if any(m.gamma is None for m in methods):
        raise ValueError(f"{kind.name} needs a resolved gamma (got auto)")
    if kind is BeamformerKind.MSPR_RELAXED:
        return _mspr_trials(methods, mats, resolve_split(first, manifold, split), a, options)
    terms = _convex_terms(first, manifold, split)
    if kind is BeamformerKind.WEIGHTED_SPARSE:
        if snm is None:
            raise ValueError("WEIGHTED_SPARSE needs the snapshots (their SNM weights)")
        scales = list(snm)
    else:
        scales = [None] * len(mats)
    specs = [
        ProblemSpec(r, a, tuple(replace(t, weight=t.weight * m.gamma, scale=q) for t in terms))
        for r, m, q in zip(mats, methods, scales, strict=True)
    ]
    return [_weights(result) for result in admm_solve(specs, options)]


def _mspr_trials(methods: list, mats: list, split: ManifoldSplit, a: np.ndarray, options: SolverOptions) -> list:
    """MSPR_RELAXED for each covariance, started at its closed form: one
    ``smooth_solve`` batch over the trials whose closed form exists (a trial
    without one fails alone)."""
    out = _each_trial(lambda r, gamma: capon_closed_form(r, a), mats, methods, a.size)
    solvable = [t for t, start in enumerate(out) if start.status is not SolverStatus.NUMERICAL_FAILURE]
    if solvable:
        specs = [
            ProblemSpec(mats[t], a, (
                PenaltyTerm(operator=split.a_main, kind=PenaltyKind.QUARTIC_UNIT, weight=methods[t].gamma),
                PenaltyTerm(operator=split.a_side, kind=PenaltyKind.SQUARED_L2, weight=methods[t].gamma),
            ))
            for t in solvable
        ]
        results = smooth_solve(specs, options, w_init=[out[t].weights for t in solvable])
        for t, result in zip(solvable, results):
            out[t] = _weights(result)
    return out


def _each_trial(solve, mats: list, methods: list, size: int) -> list:
    """``solve(r, gamma)`` for each covariance r and its method's gamma; a
    NumericalError fails that problem alone."""
    out = []
    for r, method in zip(mats, methods):
        try:
            out.append(solve(r, method.gamma))
        except NumericalError:
            out.append(WeightVector(np.full(size, np.nan, dtype=complex), math.nan,
                                    SolverStatus.NUMERICAL_FAILURE, 0))
    return out


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

    ``x`` (the raw snapshots) is required only by WEIGHTED_SPARSE.
    """
    snm = None
    if method.kind is BeamformerKind.WEIGHTED_SPARSE and x is not None:
        snm = [snm_weighting(manifold, x)]
    out = solve_trials([method], [r], manifold, split, a, snm, options)[0]
    if out.status is SolverStatus.NUMERICAL_FAILURE:
        raise NumericalError(f"{method.kind.value} solve failed numerically")
    return out

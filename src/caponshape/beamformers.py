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
through admm_solve, batched across trials by solve_trials; MSPR_RELAXED takes
the smooth nonconvex path initialized at the closed form, trial by trial.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .arrays import ArrayManifold, CovarianceEstimate, ManifoldSplit, difference_operator, snm_weighting, split_manifold
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
        if self.gamma is not None and self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
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

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        if self.kind is not BeamformerKind.CAPON:
            doc["gamma"] = "auto" if self.gamma is None else self.gamma
        if self.b is not None:
            doc["b"] = self.b
        if self.tv_orders is not None:
            doc["tv_orders"] = self.tv_orders
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "BeamformerSpec":
        try:
            kind_name = str(doc["kind"]).lower()
        except KeyError as exc:
            raise ValueError("method entry is missing 'kind'") from exc
        try:
            kind = BeamformerKind(kind_name)
        except ValueError as exc:
            names = ", ".join(k.value for k in BeamformerKind)
            raise ValueError(f"unknown beamformer kind {doc['kind']!r} (expected one of {names})") from exc
        gamma = doc.get("gamma")
        if gamma in ("auto", None):
            gamma = None
        else:
            try:
                gamma = float(gamma)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"gamma must be a number or 'auto', got {doc['gamma']!r}") from exc
        b = doc.get("b")
        tv_orders = doc.get("tv_orders")
        return cls(
            kind=kind,
            gamma=gamma,
            b=None if b is None else int(b),
            tv_orders=None if tv_orders is None else int(tv_orders),
        )


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Beamformer weights with solve metadata.

    ``constraint_residual`` is |w^H a - 1| at the presumed steering vector;
    ``ridged`` flags a closed-form solve that needed the singularity-rescue
    ridge.
    """

    weights: np.ndarray
    constraint_residual: float
    status: SolverStatus
    iterations: int
    objective: float
    ridged: bool = False


def _covariance_matrix(r) -> np.ndarray:
    mat = r.matrix if isinstance(r, CovarianceEstimate) else np.asarray(r)
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"covariance must be square, got shape {mat.shape}")
    return mat


def _weights(result: SolverResult) -> WeightVector:
    return WeightVector(
        weights=result.w,
        constraint_residual=result.constraint_residual,
        status=result.status,
        iterations=result.iterations,
        objective=result.objective,
    )


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
        objective=float(np.real(w.conj() @ mat @ w)),
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


def _mspr(r, a: np.ndarray, split: ManifoldSplit, gamma: float, options: SolverOptions) -> WeightVector:
    terms = (
        PenaltyTerm(operator=split.a_main, kind=PenaltyKind.QUARTIC_UNIT, weight=gamma),
        PenaltyTerm(operator=split.a_side, kind=PenaltyKind.SQUARED_L2, weight=gamma),
    )
    spec = ProblemSpec(_covariance_matrix(r), a, terms)
    init = capon_closed_form(r, a)
    return _weights(smooth_solve(spec, options, w_init=init.weights))


def _convex_terms(method: BeamformerSpec, manifold: ArrayManifold, split: ManifoldSplit) -> tuple:
    """The penalty terms of a method solved by ADMM. WEIGHTED_SPARSE's SNM
    weights are per trial, so they enter as the column scale of its one term
    (Q A^H w = (A Q)^H w since Q = diag(q) is real)."""
    kind, gamma = method.kind, method.gamma
    if kind in (BeamformerKind.SPARSE, BeamformerKind.WEIGHTED_SPARSE):
        return (PenaltyTerm(operator=manifold.matrix, kind=PenaltyKind.L1, weight=gamma),)
    if kind is BeamformerKind.MIXED_NORM:
        split = resolve_split(method, manifold, split)
        return (
            PenaltyTerm(operator=split.a_main, kind=PenaltyKind.LINF, weight=gamma),
            PenaltyTerm(operator=split.a_side, kind=PenaltyKind.L1, weight=gamma),
        )
    if kind is BeamformerKind.TVM_SPARSE:
        n = manifold.angles_deg.size
        terms = []
        for i in range(1, (2 if method.tv_orders is None else method.tv_orders) + 1):
            f = difference_operator(i, n)
            # D_i = [F; flip(F)] and flip(F) = (-1)^i F, so ||D_i p|| = sqrt(2) ||F p||;
            # v = F A^H w, so the operator is A F^T (F is real)
            terms.append(
                PenaltyTerm(operator=manifold.matrix @ f.T, kind=PenaltyKind.GROUP_L2, weight=math.sqrt(2.0) * gamma)
            )
        terms.append(PenaltyTerm(operator=split.a_side, kind=PenaltyKind.L1, weight=gamma))
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
    method: BeamformerSpec,
    covariances,
    manifold: ArrayManifold,
    split: ManifoldSplit,
    a: np.ndarray,
    snm=None,
    options: SolverOptions = SolverOptions(),
) -> list:
    """Solve one BeamformerSpec against each covariance estimate of a batch
    of trials, returning one WeightVector per trial.

    ``snm`` holds each trial's SNM weight vector (see ``snm_weighting``) and
    is required only by WEIGHTED_SPARSE; ``method.gamma`` must already be
    resolved (not auto). The ADMM kinds solve every trial in one batched
    ``admm_solve``; CAPON and MSPR_RELAXED solve trial by trial. A trial
    that fails numerically comes back with status NUMERICAL_FAILURE rather
    than raising, so it fails alone.
    """
    kind = method.kind
    mats = [_covariance_matrix(r) for r in covariances]
    a = np.asarray(a, dtype=complex).ravel()
    if kind is BeamformerKind.CAPON:
        return _each_trial(capon_closed_form, mats, a)
    if method.gamma is None:
        raise ValueError(f"{kind.name} needs a resolved gamma (got auto)")
    if kind is BeamformerKind.MSPR_RELAXED:
        return _each_trial(_mspr, mats, a, resolve_split(method, manifold, split), method.gamma, options)
    terms = _convex_terms(method, manifold, split)
    if kind is BeamformerKind.WEIGHTED_SPARSE:
        if snm is None:
            raise ValueError("WEIGHTED_SPARSE needs the snapshots (their SNM weights)")
        specs = [ProblemSpec(r, a, (replace(terms[0], scale=q),)) for r, q in zip(mats, snm, strict=True)]
    else:
        specs = [ProblemSpec(r, a, terms) for r in mats]
    return [_weights(result) for result in admm_solve(specs, options)]


def _each_trial(solve, mats: list, a: np.ndarray, *args) -> list:
    """``solve(r, a, *args)`` for each covariance r; a NumericalError fails
    that trial alone."""
    out = []
    for r in mats:
        try:
            out.append(solve(r, a, *args))
        except NumericalError:
            out.append(WeightVector(np.full(a.size, np.nan, dtype=complex), math.nan,
                                    SolverStatus.NUMERICAL_FAILURE, 0, math.nan))
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
    out = solve_trials(method, [r], manifold, split, a, snm, options)[0]
    if out.status is SolverStatus.NUMERICAL_FAILURE:
        raise NumericalError(f"{method.kind.value} solve failed numerically")
    return out

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
through admm_solve; MSPR_RELAXED takes the smooth nonconvex path initialized
at the closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


def _wrap(result: SolverResult) -> WeightVector:
    if result.status is SolverStatus.NUMERICAL_FAILURE:
        raise NumericalError("solver reported a numerical failure")
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
    term = PenaltyTerm(operator=manifold.matrix, kind=PenaltyKind.L1, weight=gamma)
    spec = ProblemSpec(_covariance_matrix(r), a, (term,))
    return _wrap(admm_solve(spec, options))


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
    q = snm_weighting(manifold, x)
    # Q A^H w = (A Q)^H w since Q = diag(q) is real
    term = PenaltyTerm(operator=manifold.matrix * q[np.newaxis, :], kind=PenaltyKind.L1, weight=gamma)
    spec = ProblemSpec(_covariance_matrix(r), a, (term,))
    return _wrap(admm_solve(spec, options))


def mixed_norm_capon(
    r,
    split: ManifoldSplit,
    a: np.ndarray,
    gamma: float,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """min w^H R w + gamma * (||A_M^H w||_inf + ||A_S^H w||_1)."""
    terms = (
        PenaltyTerm(operator=split.a_main, kind=PenaltyKind.LINF, weight=gamma),
        PenaltyTerm(operator=split.a_side, kind=PenaltyKind.L1, weight=gamma),
    )
    spec = ProblemSpec(_covariance_matrix(r), a, terms)
    return _wrap(admm_solve(spec, options))


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
    if not 1 <= orders <= 3:
        raise ValueError(f"orders must be in 1..3, got {orders}")
    n = manifold.angles_deg.size
    terms = []
    for i in range(1, orders + 1):
        f = difference_operator(i, n)
        # D_i = [F; flip(F)] and flip(F) = (-1)^i F, so ||D_i p|| = sqrt(2) ||F p||;
        # v = F A^H w, so the operator is A F^T (F is real)
        terms.append(
            PenaltyTerm(operator=manifold.matrix @ f.T, kind=PenaltyKind.GROUP_L2, weight=math.sqrt(2.0) * gamma)
        )
    terms.append(PenaltyTerm(operator=split.a_side, kind=PenaltyKind.L1, weight=gamma))
    spec = ProblemSpec(_covariance_matrix(r), a, tuple(terms))
    return _wrap(admm_solve(spec, options))


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
    terms = (
        PenaltyTerm(operator=split.a_main, kind=PenaltyKind.QUARTIC_UNIT, weight=gamma),
        PenaltyTerm(operator=split.a_side, kind=PenaltyKind.SQUARED_L2, weight=gamma),
    )
    spec = ProblemSpec(_covariance_matrix(r), a, terms)
    init = capon_closed_form(r, a)
    return _wrap(smooth_solve(spec, options, w_init=init.weights))


def resolve_split(method: BeamformerSpec, manifold: ArrayManifold, split: ManifoldSplit) -> ManifoldSplit:
    """The split a method uses: ``split`` itself, or one re-centred on the
    same grid angle with the method's own mainlobe half-width ``b``."""
    if method.b is None or method.b == split.b:
        return split
    center_deg = float(manifold.angles_deg[split.center_index])
    return split_manifold(manifold, center_deg, method.b)


def solve_method(
    method: BeamformerSpec,
    r,
    manifold: ArrayManifold,
    split: ManifoldSplit,
    a: np.ndarray,
    x: np.ndarray | None = None,
    options: SolverOptions = SolverOptions(),
) -> WeightVector:
    """Dispatch one BeamformerSpec against a covariance estimate.

    ``x`` (the raw snapshots) is required only by WEIGHTED_SPARSE;
    ``method.gamma`` must already be resolved (not auto).
    """
    kind = method.kind
    if kind is BeamformerKind.CAPON:
        return capon_closed_form(r, a)
    if method.gamma is None:
        raise ValueError(f"{kind.name} needs a resolved gamma (got auto)")
    if kind is BeamformerKind.SPARSE:
        return sparse_capon(r, manifold, a, method.gamma, options)
    if kind is BeamformerKind.WEIGHTED_SPARSE:
        if x is None:
            raise ValueError("WEIGHTED_SPARSE needs the snapshot matrix")
        return weighted_sparse_capon(r, manifold, x, a, method.gamma, options)
    if kind is BeamformerKind.MIXED_NORM:
        return mixed_norm_capon(r, resolve_split(method, manifold, split), a, method.gamma, options)
    if kind is BeamformerKind.TVM_SPARSE:
        orders = 2 if method.tv_orders is None else method.tv_orders
        return tvm_capon(r, manifold, split, a, method.gamma, orders, options)
    if kind is BeamformerKind.MSPR_RELAXED:
        return mspr_capon(r, resolve_split(method, manifold, split), a, method.gamma, options)
    raise AssertionError(kind)

"""
Uniform linear array model: steering vectors, manifolds, snapshot synthesis,
covariance estimation, and the finite-difference operators used by the
pattern-shaping penalties.

A snapshot draw is a mixing matrix times the real standard normals of the
scenario's seed. ``synthesize_snapshots`` forms the M x K product; the Monte
Carlo runs keep a draw as its moments (``snapshot_moments``), taken from the
Gram matrix and the row means of the normals, and never form it. The normals
do not depend on the source directions, so one draw of a seed gives the
moments for any number of SOI directions.

All angles are in degrees in [-90, 90]; powers are linear unless a name says
otherwise. Every function here is pure: randomness enters only through the
explicit seed carried by a :class:`Scenario`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ArrayGeometry",
    "SourceSpec",
    "Scenario",
    "ArrayManifold",
    "ManifoldSplit",
    "SnapshotMatrix",
    "steering_vector",
    "build_manifold",
    "split_manifold",
    "synthesize_snapshots",
    "snapshot_moments",
    "sample_covariance",
    "snm_weighting",
    "difference_operator",
    "db_to_linear",
    "linear_to_db",
]


def db_to_linear(power_db: float) -> float:
    return 10.0 ** (power_db / 10.0)


def linear_to_db(power: float) -> float:
    return 10.0 * math.log10(power)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: sensor count and spacing as a fraction of
    wavelength (d/lambda, dimensionless)."""

    num_sensors: int
    spacing_ratio: float

    def __post_init__(self):
        if self.num_sensors < 2:
            raise ValueError(f"need at least 2 sensors, got {self.num_sensors}")
        if not (math.isfinite(self.spacing_ratio) and self.spacing_ratio > 0):
            raise ValueError(f"spacing_ratio must be finite and positive, got {self.spacing_ratio}")


@dataclass(frozen=True)
class SourceSpec:
    """A far-field point source: direction of arrival and linear power."""

    doa_deg: float
    power: float

    def __post_init__(self):
        if not -90.0 <= self.doa_deg <= 90.0:
            raise ValueError(f"doa_deg must lie in [-90, 90], got {self.doa_deg}")
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"power must be finite and positive, got {self.power}")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulated reception: array, signal of
    interest, interferers, white-noise power per sensor, snapshot count, the
    presumed (possibly mismatched) SOI direction, and the RNG seed.
    """

    geometry: ArrayGeometry
    soi: SourceSpec
    interferers: tuple[SourceSpec, ...]
    noise_power: float
    num_snapshots: int
    presumed_doa_deg: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError(f"noise_power must be finite and positive, got {self.noise_power}")
        if self.num_snapshots < 1:
            raise ValueError(f"num_snapshots must be >= 1, got {self.num_snapshots}")
        if not -90.0 <= self.presumed_doa_deg <= 90.0:
            raise ValueError(f"presumed_doa_deg must lie in [-90, 90], got {self.presumed_doa_deg}")
        doas = [s.doa_deg for s in self.interferers]
        if len(set(doas)) != len(doas):
            raise ValueError(f"interferer DOAs must be distinct, got {doas}")

    def with_soi_doa(self, doa_deg: float) -> "Scenario":
        return replace(self, soi=SourceSpec(doa_deg=doa_deg, power=self.soi.power))

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


@dataclass(frozen=True, eq=False)
class ArrayManifold:
    """Steering matrix sampled on a regular angle grid.

    ``matrix`` is M x N complex; column n is the steering vector for
    ``angles_deg[n]``. Entries have unit modulus and the first row is all
    ones, so every column has Euclidean norm sqrt(M).
    """

    angles_deg: np.ndarray
    matrix: np.ndarray
    grid_step_deg: float


@dataclass(frozen=True, eq=False)
class ManifoldSplit:
    """Partition of a manifold's columns into a mainlobe window of 2b+1
    angles around the presumed direction and the complementary sidelobe set.

    ``truncated`` is set when the window was clipped at a grid edge, in which
    case the mainlobe holds fewer than 2b+1 columns.
    """

    mainlobe_indices: np.ndarray
    sidelobe_indices: np.ndarray
    b: int
    truncated: bool
    a_main: np.ndarray
    a_side: np.ndarray
    center_index: int = 0


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """M x K received snapshots plus the ground-truth SOI amplitudes that
    generated them (kept for diagnostics)."""

    data: np.ndarray
    soi_amplitudes: np.ndarray


def steering_vector(geometry: ArrayGeometry, doa_deg: float) -> np.ndarray:
    """Phase response of the array to a plane wave from ``doa_deg``.

    Element m (m = 0..M-1) is exp(1j * m * 2*pi * (d/lambda) * sin(theta)).

    Parameters
    ----------
    geometry : ArrayGeometry
    doa_deg : float
        Direction of arrival in degrees, in [-90, 90].

    Returns
    -------
    np.ndarray
        Complex vector of length M with unit-modulus entries.
    """
    if not -90.0 <= doa_deg <= 90.0:
        raise ValueError(f"doa_deg must lie in [-90, 90], got {doa_deg}")
    phase = 2.0 * np.pi * geometry.spacing_ratio * np.sin(np.deg2rad(doa_deg))
    return np.exp(1j * phase * np.arange(geometry.num_sensors))


def build_manifold(
    geometry: ArrayGeometry,
    min_deg: float = -90.0,
    max_deg: float = 90.0,
    step_deg: float = 1.0,
) -> ArrayManifold:
    """Steering matrix over the regular grid min_deg, min_deg+step, ..., max_deg.

    The step must divide the span exactly (to within 1e-9 of a grid count);
    the grid then has (max-min)/step + 1 angles.
    """
    if step_deg <= 0:
        raise ValueError(f"step_deg must be positive, got {step_deg}")
    if not min_deg < max_deg:
        raise ValueError(f"need min_deg < max_deg, got [{min_deg}, {max_deg}]")
    span = max_deg - min_deg
    count = span / step_deg
    if abs(count - round(count)) > 1e-9:
        raise ValueError(f"step {step_deg} does not divide the span [{min_deg}, {max_deg}]")
    n = int(round(count)) + 1
    angles = np.linspace(min_deg, max_deg, n)
    phases = 2.0 * np.pi * geometry.spacing_ratio * np.sin(np.deg2rad(angles))
    matrix = np.exp(1j * np.outer(np.arange(geometry.num_sensors), phases))
    return ArrayManifold(angles_deg=angles, matrix=matrix, grid_step_deg=float(step_deg))


def split_manifold(manifold: ArrayManifold, presumed_doa_deg: float, b: int) -> ManifoldSplit:
    """Partition the manifold into a mainlobe window of up to 2b+1 columns
    centered on the grid angle nearest ``presumed_doa_deg`` and the rest.

    The window is truncated (never wrapped) at the grid edges; truncation is
    recorded in the ``truncated`` flag.
    """
    n = manifold.angles_deg.size
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    if 2 * b + 1 > n:
        raise ValueError(f"mainlobe window 2*{b}+1 exceeds the {n}-point grid")
    center = int(np.argmin(np.abs(manifold.angles_deg - presumed_doa_deg)))
    lo = max(0, center - b)
    hi = min(n - 1, center + b)
    mainlobe = np.arange(lo, hi + 1)
    sidelobe = np.concatenate([np.arange(0, lo), np.arange(hi + 1, n)])
    return ManifoldSplit(
        mainlobe_indices=mainlobe,
        sidelobe_indices=sidelobe,
        b=b,
        truncated=mainlobe.size < 2 * b + 1,
        a_main=manifold.matrix[:, mainlobe],
        a_side=manifold.matrix[:, sidelobe],
        center_index=center,
    )


def _mixing(scenario: Scenario) -> np.ndarray:
    """The complex M x (2S + 2M) matrix that maps a draw's normals to its
    snapshots: columns sqrt(p/2) a and i sqrt(p/2) a per source of power p
    and steering vector a (the SOI, then each interferer in listed order),
    then sqrt(sigma^2/2) I and i sqrt(sigma^2/2) I for the noise."""
    geom = scenario.geometry
    columns = [math.sqrt(source.power / 2.0) * steering_vector(geom, source.doa_deg)
               for source in (scenario.soi,) + scenario.interferers]
    noise = math.sqrt(scenario.noise_power / 2.0) * np.eye(geom.num_sensors)
    return np.column_stack([part for column in columns for part in (column, 1j * column)] + [noise, 1j * noise])


def _normals(scenario: Scenario) -> np.ndarray:
    """The real (2S + 2M) x K standard normals of the scenario's seed, one
    row per column of ``_mixing``: the real and imaginary parts of the SOI
    amplitudes, then of each interferer's, then of the noise, one sensor per
    row. They depend on the seed and the source count, not on the DOAs."""
    rows = 2 * (1 + len(scenario.interferers) + scenario.geometry.num_sensors)
    return np.random.default_rng(scenario.seed).standard_normal((rows, scenario.num_snapshots))


def synthesize_snapshots(scenario: Scenario) -> SnapshotMatrix:
    """Draw K snapshots x(k) = s(k) a(theta_0) + sum_j beta_j(k) a(theta_j) + n(k).

    SOI and interferer amplitudes are zero-mean circular complex Gaussians
    with the scenario's linear powers; the noise is spatially white with
    ``noise_power`` per sensor. Steering vectors use the exact (not
    grid-snapped) source angles. The draw order is fixed (SOI, interferers in
    listed order, noise) so the result is a pure function of the scenario.
    """
    normals = _normals(scenario)
    soi = math.sqrt(scenario.soi.power / 2.0) * (normals[0] + 1j * normals[1])
    return SnapshotMatrix(data=_mixing(scenario) @ normals, soi_amplitudes=soi)


def snapshot_moments(scenario: Scenario, soi_doas_deg=None):
    """The M x M sample covariance and the length-M mean snapshot of the
    scenario's draw, without forming its M x K snapshot matrix.

    With the draw X = C Y (C the mixing matrix, Y the normals), the
    covariance is C (Y Y^T / K) C^H, symmetrized to be exactly Hermitian,
    and the mean snapshot is C times the row means of Y. They equal
    ``sample_covariance`` and the column mean of
    ``synthesize_snapshots(scenario).data`` up to rounding.

    With ``soi_doas_deg`` None this returns one (covariance, mean) pair, for
    the scenario's own SOI direction. With a sequence of directions it
    returns a list of one pair per direction, each equal bit for bit to the
    pair of ``scenario.with_soi_doa(doa)``: the seed is drawn once, and Y Y^T
    / K and the row means of Y serve every direction, which changes only the
    two SOI columns of C.
    """
    doas = [scenario.soi.doa_deg] if soi_doas_deg is None else list(soi_doas_deg)
    normals = _normals(scenario)
    gram = (normals @ normals.T) / normals.shape[1]
    row_means = normals.mean(axis=1)
    moments = []
    for doa in doas:
        mixing = _mixing(scenario.with_soi_doa(doa))
        r = mixing @ gram @ mixing.conj().T
        moments.append((0.5 * (r + r.conj().T), mixing @ row_means))
    return moments[0] if soi_doas_deg is None else moments


def sample_covariance(x: np.ndarray) -> np.ndarray:
    """Sample covariance (1/K) sum_k x(k) x(k)^H, an M x M matrix symmetrized
    to be exactly Hermitian."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"need an M x K snapshot matrix with K >= 1, got shape {x.shape}")
    k = x.shape[1]
    r = (x @ x.conj().T) / k
    return 0.5 * (r + r.conj().T)


def snm_weighting(manifold: ArrayManifold, x: np.ndarray) -> np.ndarray:
    """Squared-normalized-mean weights over the angle grid.

    For each row n of A^H X take the modulus of the complex mean over
    snapshots, normalize by the largest row value, and square. Directions
    with coherent received energy get weights near 1. The mean is linear in
    X, so ``x`` may be the M x 1 mean snapshot (see ``snapshot_moments``)
    in place of the M x K draw.

    Returns
    -------
    np.ndarray
        Real length-N vector q with entries in [0, 1], max entry 1; the
        weighting matrix of the paper is diag(q).
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != manifold.matrix.shape[0]:
        raise ValueError(f"snapshot matrix shape {x.shape} does not match the manifold")
    row_means = np.abs((manifold.matrix.conj().T @ x).mean(axis=1))
    peak = row_means.max()
    if peak == 0.0:
        raise ValueError("all-zero snapshots: SNM normalization undefined")
    return (row_means / peak) ** 2


def difference_operator(order: int, n: int) -> np.ndarray:
    """Order-th forward finite-difference matrix, (n - order) x n.

    Row r computes the signed binomial stencil
    sum_s (-1)^(order-s) C(order, s) v[r+s], so the matrix annihilates
    polynomial sequences of degree order-1. The backward difference (rows
    and columns reversed) equals (-1)^order times this matrix, so it adds
    nothing a norm of the forward difference does not already measure.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order >= n:
        raise ValueError(f"order {order} must be smaller than the sequence length {n}")
    stencil = np.array(
        [(-1) ** (order - s) * math.comb(order, s) for s in range(order + 1)], dtype=float
    )
    rows = n - order
    forward = np.zeros((rows, n))
    for r in range(rows):
        forward[r, r : r + order + 1] = stencil
    return forward


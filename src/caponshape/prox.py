"""
Proximal operators for the pattern-shaping penalties, in their natural
complex modulus/phase form.

``prox_h(v, t)`` returns the minimizer of (1/2)||x - v||^2 + t*h(x). Every
operator acts on the last axis, so a (T, n) array is T independent rows; the
threshold is a scalar or one value per row (shape v.shape[:-1]).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["prox_l1", "prox_linf", "prox_group_l2", "group_shrink", "project_l1_ball"]


def _per_row(t, name: str) -> np.ndarray:
    """A scalar or per-row threshold as an array that broadcasts over the
    last axis."""
    t = np.asarray(t, dtype=float)[..., np.newaxis]
    # a list minimum is cheaper than an array reduction for the few rows here
    if min(t.ravel().tolist()) < 0:
        raise ValueError(f"{name} must be >= 0, got {t[..., 0]}")
    return t


def prox_l1(v: np.ndarray, t) -> np.ndarray:
    """Elementwise complex soft threshold: shrink each modulus by t, keep the
    phase, zero anything inside the threshold."""
    t = _per_row(t, "threshold")
    v = np.asarray(v)
    # 1 - t/max(|v|, t) is the factor max(0, 1 - t/|v|), and 0 at a zero
    # entry; a zero threshold divides by max(|v|, 1) instead. The factor is
    # formed in one buffer.
    factor = np.maximum(np.abs(v), np.where(t > 0, t, 1.0))
    np.divide(t, factor, out=factor)
    np.subtract(1.0, factor, out=factor)
    return v * factor


def _water_level(mod: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-row water-filling level of the projection onto the L1 ball of
    radius r: the largest running threshold (S_j - r)/j over the partial sums
    S_j of the moduli sorted in decreasing order (the sort-based rule of
    Condat 2016, "Fast projection onto the simplex and the l1 ball"), floored
    at zero, so that it is zero for a row inside the ball."""
    running = (np.cumsum(np.sort(mod, axis=-1)[..., ::-1], axis=-1) - r) / np.arange(1, mod.shape[-1] + 1)
    return np.maximum(running.max(axis=-1, keepdims=True), 0.0)


def project_l1_ball(v: np.ndarray, radius) -> np.ndarray:
    """Euclidean projection of each row onto {x : sum |x_i| <= radius}.

    Moduli are shrunk by the water-filling level, so a row inside the ball
    keeps them. Phases are preserved.
    """
    r = _per_row(radius, "radius")
    v = np.asarray(v)
    mod = np.abs(v)
    # mod + (mod == 0) keeps zero entries zero without dividing by zero
    return v * (np.maximum(mod - _water_level(mod, r), 0.0) / (mod + (mod == 0)))


def prox_linf(v: np.ndarray, t) -> np.ndarray:
    """Prox of t*max_i |v_i|. By the Moreau decomposition it is v minus the
    projection of v onto the L1 ball of radius t, so each modulus is clipped
    at the ball's water-filling level (a row inside the ball becomes zero).
    Phases are preserved."""
    t = _per_row(t, "threshold")
    v = np.asarray(v)
    mod = np.abs(v)
    # theta/max(|v|, theta) is min(|v|, theta)/|v|, and 1 at a zero entry; a
    # zero level divides by max(|v|, 1) instead
    theta = _water_level(mod, t)
    return v * (theta / np.maximum(mod, np.where(theta > 0, theta, 1.0)))


def _shrink_factor(block: np.ndarray, t: np.ndarray) -> np.ndarray:
    """max(0, 1 - t/||block||) over the last axis, kept as a length-1 axis."""
    flat = np.ascontiguousarray(block, dtype=complex).view(float)
    norm = np.sqrt(flat[..., np.newaxis, :] @ flat[..., :, np.newaxis])[..., 0]
    return np.maximum(0.0, 1.0 - t / (norm + (norm == 0)))


def group_shrink(v: np.ndarray, groups: Sequence[np.ndarray], t) -> np.ndarray:
    """Blockwise shrinkage without validation; inner-loop form of
    prox_group_l2 for callers that have already checked the groups and the
    threshold."""
    t = np.asarray(t, dtype=float)[..., np.newaxis]
    v = np.asarray(v)
    if len(groups) == 1:  # a lone group holds every index
        return v * _shrink_factor(v, t)
    out = np.empty_like(v)
    for g in groups:
        block = v[..., g]
        out[..., g] = block * _shrink_factor(block, t)
    return out


def prox_group_l2(v: np.ndarray, groups: Sequence[np.ndarray], t) -> np.ndarray:
    """Blockwise shrinkage: each index group is scaled by
    max(0, 1 - t/||v_g||) (zeroed when its norm is inside the threshold).

    ``groups`` must partition the indices of v's last axis.
    """
    _per_row(t, "threshold")
    v = np.asarray(v)
    n = v.shape[-1]
    groups = [np.asarray(g).ravel() for g in groups]
    seen = np.concatenate(groups) if groups else np.array([])
    if seen.size != n or np.union1d(seen, np.arange(n)).size != n or np.unique(seen).size != seen.size:
        raise ValueError("groups must partition the indices of v")
    return group_shrink(v, groups, t)

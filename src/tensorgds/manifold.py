"""Product-manifold points and the weighted geodesic distance.

A sample is a tuple of per-mode subspaces, one point per factor Grassmann
manifold. The distance combines per-mode mean canonical angles through
per-mode weights; with all weights equal to 1 it reduces to the plain
product-manifold distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError
from .subspace import Subspace, canonical_correlations

@dataclass(frozen=True)
class ProductPoint:
    """One sample on the product manifold: an ordered tuple of per-mode
    subspaces, optionally carrying a class label."""

    parts: tuple[Subspace, ...]
    label: int | None = None

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise DimensionError("product point needs at least one part")
        object.__setattr__(self, "parts", parts)

    @property
    def bases(self) -> tuple[np.ndarray, ...]:
        return tuple(p.basis for p in self.parts)


@dataclass(frozen=True)
class WeightVector:
    """Non-negative per-mode weights; normalized vectors sum to 1."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=np.float64).ravel()
        if arr.size == 0:
            raise DimensionError("weight vector must be non-empty")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite and non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)


def mode_weights(scores: Sequence[float]) -> WeightVector:
    """Normalize per-mode separability scores into weights summing to 1."""
    arr = np.asarray(list(scores), dtype=np.float64)
    if arr.size == 0:
        raise DimensionError("need at least one score")
    if not np.all(np.isfinite(arr)):
        raise DegeneracyError(
            "scores contain non-finite values; resolve degenerate separability first"
        )
    if np.any(arr < 0):
        raise ValueError("scores must be non-negative")
    total = float(arr.sum())
    if total <= 0.0:
        raise DegeneracyError("scores sum to zero; weights are undefined")
    return WeightVector(arr / total)


def point_stacks(points: Sequence[ProductPoint]) -> tuple[np.ndarray, ...]:
    """Per mode, the (N, d, k) stack of the bases of `points`, in order; the
    points must share one mode count and, per mode, one basis shape."""
    if len({len(pt.parts) for pt in points}) > 1:
        raise DimensionError("points differ in mode count")
    stacks = []
    for i, bases in enumerate(zip(*(pt.bases for pt in points))):
        shapes = sorted({b.shape for b in bases})
        if len(shapes) > 1:
            raise DimensionError(f"part {i + 1}: bases of shapes {shapes} do not stack")
        stacks.append(np.stack(bases))
    return tuple(stacks)


def weighted_geodesics(
    left: Sequence[np.ndarray],
    right: Sequence[np.ndarray],
    weights: WeightVector,
    angle_counts: Sequence[int] | None = None,
    full_spectrum: bool = False,
) -> np.ndarray:
    """Weighted distances between the points of `left` and `right`, which
    hold per mode a (d, k) basis or an (N, d, k) stack of bases; the stacks
    broadcast, so one basis against N bases gives N distances and two
    N-stacks give N pairs. Each mode takes one SVD of its basis cross
    products.

    Per mode, the contribution is the mean of the first `angle_counts[i]`
    canonical angles (or all available angles when no counts are given),
    scaled by that mode's weight; the result is the Euclidean norm of the
    contributions. With `full_spectrum` the per-mode value is the root sum of
    squared angles instead of their mean.
    """
    n = len(left)
    if len(right) != n:
        raise DimensionError(f"mode counts differ: {n} vs {len(right)}")
    if weights.weights.size != n:
        raise DimensionError(
            f"weight count {weights.weights.size} does not match {n} modes"
        )
    if angle_counts is not None and len(angle_counts) != n:
        raise DimensionError(
            f"angle count vector has {len(angle_counts)} entries for {n} modes"
        )
    terms = np.empty(np.broadcast_shapes(*(np.shape(b)[:-2] for b in (*left, *right))) + (n,))
    for i, (p, q) in enumerate(zip(left, right)):
        count = None if angle_counts is None else int(angle_counts[i])
        angles = np.arccos(canonical_correlations(p, q, count))
        if full_spectrum:
            values = np.sqrt(np.sum(angles * angles, axis=-1))
        else:
            values = np.mean(angles, axis=-1)
        terms[..., i] = weights.weights[i] * values
    return np.sqrt(np.sum(terms * terms, axis=-1))

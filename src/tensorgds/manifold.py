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
from .subspace import Subspace, canonical_correlations, group_by_shape

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
    def mode_count(self) -> int:
        return len(self.parts)


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


def weighted_geodesics(
    query: ProductPoint,
    points: Sequence[ProductPoint],
    weights: WeightVector,
    angle_counts: Sequence[int] | None = None,
    full_spectrum: bool = False,
) -> np.ndarray:
    """Weighted distance from `query` to each of `points`.

    Per mode, the contribution is the mean of the first `angle_counts[i]`
    canonical angles (or all available angles when no counts are given),
    scaled by that mode's weight; the result is the Euclidean norm of the
    contributions. With `full_spectrum` the per-mode value is the root sum of
    squared angles instead of their mean.
    """
    n = query.mode_count
    if any(b.mode_count != n for b in points):
        raise DimensionError(f"mode counts differ from the query's {n}")
    if weights.weights.size != n:
        raise DimensionError(
            f"weight count {weights.weights.size} does not match {n} modes"
        )
    if angle_counts is not None and len(angle_counts) != n:
        raise DimensionError(
            f"angle count vector has {len(angle_counts)} entries for {n} modes"
        )
    terms = np.empty((len(points), n))
    for i in range(n):
        count = None if angle_counts is None else int(angle_counts[i])
        # One stack per basis shape: projection can leave a part narrower
        # than the rest, and padding it would change the SVD input.
        for idx, stack in group_by_shape([b.parts[i].basis for b in points]):
            angles = np.arccos(canonical_correlations(query.parts[i], stack, count))
            if full_spectrum:
                values = np.sqrt(np.sum(angles * angles, axis=1))
            else:
                values = np.mean(angles, axis=1)
            terms[idx, i] = weights.weights[i] * values
    if n == 1:
        # The single-factor metric is the bare weighted angle; skip the
        # square/sqrt round trip so the reduction is exact.
        return np.abs(terms[:, 0])
    return np.sqrt(np.sum(terms * terms, axis=1))

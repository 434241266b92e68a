"""Karcher means on the Grassmann manifold and the separability score that
rates how well per-mode subspaces split into classes.

The per-mode score is a ratio of geodesic spreads: the mean distance of the
class means to their overall mean (between), over the mean distance of every
sample subspace to its class mean (within). Per-mode between and within
values are averaged across modes first and divided last, so a single
degenerate mode cannot poison the combined score.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, KarcherConvergenceWarning
from .subspace import (
    Subspace,
    eigh_descending,
    geodesic_distance,
    projector_mean,
    qr_positive,
)

DEFAULT_KARCHER_TOL = 1e-8
DEFAULT_KARCHER_MAX_ITER = 100


@dataclass(frozen=True)
class FisherReport:
    """Separability of one mode: between / within geodesic spread.

    `flag` is None for a finite score, "infinite" when within is zero with
    positive between, and "indeterminate" when both collapse to zero.
    """

    mode: int
    between: float
    within: float
    score: float
    flag: str | None = None


@dataclass(frozen=True)
class NModeFisher:
    """Across-mode aggregate: means of the per-mode between and within values
    and their ratio."""

    per_mode: tuple[FisherReport, ...]
    between_n: float
    within_n: float
    score_n: float
    flag: str | None = None


def separability_ratio(between: float, within: float) -> tuple[float, str | None]:
    """Between over within, with the flag of `FisherReport`: zero within gives
    inf ("infinite") when between is positive and nan ("indeterminate")
    otherwise."""
    if within == 0.0:
        if between > 0.0:
            return math.inf, "infinite"
        return math.nan, "indeterminate"
    return between / within, None


def _log_map(base: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Tangent vectors at span(base) pointing toward the span of each basis
    in an (N, d, k) stack, as an (N, d, k) stack."""
    m = base.T @ stack
    g = (stack - base @ m) @ np.linalg.pinv(m)
    w, s, vt = np.linalg.svd(g, full_matrices=False)
    return (w * np.arctan(s)[:, None, :]) @ vt


def _exp_map(base: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Geodesic step from span(base) along a tangent vector."""
    w, s, vt = np.linalg.svd(tangent, full_matrices=False)
    y = (base @ vt.T) * np.cos(s) + w * np.sin(s)
    return qr_positive(y @ vt)


def karcher_mean(
    subspaces: Sequence[Subspace],
    tol: float = DEFAULT_KARCHER_TOL,
    max_iter: int = DEFAULT_KARCHER_MAX_ITER,
) -> Subspace:
    """Intrinsic mean of equal-dimension subspaces.

    Starts from the dominant eigenvectors of the averaged projectors and
    refines by averaging log maps and stepping along the exp map until the
    mean tangent norm drops below `tol`. If the iteration cap is reached, a
    KarcherConvergenceWarning is emitted and the best iterate seen (smallest
    mean tangent norm) is returned.
    """
    subs = list(subspaces)
    shapes = sorted({s.basis.shape for s in subs})
    if len(shapes) != 1:
        raise DimensionError(f"need subspaces of one shape, got shapes {shapes}")
    if len(subs) == 1:
        return subs[0]

    stack = np.stack([s.basis for s in subs])
    _, evecs = eigh_descending(projector_mean(subs))
    y = np.ascontiguousarray(evecs[:, : stack.shape[2]])

    best_y = y
    best_norm = math.inf
    step = 1.0
    prev_norm = math.inf
    for _ in range(max_iter):
        mean_tangent = _log_map(y, stack).sum(axis=0) / len(subs)
        tnorm = float(np.linalg.norm(mean_tangent))
        if tnorm < best_norm:
            best_y, best_norm = y, tnorm
        if tnorm < tol:
            return Subspace(y)
        if tnorm > prev_norm:
            # oscillation near the cut locus; damp the step
            step *= 0.5
        prev_norm = tnorm
        y = _exp_map(y, step * mean_tangent)
    warnings.warn(
        f"Karcher mean stopped after {max_iter} iterations "
        f"(mean tangent norm {best_norm:.3e} > tol {tol:.3e})",
        KarcherConvergenceWarning,
    )
    return Subspace(best_y)


def fisher_mode(
    subspaces_by_class: Sequence[Sequence[Subspace]],
    mode: int = 0,
    sim: Callable[[Subspace, Subspace], float] | None = None,
    karcher_tol: float = DEFAULT_KARCHER_TOL,
    karcher_max_iter: int = DEFAULT_KARCHER_MAX_ITER,
) -> FisherReport:
    """Between/within separability of one mode's class-grouped subspaces.

    `sim` is the subspace dissimilarity, defaulting to the geodesic distance;
    it enters the between and within sums only, so rescaling it leaves the
    score unchanged.
    """
    if sim is None:
        sim = geodesic_distance
    classes = [list(c) for c in subspaces_by_class]
    if len(classes) < 2:
        raise DimensionError(f"need at least 2 classes, got {len(classes)}")
    for j, c in enumerate(classes):
        if not c:
            raise DimensionError(f"class {j} has no subspaces")

    class_means = [
        karcher_mean(c, tol=karcher_tol, max_iter=karcher_max_iter) for c in classes
    ]
    grand_mean = karcher_mean(
        class_means, tol=karcher_tol, max_iter=karcher_max_iter
    )
    between = sum(sim(kj, grand_mean) for kj in class_means) / len(classes)
    total = sum(len(c) for c in classes)
    within = (
        sum(sim(s, kj) for c, kj in zip(classes, class_means) for s in c) / total
    )
    score, flag = separability_ratio(between, within)
    return FisherReport(mode, between, within, score, flag)


def nmode_fisher(reports: Sequence[FisherReport]) -> NModeFisher:
    """Aggregate per-mode reports: mean between over mean within."""
    reps = tuple(reports)
    if not reps:
        raise DimensionError("need at least one per-mode report")
    between_n = sum(r.between for r in reps) / len(reps)
    within_n = sum(r.within for r in reps) / len(reps)
    score, flag = separability_ratio(between_n, within_n)
    return NModeFisher(reps, between_n, within_n, score, flag)

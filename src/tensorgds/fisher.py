"""Karcher means on the Grassmann manifold and the separability score that
rates how well per-mode subspaces split into classes.

The per-mode score is a ratio of geodesic spreads: the mean distance of the
class means to their overall mean (between), over the mean distance of every
sample subspace to its class mean (within). Per-mode between and within
values are averaged across modes first and divided last, so a single
degenerate mode cannot poison the combined score.

Karcher steps use the closed-form log map
Log_Y(X) = (X - Y M) Q diag(theta / sin theta) P^T, with M = Y^T X =
P cos(Theta) Q^T (Edelman, Arias & Smith 1998, SIAM J. Matrix Anal. Appl.
20(2); Absil, Mahony & Sepulchre 2004, Acta Appl. Math. 80): one k x k SVD
per member and no inverse of M. arccos is inaccurate only for cosines near
1, where theta / sin theta is flat, so the factor's error is O(theta *
dtheta).
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
    group_by_shape,
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
    """Tangent vectors at each span in a (C, d, k) base toward the spans of
    its row of a (C, N, d, k) stack, as a (C, N, d, k) stack.

    In closed form, with M = Y^T X = P cos(Theta) Q^T the SVD of each k x k
    cross product, Log_Y(X) = (X - Y M) Q diag(theta / sin theta) P^T. The
    columns of (X - Y M) Q are orthogonal with norms sin theta, so this is
    the textbook W arctan(S) V^T of (X - Y M) M^-1 = W S V^T (Edelman, Arias
    & Smith 1998; Absil, Mahony & Sepulchre 2004) without forming M^-1. At
    the cut locus (a cosine of 0) the factor is pi/2 and the tangent reaches
    the member. arccos is inaccurate only near a cosine of 1, where theta /
    sin theta = 1 + theta^2 / 6 is flat, so the factor's error is
    O(theta * dtheta).
    """
    base = base[:, None]
    m = np.swapaxes(base, -1, -2) @ stack
    p, c, qt = np.linalg.svd(m)
    theta = np.arccos(np.clip(c, 0.0, 1.0))
    # theta / sin(theta), exactly 1 at theta = 0
    scale = 1.0 / np.sinc(theta / np.pi)
    w = (stack - base @ m) @ np.swapaxes(qt, -1, -2)
    return (w * scale[..., None, :]) @ np.swapaxes(p, -1, -2)


def _exp_map(base: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Geodesic step from each span(base) along its tangent, both (C, d, k)."""
    w, s, vt = np.linalg.svd(tangent, full_matrices=False)
    s = s[..., None, :]
    y = (base @ np.swapaxes(vt, -1, -2)) * np.cos(s) + w * np.sin(s)
    return qr_positive(y @ vt)


def karcher_means(
    sets: Sequence[Sequence[Subspace]],
    tol: float = DEFAULT_KARCHER_TOL,
    max_iter: int = DEFAULT_KARCHER_MAX_ITER,
) -> list[Subspace]:
    """Intrinsic mean of each set of equal-dimension subspaces.

    A mean starts from the dominant eigenvectors of its set's averaged
    projectors and steps along the exp map of the mean log map until the mean
    tangent norm drops below `tol`. Sets of one stack shape iterate as one
    (C, N, d, k) array, each with its own step damping, best iterate and
    stop, so every mean equals its set's solo run. At the iteration cap a set
    warns (KarcherConvergenceWarning) and yields its best iterate, the one of
    smallest mean tangent norm. A one-member set yields its member.
    """
    sets = [list(subs) for subs in sets]
    for subs in sets:
        shapes = sorted({s.basis.shape for s in subs})
        if len(shapes) != 1:
            raise DimensionError(f"need subspaces of one shape, got shapes {shapes}")
    means = [subs[0] for subs in sets]
    stacks = [np.stack([s.basis for s in subs]) for subs in sets]
    for idx, stack in group_by_shape(stacks):
        count, n, d, k = stack.shape
        if n == 1:
            continue
        _, evecs = eigh_descending(projector_mean(stack))
        y = best_y = np.ascontiguousarray(evecs[..., :k])
        # per-set state, shaped (C, 1, 1) to broadcast against the iterates;
        # a set that stops leaves every array and its mean goes to `out`
        best_norm = prev_norm = np.full((count, 1, 1), math.inf)
        step, live, out = np.ones_like(best_norm), np.arange(count), np.empty_like(y)
        for _ in range(max_iter):
            mean_tangent = _log_map(y, stack).sum(axis=1) / n
            # one norm per set: a batched axis=(1, 2) norm rounds differently
            tnorm = np.array([[[np.linalg.norm(t)]] for t in mean_tangent])
            best_y = np.where(tnorm < best_norm, y, best_y)
            best_norm = np.fmin(tnorm, best_norm)
            stop = tnorm.ravel() < tol
            if stop.any():
                out[live[stop]] = best_y[stop]
                live, y, stack, mean_tangent, tnorm, best_y, best_norm, step, prev_norm = (
                    a[~stop]
                    for a in (live, y, stack, mean_tangent, tnorm, best_y, best_norm, step, prev_norm)
                )
                if not live.size:
                    break
            # oscillation near the cut locus; damp the step
            step = np.where(tnorm > prev_norm, 0.5 * step, step)
            prev_norm = tnorm
            y = _exp_map(y, step * mean_tangent)
        out[live] = best_y
        for c, mean in zip(idx, out):
            means[c] = Subspace(mean)
        for norm in best_norm.flat:  # the sets that never stopped
            warnings.warn(
                f"Karcher mean of {n} subspaces ({d}x{k}) stopped after {max_iter} "
                f"iterations (mean tangent norm {norm:.3e} > tol {tol:.3e})",
                KarcherConvergenceWarning,
            )
    return means


def karcher_mean(
    subspaces: Sequence[Subspace],
    tol: float = DEFAULT_KARCHER_TOL,
    max_iter: int = DEFAULT_KARCHER_MAX_ITER,
) -> Subspace:
    """Intrinsic mean of equal-dimension subspaces (see `karcher_means`)."""
    return karcher_means([subspaces], tol, max_iter)[0]


def fisher_mode(
    subspaces_by_class: Sequence[Sequence[Subspace]],
    mode: int = 0,
    sim: Callable[[np.ndarray, Subspace], np.ndarray] | None = None,
    karcher_tol: float = DEFAULT_KARCHER_TOL,
    karcher_max_iter: int = DEFAULT_KARCHER_MAX_ITER,
) -> FisherReport:
    """Between/within separability of one mode's class-grouped subspaces.

    `sim` is the subspace dissimilarity, defaulting to the geodesic distance.
    It takes an (N, d, k) stack of bases and one subspace and returns one
    value per basis. It enters the between and within sums only, so
    rescaling it leaves the score unchanged.
    """
    if sim is None:
        sim = geodesic_distance
    classes = [list(c) for c in subspaces_by_class]
    if len(classes) < 2:
        raise DimensionError(f"need at least 2 classes, got {len(classes)}")
    for j, c in enumerate(classes):
        if not c:
            raise DimensionError(f"class {j} has no subspaces")

    class_means = karcher_means(classes, karcher_tol, karcher_max_iter)
    (grand_mean,) = karcher_means([class_means], karcher_tol, karcher_max_iter)
    # left-to-right Python sums: numpy's pairwise summation rounds differently
    means = np.stack([kj.basis for kj in class_means])
    between = sum(sim(means, grand_mean).tolist()) / len(classes)
    spreads = [
        sim(np.stack([s.basis for s in c]), kj) for c, kj in zip(classes, class_means)
    ]
    within = sum(np.concatenate(spreads).tolist()) / sum(len(c) for c in classes)
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

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
per member (`subspace.cross_svd`, in closed form for k = 2), no inverse of
M, and no member's tangent, as a set's mean tangent is two products with
its members (`_mean_tangent`). arccos is inaccurate only for cosines near
1, where theta / sin theta is flat, so the factor's error is
O(theta * dtheta). The exp map needs one `eigh` of a k x k Gram.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, KarcherConvergenceWarning
from .subspace import (
    basis_stack,
    cross_svd,
    eigh_descending,
    geodesic_distance,
    group_by_shape,
    projector_mean,
    qr_positive,
)

DEFAULT_KARCHER_TOL = 1e-8
DEFAULT_KARCHER_MAX_ITER = 100
# Largest Karcher step, in units of the mean tangent (see `karcher_means`).
# Slow sets are ill-conditioned and need long steps: over the fingerprint
# fits a cap of 10 left 36 means unconverged, 100 one, and 1000 none, as no
# cap does
STEP_MAX = 1000.0


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


def _mean_tangent(base: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Mean tangent at each span Y in a (C, d, k) base toward the spans of
    its set, a (C, d, n k) array of the n member bases X_i side by side.

    Log_Y(X_i) = (X_i - Y M_i) A_i with A_i = Q diag(theta / sin theta) P^T
    and M_i = Y^T X_i = P cos(Theta) Q^T (`cross_svd`). The columns of (X_i -
    Y M_i) Q are orthogonal with norms sin theta, so this is the textbook W
    arctan(S) V^T of (X_i - Y M_i) M_i^-1 = W S V^T without forming M_i^-1.
    With the A_i stacked as an (n k, k) column A and M = Y^T [X_1 ... X_n],
    the mean is ([X_1 ... X_n] A - Y (M A)) / n. At the cut locus (a cosine
    of 0) the factor is pi/2 and the tangent reaches the member.
    """
    count, k, n = len(base), base.shape[-1], members.shape[-1] // base.shape[-1]
    m = np.swapaxes(base, -1, -2) @ members
    p, c, qt = cross_svd(np.swapaxes(m.reshape(count, k, n, k), 1, 2))
    # theta / sin(theta), exactly 1 at theta = 0
    scale = 1.0 / np.sinc(np.arccos(np.clip(c, 0.0, 1.0)) / np.pi)
    a = (np.swapaxes(qt, -1, -2) * scale[..., None, :]) @ np.swapaxes(p, -1, -2)
    a = a.reshape(count, n * k, k)
    return (members @ a - base @ (m @ a)) / n


def _exp_map(base: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Geodesic step from each span(base) along its tangent, both (C, d, k):
    span((Y V cos S + T V sinc S) V^T) with T^T T = V S^2 V^T, as T = (T V
    S^-1) S V^T; cos S and sinc S are smooth in S^2, so its rounding errors
    move them as little."""
    s2, v = np.linalg.eigh(np.swapaxes(tangent, -1, -2) @ tangent)
    s = np.sqrt(np.clip(s2, 0.0, None))[..., None, :]
    y = (base @ v) * np.cos(s) + (tangent @ v) * np.sinc(s / np.pi)
    return qr_positive(y @ np.swapaxes(v, -1, -2))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per set, the inner product <a, b> of two (C, d, k) stacks, as (C, 1, 1):
    each a (1, n) @ (n, 1) product, which numpy hands to BLAS ddot as
    `np.vdot` and `np.linalg.norm` do, so it rounds as they do."""
    count = a.shape[0]
    return a.reshape(count, 1, -1) @ b.reshape(count, -1, 1)


def karcher_means(
    sets: Sequence,
    tol: float = DEFAULT_KARCHER_TOL,
    max_iter: int = DEFAULT_KARCHER_MAX_ITER,
) -> list[np.ndarray]:
    """Intrinsic mean of each set of equal-dimension subspaces, a sequence
    of `Subspace`s or an (N, d, k) stack of bases (see `basis_stack`), as a
    (d, k) basis, in set order.

    A mean starts from the dominant eigenvectors of its set's averaged
    projectors and steps along the exp map of the mean log map until the mean
    tangent norm drops below `tol`. The step is a Barzilai-Borwein multiple
    of the mean tangent: <s, delta> / <delta, delta> (the BB2 rule, Barzilai
    & Borwein 1988; on manifolds Iannazzo & Porcelli 2018), clipped to [1,
    STEP_MAX], from the last step s and the change delta of the negated mean
    tangent, both at the current iterate; 1 when <s, delta> is not positive,
    where the rule has no curvature to go by. Sets of one stack shape
    iterate as one (C, d, N k) array of their members side by side, each
    set with its own step size, best iterate and stop, so every mean equals
    its set's solo run; a pass is one `_mean_tangent` call. At the iteration
    cap a set warns (KarcherConvergenceWarning) and yields its best iterate,
    the one of smallest mean tangent norm. A one-member set yields its
    member.
    """
    stacks = [basis_stack(subs) for subs in sets]
    means = [None] * len(stacks)
    for idx, (stack,) in group_by_shape([(s,) for s in stacks]):
        count, n, d, k = stack.shape
        if n == 1:
            for c, member in zip(idx, stack[:, 0]):
                means[c] = member.copy()
            continue
        _, evecs = eigh_descending(projector_mean(stack))
        y = best_y = np.ascontiguousarray(evecs[..., :k])
        # each set's members side by side, [X_1 ... X_n], in place of the stack;
        # C-ordered for every k, as the rounding of products depends on layout
        members = np.ascontiguousarray(np.swapaxes(stack, 1, 2).reshape(count, d, n * k))
        del stack
        # per-set state, shaped (C, 1, 1) to broadcast against the iterates;
        # a set that stops leaves every array and its mean goes to `out`
        best_norm = np.full((count, 1, 1), math.inf)
        step, live, out = np.ones_like(best_norm), np.arange(count), np.empty_like(y)
        # a zero last tangent makes the first step 1
        prev_y, prev_tangent = y, np.zeros_like(y)
        for _ in range(max_iter):
            mean_tangent = _mean_tangent(y, members)
            # rounds as a per-set norm; a batched axis=(1, 2) norm does not
            tnorm = np.sqrt(_dots(mean_tangent, mean_tangent))
            best_y = np.where(tnorm < best_norm, y, best_y)
            best_norm = np.fmin(tnorm, best_norm)
            stop = tnorm.ravel() < tol
            if stop.any():
                out[live[stop]] = best_y[stop]
                live, y, members, mean_tangent, best_y, best_norm, step, prev_y, prev_tangent = (
                    a[~stop]
                    for a in (
                        live, y, members, mean_tangent, best_y, best_norm, step, prev_y, prev_tangent
                    )
                )
                if not live.size:
                    break
            # the last tangent G moved to y by projection: (G - y y^T G)(y_prev^T y)
            moved = (prev_tangent - y @ (np.swapaxes(y, -1, -2) @ prev_tangent)) @ (
                np.swapaxes(prev_y, -1, -2) @ y
            )
            delta = moved - mean_tangent
            sd = _dots(step * moved, delta)
            ratio = np.divide(sd, _dots(delta, delta), out=np.ones_like(sd), where=sd > 0.0)
            step = np.clip(ratio, 1.0, STEP_MAX)
            prev_y, prev_tangent = y, mean_tangent
            y = _exp_map(y, step * mean_tangent)
        out[live] = best_y
        for c, mean in zip(idx, out):
            means[c] = mean
        for norm in best_norm.flat:  # the sets that never stopped
            warnings.warn(
                f"Karcher mean of {n} subspaces ({d}x{k}) stopped after {max_iter} "
                f"iterations (mean tangent norm {norm:.3e} > tol {tol:.3e})",
                KarcherConvergenceWarning,
            )
    return means


def fisher_modes(
    tasks: Sequence[tuple[Sequence, int]],
    sim: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> list[FisherReport]:
    """Between/within separability of each `(classes, mode)` task, in task
    order: one mode's class-grouped subspaces, each class a sequence of
    `Subspace`s or an (N, d, k) stack of bases.

    `sim` is the subspace dissimilarity, defaulting to the geodesic distance.
    It takes an (N, d, k) stack of bases and one (d, k) basis and returns one
    value per basis. It enters the between and within sums only, so
    rescaling it leaves the score unchanged.

    One `karcher_means` call yields every class mean of every task and a
    second one every grand mean over a task's class means. Each mean equals
    its set's solo run, so each report equals the one its task gets alone.
    """
    if sim is None:
        sim = geodesic_distance
    tasks = [([basis_stack(c) for c in classes], mode) for classes, mode in tasks]
    for classes, _ in tasks:
        if len(classes) < 2:
            raise DimensionError(f"need at least 2 classes, got {len(classes)}")
    flat = iter(karcher_means([c for classes, _ in tasks for c in classes]))
    class_means = [list(itertools.islice(flat, len(classes))) for classes, _ in tasks]
    mean_stacks = [np.stack(means) for means in class_means]
    grand_means = karcher_means(mean_stacks)
    reports = []
    for (classes, mode), means, stack, grand_mean in zip(
        tasks, class_means, mean_stacks, grand_means
    ):
        # left-to-right Python sums: numpy's pairwise summation rounds differently
        between = sum(sim(stack, grand_mean).tolist()) / len(classes)
        spreads = [sim(c, kj) for c, kj in zip(classes, means)]
        within = sum(np.concatenate(spreads).tolist()) / sum(len(c) for c in classes)
        score, flag = separability_ratio(between, within)
        reports.append(FisherReport(mode, between, within, score, flag))
    return reports


def nmode_fisher(reports: Sequence[FisherReport]) -> NModeFisher:
    """Aggregate per-mode reports: mean between over mean within."""
    reps = tuple(reports)
    if not reps:
        raise DimensionError("need at least one per-mode report")
    between_n = sum(r.between for r in reps) / len(reps)
    within_n = sum(r.within for r in reps) / len(reps)
    score, flag = separability_ratio(between_n, within_n)
    return NModeFisher(reps, between_n, within_n, score, flag)

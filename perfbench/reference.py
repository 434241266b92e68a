"""Independent reference for the benchmark's output checks.

Uses numpy only and shares no code with `tensorgds`. Where the program takes
principal angles as the arccosines of the singular values of A^T B, this
module takes them as the arcsines of the singular values of (I - A A^T) B,
with B the basis of the smaller subspace. Unfoldings use numpy's C-order
reshape instead of the Kolda-Bader column order, which leaves the column
space, and so every subspace below, unchanged. Projections onto a difference
subspace are orthonormalised by QR instead of Gram-Schmidt.
"""

from __future__ import annotations

import numpy as np

# Both angle formulas lose half their digits at their ill-conditioned end:
# arcsin near pi/2 and arccos near 0 are off by up to sqrt(2 * eps) ~ 1.5e-8
# rad. A weighted distance is a weighted mean of angles with weights summing
# to 1, so two correct implementations agree to this bound.
DISTANCE_TOL = 1e-7
# Relative tolerance on MDS coordinates and eigenvalues, which both sides
# compute from the same distance matrix.
MDS_RTOL = 1e-9
# Largest asymmetry and diagonal entry of a distance matrix: exact in the
# loop that fills one triangle and mirrors it, within rounding otherwise.
SYMMETRY_TOL = 1e-12
# Deviation from orthonormality, and from a unit weight sum.
ORTHO_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12
# Singular values below this share of the largest do not count toward a rank.
RANK_RTOL = 1e-10
# Gram eigenvalues at or below this do not count toward the Gram rank.
GRAM_RANK_TOL = 1e-10


class CheckError(Exception):
    """A program output disagrees with the reference or breaks a property."""


def unfold(data: np.ndarray, mode: int) -> np.ndarray:
    """Mode-`mode` (1-based) unfolding; columns in C order."""
    return np.moveaxis(np.asarray(data), mode - 1, 0).reshape(data.shape[mode - 1], -1)


def leading_basis(matrix: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the leading k left-singular directions."""
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    if k > int(np.sum(s > RANK_RTOL * s[0])):
        raise CheckError(f"matrix has numerical rank below {k}")
    return u[:, :k]


def project(gds_basis: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(basis) in the coordinates of `gds_basis`."""
    q, r = np.linalg.qr(gds_basis.T @ basis)
    d = np.abs(np.diag(r))
    if d.min() <= RANK_RTOL * d.max():
        raise CheckError("projection onto the difference subspace loses rank")
    return q


def sine_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles from sines, batched over leading axes.

    `a` is (..., d, ka) and `b` is (..., d, kb), both column-orthonormal. The
    min(ka, kb) angles are the arcsines of the singular values of the part of
    the smaller basis that lies outside the span of the larger one.
    """
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    residual = b - a @ (np.swapaxes(a, -1, -2) @ b)
    sines = np.linalg.svd(residual, compute_uv=False)
    return np.arcsin(np.clip(sines, 0.0, 1.0))


def _stack_by_width(bases: list[np.ndarray]):
    """Group equal-shape bases into stacked arrays: [(indices, stack), ...]."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, b in enumerate(bases):
        groups.setdefault(b.shape, []).append(i)
    return [(np.array(idx), np.stack([bases[i] for i in idx])) for idx in groups.values()]


class PointSet:
    """Product points stacked per mode for batched distances."""

    def __init__(self, points: list[list[np.ndarray]]):
        self.count = len(points)
        self.modes = len(points[0])
        self.groups = [
            _stack_by_width([pt[p] for pt in points]) for p in range(self.modes)
        ]

    def distances_to(self, query: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
        """Weighted geodesic distance from `query` to every point: per mode
        the weighted mean principal angle, then the Euclidean norm over
        modes."""
        terms = np.empty((self.count, self.modes))
        for p in range(self.modes):
            for idx, stack in self.groups[p]:
                angles = sine_angles(stack, query[p][None])
                terms[idx, p] = weights[p] * angles.mean(axis=-1)
        return np.sqrt(np.sum(terms * terms, axis=1))


def raw_point(data: np.ndarray, dims) -> list[np.ndarray]:
    """Per-mode leading bases of a sample, before any projection."""
    return [leading_basis(unfold(data, m + 1), k) for m, k in enumerate(dims)]


def projected_point(raw: list[np.ndarray], gds_bases) -> list[np.ndarray]:
    return [project(g, b) for g, b in zip(gds_bases, raw)]


def class_scores(
    query: list[np.ndarray],
    refs: PointSet,
    ref_labels: np.ndarray,
    class_ids,
    weights: np.ndarray,
) -> np.ndarray:
    """Per class, the smallest distance from `query` to its references."""
    d = refs.distances_to(query, weights)
    return np.array([d[ref_labels == c].min() for c in class_ids])


def distance_matrix(points: list[list[np.ndarray]], weights: np.ndarray) -> np.ndarray:
    """All-pairs weighted geodesic distances, one batched row at a time."""
    refs = PointSet(points)
    return np.stack([refs.distances_to(pt, weights) for pt in points])


def gram_rank(class_bases: list[np.ndarray]) -> int:
    """Rank of the average of the class-subspace projectors."""
    gram = sum(b @ b.T for b in class_bases) / len(class_bases)
    return int(np.sum(np.linalg.eigvalsh(gram) > GRAM_RANK_TOL))


def orthonormality_error(basis: np.ndarray) -> float:
    k = basis.shape[1]
    return float(np.max(np.abs(basis.T @ basis - np.eye(k))))


def mds(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical scaling by explicit double-centering and `eigh`; returns the
    top-k coordinates and the full spectrum, both in descending order."""
    sq = distances * distances
    b = -0.5 * (sq - sq.mean(axis=0) - sq.mean(axis=1)[:, None] + sq.mean())
    evals, evecs = np.linalg.eigh((b + b.T) / 2.0)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    return evecs[:, :k] * np.sqrt(np.clip(evals[:k], 0.0, None)), evals


def check_close(name: str, got, want, tol: float) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape}, reference {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= tol:
        raise CheckError(f"{name}: max deviation {err:.3e} > {tol:.1e}")


def check_distance_matrix(dist: np.ndarray, want: np.ndarray) -> None:
    """Symmetric, zero diagonal, and within DISTANCE_TOL of the reference."""
    check_close("distance matrix", dist, want, DISTANCE_TOL)
    check_close("distance matrix symmetry", dist, dist.T, SYMMETRY_TOL)
    check_close("distance matrix diagonal", np.diag(dist), np.zeros(len(dist)), SYMMETRY_TOL)


def check_mds(dist: np.ndarray, coords: np.ndarray, evals: np.ndarray) -> None:
    """Coordinates and spectrum agree with the reference scaling of `dist`.

    The coordinates are compared through their Gram matrix, which does not
    depend on the sign of an axis; the sign rule (first non-negligible
    loading positive) is checked on its own."""
    k = coords.shape[1]
    want, want_evals = mds(dist, k)
    scale = float(np.max(np.abs(want_evals)))
    check_close("MDS spectrum", evals, want_evals, MDS_RTOL * scale)
    check_close("MDS coordinate Gram", coords @ coords.T, want @ want.T, MDS_RTOL * scale)
    for col in range(k):
        nz = np.flatnonzero(np.abs(coords[:, col]) > 1e-12)
        if nz.size and coords[nz[0], col] < 0:
            raise CheckError(f"MDS axis {col} breaks the sign rule")

"""Orthonormal-basis subspaces, energy-based dimension selection, principal
angles, Grassmann geodesic distances, and the linear-algebra helpers the
other modules share (projector average, sorted eigenpairs, sign-fixed
eigenvectors and QR factors).

Bases are always the leading left-singular vectors of the raw unfolding; no
mean is subtracted, so they coincide with the top eigenvectors of the
non-centered autocorrelation of the column samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError
from .tensor import UnfoldedMatrix

# Singular values below RANK_RTOL times the largest do not count toward the
# numerical rank.
RANK_RTOL = 1e-10
# Correlations within this of 1 are snapped to exactly 1, so angles between
# numerically identical subspaces come out as an exact 0.
CORRELATION_SNAP = 1e-13


@dataclass(frozen=True)
class Subspace:
    """A point on a Grassmann manifold, stored as a column-orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        arr = np.array(self.basis, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"basis must be 2-D, got {arr.ndim}-D")
        ambient, k = arr.shape
        if k < 1:
            raise DimensionError("subspace must have at least one basis vector")
        if k > ambient:
            raise DimensionError(
                f"subspace dimension {k} exceeds ambient dimension {ambient}"
            )
        gram_err = np.max(np.abs(arr.T @ arr - np.eye(k)))
        if gram_err > 1e-8:
            raise ValueError(
                f"basis is not column-orthonormal (max deviation {gram_err:.3e})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "basis", arr)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class SingularSpectrum:
    """Non-increasing, non-negative eigenvalues of an autocorrelation matrix."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).ravel()
        if arr.size == 0:
            raise DimensionError("spectrum must be non-empty")
        if np.any(arr < 0):
            raise ValueError("spectrum values must be non-negative")
        if np.any(np.diff(arr) > 0):
            raise ValueError("spectrum values must be non-increasing")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class AngleSpectrum:
    """Canonical correlations (non-increasing, in [0, 1]) and the matching
    canonical angles (non-decreasing, in [0, pi/2])."""

    correlations: np.ndarray
    angles: np.ndarray

    @property
    def count(self) -> int:
        return self.correlations.size


def select_dim(spectrum: SingularSpectrum, mu: float) -> int:
    """Smallest K whose leading eigenvalues carry at least the fraction `mu`
    of the total spectrum energy."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    cum = np.cumsum(spectrum.values)
    total = cum[-1]
    if total <= 0.0:
        raise DegeneracyError("spectrum has no positive energy")
    return int(np.argmax(cum / total >= mu)) + 1


def basis_from_unfolding(
    matrix: UnfoldedMatrix | np.ndarray,
    dim: int | None = None,
    energy: float | None = None,
) -> Subspace:
    """Subspace spanned by the leading left-singular vectors of the raw matrix.

    Exactly one of `dim` (fixed dimension) or `energy` (cumulative eigenvalue
    fraction, see `select_dim`) chooses how many vectors to keep. Asking for
    more vectors than the numerical rank is an error, not silent padding.
    """
    if (dim is None) == (energy is None):
        raise ValueError("specify exactly one of dim or energy")
    u, lam = left_singular(matrix)
    if energy is not None:
        dim = select_dim(SingularSpectrum(lam), energy)
    return leading_basis(u, lam, dim)


def left_singular(matrix: UnfoldedMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left-singular vectors of a non-empty 2-D matrix and the eigenvalues of
    its non-centered autocorrelation (the squared singular values), with the
    values beyond the numerical rank set to zero."""
    mat = matrix.matrix if isinstance(matrix, UnfoldedMatrix) else np.asarray(
        matrix, dtype=np.float64
    )
    if mat.ndim != 2 or mat.size == 0:
        raise DimensionError("unfolding must be a non-empty 2-D matrix")
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s[0] <= 0.0:
        raise DegeneracyError("all-zero matrix spans no subspace")
    lam = s * s
    lam[s <= RANK_RTOL * s[0]] = 0.0
    return u, lam


def leading_basis(u: np.ndarray, lam: np.ndarray, dim: int) -> Subspace:
    """Subspace of the first `dim` columns of `u`, as returned with `lam` by
    `left_singular`; `dim` may not exceed the numerical rank."""
    k = int(dim)
    if k < 1:
        raise DimensionError(f"dim must be >= 1, got {k}")
    rank = int(np.count_nonzero(lam))
    if k > rank:
        raise DegeneracyError(
            f"requested {k} basis vectors but the numerical rank is {rank}"
        )
    return Subspace(u[:, :k])


def principal_angles(
    p: Subspace, q: Subspace, count: int | None = None
) -> AngleSpectrum:
    """Canonical correlations and angles between two subspaces.

    Correlations are the singular values of the basis cross product, clamped
    to [0, 1]; angles are their arccosines. Symmetric in the arguments.
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {p.ambient_dim} vs {q.ambient_dim}"
        )
    cmax = min(p.dim, q.dim)
    if count is None:
        count = cmax
    count = int(count)
    if not 1 <= count <= cmax:
        raise DimensionError(f"count must be in 1..{cmax}, got {count}")
    s = np.linalg.svd(p.basis.T @ q.basis, compute_uv=False)[:count]
    s = np.clip(s, 0.0, 1.0)
    s[s >= 1.0 - CORRELATION_SNAP] = 1.0
    return AngleSpectrum(correlations=s, angles=np.arccos(s))


def mean_canonical_angle(p: Subspace, q: Subspace, count: int | None = None) -> float:
    """Arithmetic mean of the first `count` canonical angles, in radians."""
    return float(np.mean(principal_angles(p, q, count).angles))


def geodesic_distance(p: Subspace, q: Subspace) -> float:
    """Geodesic (arc-length) distance: root sum of squared canonical angles
    over min(dim p, dim q) angles."""
    angles = principal_angles(p, q).angles
    return float(np.sqrt(np.sum(angles * angles)))


def projector(p: Subspace) -> np.ndarray:
    """Orthogonal projection matrix onto the subspace."""
    return p.basis @ p.basis.T


def projector_mean(subspaces: Sequence[Subspace]) -> np.ndarray:
    """Average of the projectors of subspaces sharing one ambient space."""
    acc = np.zeros((subspaces[0].ambient_dim,) * 2)
    for s in subspaces:
        acc += projector(s)
    acc /= len(subspaces)
    return acc


def eigh_descending(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix, eigenvalues descending; equal
    eigenvalues keep the ascending order `eigh` returns them in."""
    evals, evecs = np.linalg.eigh(matrix)
    order = np.argsort(-evals, kind="stable")
    return evals[order], evecs[:, order]


def fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Copy with each column negated where needed so that its first entry of
    magnitude above 1e-12 is positive; all-negligible columns stay as they
    are. The copy is C-ordered whatever the input layout, because the rounding
    of later matrix products with it depends on the layout."""
    significant = np.abs(vectors) > 1e-12
    lead = vectors[np.argmax(significant, axis=0), np.arange(vectors.shape[1])]
    flip = significant.any(axis=0) & (lead < 0)
    out = vectors.copy()
    out[:, flip] = -out[:, flip]
    return out


def qr_positive(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal Q factor of a reduced QR, with column signs chosen so that
    R has a non-negative diagonal."""
    q, r = np.linalg.qr(matrix)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs

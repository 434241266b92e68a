"""Orthonormal-basis subspaces, energy-based dimension selection, principal
angles, Grassmann geodesic distances, and the linear-algebra helpers the
other modules share (projector average, sorted eigenpairs, sign-fixed
eigenvectors and QR factors).

Bases are always the leading left-singular vectors of the raw unfolding; no
mean is subtracted, so they coincide with the top eigenvectors of the
non-centered autocorrelation of the column samples. A wide unfolding is
taken through its R factor: a Householder QR of the transposed unfolding,
then the SVD of the small triangular factor (the R-SVD, Chan 1982; Golub &
Van Loan, section 8.6). Both steps are backward stable, so the vectors and
values are exact for a matrix within O(eps * ||X||) of the unfolding X, as
a direct SVD's are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError

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
        if not gram_err <= 1e-8:  # a nan entry fails too
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
class AngleSpectrum:
    """Canonical correlations (non-increasing, in [0, 1]) and the matching
    canonical angles (non-decreasing, in [0, pi/2])."""

    correlations: np.ndarray
    angles: np.ndarray


def select_dim(values: np.ndarray, mu: float):
    """Smallest K whose leading eigenvalues carry at least the fraction `mu`
    of the total energy of a non-increasing, non-negative spectrum, such as
    the `lam` of `left_singular`; one K per row for a stack of spectra."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DimensionError("spectrum must be non-empty")
    if np.any(values < 0):
        raise ValueError("spectrum values must be non-negative")
    if np.any(np.diff(values, axis=-1) > 0):
        raise ValueError("spectrum values must be non-increasing")
    cum = np.cumsum(values, axis=-1)
    total = cum[..., -1:]
    if np.any(total <= 0.0):
        raise DegeneracyError("spectrum has no positive energy")
    return np.argmax(cum / total >= mu, axis=-1) + 1


def basis_from_unfolding(
    matrix: np.ndarray,
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
        dim = select_dim(lam, energy)
    return Subspace(leading_basis(u, lam, dim))


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim < 2 or mat.size == 0:
        raise DimensionError("unfolding must be a non-empty matrix or stack of matrices")
    return mat


def lq_factor(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L of `matrix = L Q^T`, with Q column-orthonormal:
    the transposed R factor of a Householder QR of `matrix^T`, shaped
    rows x min(rows, cols), one per matrix of a stack. L has the
    left-singular vectors and singular values of `matrix`, and the horizontal
    stack of several matrices' L factors has those of the stack of the
    matrices (the block-diagonal of their Q factors is column-orthonormal)."""
    return np.swapaxes(np.linalg.qr(np.swapaxes(_as_matrix(matrix), -1, -2), mode="r"), -1, -2)


def left_factor(matrix: np.ndarray) -> np.ndarray:
    """A matrix, or stack, with the left-singular vectors and singular values
    of `matrix` and no more columns than rows: for a wide matrix its
    `lq_factor` (the R-SVD of Chan 1982), so the long right factor is never
    formed; a square or tall one, such as a factor already taken, as it is,
    since a QR would save its SVD nothing."""
    mat = _as_matrix(matrix)
    return lq_factor(mat) if mat.shape[-1] > mat.shape[-2] else mat


def left_singular(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left-singular vectors of a non-empty matrix, or of each in a stack, and
    the eigenvalues of its non-centered autocorrelation (the squared singular
    values), with the values beyond the numerical rank set to zero.

    They come from the SVD of the matrix's `left_factor`. Householder QR is
    backward stable, so the result is the exact (U, s) of a matrix within
    O(eps * s_0) of the input, the guarantee a direct SVD gives. The rank
    cut-off `RANK_RTOL * s_0` lies six orders above that perturbation, so
    only a singular value within about eps * s_0 of the cut-off could land
    on the other side of it. A stack takes one batched SVD, which runs the
    same LAPACK call on each matrix, so each result equals the matrix's own.
    """
    u, s, _ = np.linalg.svd(left_factor(matrix), full_matrices=False)
    if np.any(s[..., 0] <= 0.0):
        raise DegeneracyError("all-zero matrix spans no subspace")
    lam = s * s
    lam[s <= RANK_RTOL * s[..., :1]] = 0.0
    return u, lam


def leading_basis(u: np.ndarray, lam: np.ndarray, dim: int) -> np.ndarray:
    """A contiguous copy of the first `dim` columns of `u`, as returned with
    `lam` by `left_singular` for one matrix or a stack; `dim` may not exceed
    the numerical rank of any matrix. The copy lets the full `u` go."""
    k = int(dim)
    if k < 1:
        raise DimensionError(f"dim must be >= 1, got {k}")
    rank = int(np.min(np.count_nonzero(lam, axis=-1)))
    if k > rank:
        raise DegeneracyError(
            f"requested {k} basis vectors but the numerical rank is {rank}"
        )
    return np.ascontiguousarray(u[..., :k])


def basis_stack(subspaces) -> np.ndarray:
    """A non-empty set of subspaces as one (N, d, k) stack of bases: an array
    is taken as it is, a sequence of `Subspace`s must share one shape and is
    stacked in order."""
    if not isinstance(subspaces, np.ndarray):
        bases = [s.basis for s in subspaces]
        shapes = sorted({b.shape for b in bases})
        if len(shapes) > 1:
            raise DimensionError(f"need subspaces of one shape, got shapes {shapes}")
        subspaces = np.array(bases)
    if subspaces.ndim != 3 or not len(subspaces):
        raise DimensionError(f"need a non-empty (N, d, k) stack, got shape {subspaces.shape}")
    return subspaces


def canonical_correlations(p, q, count: int | None = None) -> np.ndarray:
    """First `count` canonical correlations of `p` with `q`, each a `Subspace`,
    a (d, k) basis or an (N, d, k) stack, which broadcasts to (N, count):
    singular values of the basis cross products, clamped to [0, 1]."""
    p, q = (np.asarray(getattr(x, "basis", x)) for x in (p, q))
    if p.shape[-2] != q.shape[-2]:
        raise DimensionError(
            f"ambient dimensions differ: {p.shape[-2]} vs {q.shape[-2]}"
        )
    cmax = min(p.shape[-1], q.shape[-1])
    if count is None:
        count = cmax
    count = int(count)
    if not 1 <= count <= cmax:
        raise DimensionError(f"count must be in 1..{cmax}, got {count}")
    s = np.linalg.svd(np.swapaxes(p, -1, -2) @ q, compute_uv=False)[..., :count]
    s = np.clip(s, 0.0, 1.0)
    s[s >= 1.0 - CORRELATION_SNAP] = 1.0
    return s


def principal_angles(p, q, count: int | None = None) -> AngleSpectrum:
    """`canonical_correlations` and their arccosines, the canonical angles.
    Symmetric in the arguments."""
    s = canonical_correlations(p, q, count)
    return AngleSpectrum(correlations=s, angles=np.arccos(s))


def mean_canonical_angle(p: Subspace, q: Subspace, count: int | None = None) -> float:
    """Arithmetic mean of the first `count` canonical angles, in radians."""
    return float(np.mean(principal_angles(p, q, count).angles))


def geodesic_distance(p, q):
    """Geodesic (arc-length) distance: root sum of squared canonical angles
    over min(dim p, dim q) angles; a float for a pair, an array for a stack."""
    angles = principal_angles(p, q).angles
    dist = np.sqrt(np.sum(angles * angles, axis=-1))
    return float(dist) if dist.ndim == 0 else dist


def projector(p: Subspace) -> np.ndarray:
    """Orthogonal projection matrix onto the subspace."""
    return p.basis @ p.basis.T


def projector_mean(stack: np.ndarray) -> np.ndarray:
    """Average of the projectors of an (..., N, d, k) stack of bases over its
    N axis."""
    return np.mean(stack @ np.swapaxes(stack, -1, -2), axis=-3)


def eigh_descending(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix or stack, eigenvalues descending;
    equal eigenvalues keep the ascending order `eigh` returns them in."""
    evals, evecs = np.linalg.eigh(matrix)
    order = np.argsort(-evals, axis=-1, kind="stable")
    evecs = np.take_along_axis(evecs, order[..., None, :], -1)
    return np.take_along_axis(evals, order, -1), evecs


def group_by_shape(arrays: Sequence[np.ndarray]) -> Iterator[tuple[list[int], np.ndarray]]:
    """Per shape, in order of first appearance: the indices and the stack,
    each stack built only when the caller reaches it."""
    groups: dict[tuple, list[int]] = {}
    for i, a in enumerate(arrays):
        groups.setdefault(a.shape, []).append(i)
    for idx in groups.values():
        yield idx, np.stack([arrays[i] for i in idx])


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
    """Orthonormal Q factor of a reduced QR of a matrix, or of each in a
    stack, with column signs chosen so that R has a non-negative diagonal."""
    q, r = np.linalg.qr(matrix)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]

"""Orthonormal-basis subspaces, energy-based dimension selection, the one
canonical-correlation kernel, Grassmann geodesic distances, and the
linear-algebra helpers the other modules share (Gram spectra, projector
average, sorted eigenpairs, grouping by shape, sign-fixed eigenvectors and
QR factors).

Bases are the leading eigenvectors of the non-centered autocorrelation X X^T
of the raw unfolding X, with no mean subtracted, from one batched `eigh` of
a stack of Grams (`gram_spectrum`); a class basis comes from the sum of its
members' Grams, the Gram of their stacked unfoldings. The product rounds by
about cols * eps * lambda_1 and `eigh` by rows * eps * lambda_1, so values
at or below (rows + cols) * eps * lambda_1 count as zero (the rule that
`gds.project_onto_gds` applies to squared cosines), and squaring makes
a vector's error about eps * lambda_1 / gap(lambda), against eps * s_1 /
gap(s) for an SVD of X. Each Gram is scaled by the power of two of its trace
before `eigh`, so LAPACK never rescales it by another factor, and
`unfolding_gram` scales data whose Gram would overflow or underflow: 2^k
times the data gives the same bits.

Every SVD of a k x k basis cross product Y^T X, for the canonical
correlations here and for the Karcher log map, goes through `cross_svd`.
For k = 2 it takes a closed form, a fixed number of elementwise ufunc calls
per stack instead of one LAPACK call per matrix. Its values, the
orthogonality of its rotations and its reconstruction are within 8 eps *
s_1 of exact, the bound the tests hold it to, and a matrix gets the same
bits alone as in any stack. Every other shape goes to LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError

EPS = np.finfo(np.float64).eps
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


def select_dim(values: np.ndarray, mu: float):
    """Smallest K whose leading eigenvalues carry at least the fraction `mu`
    of the total energy of a non-increasing, non-negative spectrum, such as
    the `lam` of `gram_spectrum`; one K per row for a stack of spectra."""
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


def gram_spectrum(grams: np.ndarray, cols) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues, descending, of a Gram X X^T of a matrix
    with `cols` columns, or of each in a stack (`cols` one count or one per
    Gram), each Gram scaled by the power of two of its trace; values at or
    below (rows + cols) * eps * lambda_1 are set to zero. A stack's batched
    `eigh` gives each Gram its own bits. A NaN or infinity is a LinAlgError."""
    grams = np.asarray(grams, dtype=np.float64)
    if not np.isfinite(grams).all():
        raise np.linalg.LinAlgError("eigh did not converge: non-finite Gram")
    exponent = np.frexp(np.trace(grams, axis1=-2, axis2=-1))[1]
    lam, vecs = eigh_descending(np.ldexp(grams, -exponent[..., None, None]))
    if np.any(lam[..., 0] <= 0.0):
        raise DegeneracyError("all-zero matrix spans no subspace")
    lam[lam <= (grams.shape[-1] + np.asarray(cols))[..., None] * EPS * lam[..., :1]] = 0.0
    return vecs, lam


def leading_basis(u: np.ndarray, lam: np.ndarray, dim: int) -> np.ndarray:
    """A contiguous copy of the first `dim` columns of `u`, as returned with
    `lam` by `gram_spectrum` for one matrix or a stack; `dim` may not exceed
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


def _svd_2x2(m: np.ndarray, compute_uv: bool):
    """`np.linalg.svd` of a stack of 2 x 2 matrices in closed form, a fixed
    number of elementwise ufunc calls whatever the stack size.

    M = [[a, b], [c, d]] is half the sum of a scaled rotation q Rot(beta)
    and a scaled reflection r Rot(alpha) diag(1, -1), with q e^(i beta) =
    (a + d) + i (c - b) and r e^(i alpha) = (a - d) + i (c + b), so M =
    Rot(phi) diag(q + r, q - r) Rot(theta) / 2 with phi = (beta + alpha) / 2
    and theta = (beta - alpha) / 2 (Blinn 1996, "Consider the lowly 2x2
    matrix"). `hypot` and `arctan2` neither overflow nor underflow, each
    step is a few ulps off, and every matrix is computed on its own, so it
    gets the same bits in any stack. The values, the orthogonality of U and
    V^T and U diag(s) V^T - M are then within a few eps * s_1 of exact. The
    smaller value (q - r) / 2 has that absolute error, not LAPACK's
    relative one; a canonical angle, the arccosine of a cosine at most 1,
    needs only the absolute bound.
    """
    flat = m.reshape(-1, 4)
    a, b, c, d = flat.T
    rot_re, rot_im, ref_re, ref_im = a + d, c - b, a - d, c + b
    q, r = np.hypot(rot_re, rot_im), np.hypot(ref_re, ref_im)
    s = np.empty((len(flat), 2))
    np.multiply(q + r, 0.5, out=s[:, 0])
    np.multiply(np.abs(q - r), 0.5, out=s[:, 1])
    s = s.reshape(m.shape[:-1])
    if not compute_uv:
        return s
    beta, alpha = np.arctan2(rot_im, rot_re), np.arctan2(ref_im, ref_re)
    u, vt = np.empty(m.shape), np.empty(m.shape)
    for out, angle in ((u, (beta + alpha) * 0.5), (vt, (beta - alpha) * 0.5)):
        cos, sin = np.cos(angle), np.sin(angle)
        out = out.reshape(-1, 4)
        out[:, 0], out[:, 1], out[:, 2], out[:, 3] = cos, -sin, sin, cos
    # where q < r the second value is (r - q) / 2: its column of U changes sign
    u.reshape(-1, 4)[q < r, 1::2] *= -1.0
    return u, s, vt


def cross_svd(m: np.ndarray, compute_uv: bool = True):
    """`np.linalg.svd(m, compute_uv=compute_uv)` of a basis cross product
    Y^T X, or a stack of them: for 2 x 2 matrices `_svd_2x2`, for every
    other shape LAPACK. A NaN or infinite entry raises
    `np.linalg.LinAlgError` on both paths (LAPACK itself raises on a NaN
    but returns NaN values for an infinity)."""
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("SVD did not converge: non-finite cross product")
    if m.shape[-2:] == (2, 2):
        return _svd_2x2(m, compute_uv)
    return np.linalg.svd(m, compute_uv=compute_uv)


def correlations_by_shape(pairs) -> list[np.ndarray]:
    """`canonical_correlations(p, q, count)` of each (p, q, count) triple,
    all checked first, with one `cross_svd` per shape of the cross products
    (a lone pair's is not copied): a matrix gets its bits alone in a stack."""
    products, out = [], []
    for p, q, count in pairs:
        p, q = (np.asarray(getattr(x, "basis", x)) for x in (p, q))
        if p.shape[-2] != q.shape[-2]:
            raise DimensionError(f"ambient dimensions differ: {p.shape[-2]} vs {q.shape[-2]}")
        cmax = min(p.shape[-1], q.shape[-1])
        count = cmax if count is None else int(count)
        if not 1 <= count <= cmax:
            raise DimensionError(f"count must be in 1..{cmax}, got {count}")
        products.append((np.swapaxes(p, -1, -2) @ q,))
        out.append(count)  # until the pair's correlations replace it
    groups = group_by_shape(products) if len(products) > 1 else [([0], (products[0][0][None],))]
    for idx, (stack,) in groups:
        s = np.clip(cross_svd(stack, compute_uv=False), 0.0, 1.0)
        s[s >= 1.0 - CORRELATION_SNAP] = 1.0
        for i, values in zip(idx, s):
            out[i] = values[..., : out[i]]
    return out


def canonical_correlations(p, q, count: int | None = None) -> np.ndarray:
    """First `count` canonical correlations of `p` with `q`, each a `Subspace`,
    a (d, k) basis or an (N, d, k) stack, which broadcasts to (N, count):
    singular values of the basis cross products (`cross_svd`), clamped to
    [0, 1]."""
    return correlations_by_shape([(p, q, count)])[0]


def geodesic_distance(p, q):
    """Geodesic (arc-length) distance: root sum of squared canonical angles,
    the arccosines of `canonical_correlations`, over min(dim p, dim q)
    angles; a float for a pair, an array for a stack."""
    angles = np.arccos(canonical_correlations(p, q))
    dist = np.sqrt(np.sum(angles * angles, axis=-1))
    return float(dist) if dist.ndim == 0 else dist


def projector_mean(stack: np.ndarray) -> np.ndarray:
    """Average of the projectors of an (..., N, d, k) stack of bases over its
    N axis. The projectors are added one member at a time, in order, as
    `np.mean` adds that axis, so only one member's (..., d, d) projectors
    are held beside the sum, not all N."""
    members = np.moveaxis(stack, -3, 0)
    total = members[0] @ np.swapaxes(members[0], -1, -2)
    for basis in members[1:]:
        total += basis @ np.swapaxes(basis, -1, -2)
    return total / len(members)


def eigh_descending(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix or stack, eigenvalues descending:
    `eigh`'s ascending output reversed, as views, where no value is repeated,
    else gathered so that equal values keep the order `eigh` gives them."""
    evals, evecs = np.linalg.eigh(matrix)
    if np.all(np.diff(evals, axis=-1) > 0.0):
        return evals[..., ::-1], evecs[..., ::-1]
    order = np.argsort(-evals, axis=-1, kind="stable")
    evecs = np.take_along_axis(evecs, order[..., None, :], -1)
    return np.take_along_axis(evals, order, -1), evecs


def group_by_shape(parts: Sequence[tuple]) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """Per tuple of part shapes, in order of first appearance: the indices of
    the tuples of per-mode arrays in `parts` that have it and their per-mode
    stacks, in order. Projection can leave a part narrower than the rest,
    and padding it would change the SVD input. Each group's stacks are built
    only when the caller reaches it, so a caller that drops a group before
    taking the next holds one group's copy at a time."""
    groups: dict[tuple, list[int]] = {}
    for i, arrays in enumerate(parts):
        groups.setdefault(tuple(a.shape for a in arrays), []).append(i)
    for idx in groups.values():
        yield np.array(idx), tuple(map(np.stack, zip(*(parts[i] for i in idx))))


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

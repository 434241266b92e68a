"""Per-mode generalized difference subspace (GDS).

The mode Gram matrix averages the orthogonal projectors of the class
subspaces in one mode. Its leading eigenvectors span the directions the
classes share; dropping them and keeping the eigenvector tail yields a basis
that carries the difference information between classes. Projecting class or
sample subspaces onto that basis acts as a quasi-orthogonalization, enlarging
the canonical angles between classes.

Whole stacks of bases U are projected at once, for every mode's band: one
SVD per shape of the products G^T U gives each projection its orthonormal
basis, and drops the directions whose singular value, the cosine of a
canonical angle between span(U) and the GDS, is negligible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DimensionError
from .subspace import (
    EPS,
    Subspace,
    basis_stack,
    eigh_descending,
    fix_column_signs,
    group_by_shape,
    projector_mean,
)

# Gram eigenvalues at or below this threshold do not count toward the rank.
GRAM_RANK_TOL = 1e-10


@dataclass(frozen=True)
class GdsBasis:
    """One mode's Gram spectrum and a band of it.

    `eigvecs`/`eigvals` hold the full spectrum in descending order with a
    deterministic sign fix; `rank` counts the eigenvalues above
    GRAM_RANK_TOL; `basis` holds eigenvector columns alpha..beta (1-based,
    inclusive) and spans the difference subspace.
    """

    mode: int
    eigvecs: np.ndarray
    eigvals: np.ndarray
    alpha: int
    beta: int
    rank: int

    @property
    def basis(self) -> np.ndarray:
        return self.eigvecs[:, self.alpha - 1 : self.beta]

    @property
    def ambient_dim(self) -> int:
        return self.eigvecs.shape[0]


def full_band(mode: int, eigvecs: np.ndarray, eigvals: np.ndarray) -> GdsBasis:
    """The band alpha = 1, beta = rank of a descending, sign-fixed spectrum."""
    rank = int(np.sum(eigvals > GRAM_RANK_TOL))
    return GdsBasis(mode, eigvecs, eigvals, alpha=1, beta=rank, rank=rank)


def mode_gram(class_bases, mode: int) -> GdsBasis:
    """The full band of one mode's Gram matrix, the average of the projectors
    of its class subspaces: a (C, d, k) stack of bases or `Subspace`s of one
    shape. The eigenpairs are computed here, once per mode."""
    stack = basis_stack(class_bases)
    if len(stack) < 2:
        raise DimensionError(f"need at least 2 class subspaces, got {len(stack)}")
    acc = projector_mean(stack)
    evals, evecs = eigh_descending((acc + acc.T) / 2.0)
    return full_band(mode, fix_column_signs(evecs), evals)


def gds_from_gram(gram: GdsBasis, alpha: int, beta: int | None = None) -> GdsBasis:
    """Narrow a mode's band to eigenvectors alpha..beta of its Gram matrix.

    Eigenvalues are sorted descending with stable ties; `beta` defaults to the
    numerical rank, so the usual call keeps the whole eigenvector tail below
    the discarded leading block. `alpha == beta` selects a single direction.
    """
    rank = gram.rank
    if rank == 0:
        raise DegeneracyError("mode Gram matrix has no positive eigenvalues")
    if beta is None:
        beta = rank
    alpha, beta = int(alpha), int(beta)
    if alpha < 1:
        raise DimensionError(f"alpha must be >= 1, got {alpha}")
    if alpha > rank:
        raise DimensionError(f"alpha {alpha} exceeds the Gram rank {rank}")
    if beta < alpha or beta > rank:
        raise DimensionError(
            f"need alpha <= beta <= rank, got alpha={alpha}, beta={beta}, rank={rank}"
        )
    return dataclasses.replace(gram, alpha=alpha, beta=beta)


def project_onto_gds(gds: GdsBasis, subspaces):
    """`project_onto_bands` of one band: one `Subspace`, or each basis of an
    (N, d, k) stack, projected onto the difference subspace, as a `Subspace`
    or a list of N bases in stack order, as wide as the GDS."""
    single = isinstance(subspaces, Subspace)
    (projected,) = project_onto_bands([gds], [subspaces.basis[None] if single else subspaces])
    return Subspace(projected[0]) if single else projected


def project_onto_bands(bands, stacks) -> list[list[np.ndarray]]:
    """Per band G and (N, d, k) stack of bases U, the list of N projected
    bases in stack order, with one SVD per shape of the products G^T U, all
    checked first; a product gets the same bits in a stack as alone.

    Each result is spanned by G^T U. Its SVD gives the basis: the
    left-singular vectors whose singular values s keep s^2 above
    (w + k) * eps * s_1^2 for a w-column GDS and k-column U, the rank rule
    of `gram_spectrum` for the Gram of G^T U. The singular values are the
    cosines of the canonical angles between span(U) and the GDS (Bjorck &
    Golub 1973), so the dropped directions are those the GDS cannot see.
    A GDS is a band of Gram eigenvectors, which leaks the directions beside
    the band by about eps * lambda_1 / gap for the eigenvalue gap at its
    edge, so a cosine of 1e-10 can be rounding; under this rule the leak
    counts only where that gap is below about sqrt(eps) * lambda_1.
    """
    products = []
    for gds, stack in zip(bands, map(np.asarray, stacks)):
        if stack.ndim != 3 or stack.shape[1] != gds.ambient_dim:
            raise DimensionError(f"ambient mismatch: GDS {gds.ambient_dim} vs bases {stack.shape}")
        products.append((gds.basis.T @ stack,))
    out = [None] * len(products)
    for idx, (group,) in group_by_shape(products):
        u, s, _ = np.linalg.svd(group, full_matrices=False)
        if np.any(s[..., 0] <= 0.0):
            raise DegeneracyError(
                "subspace is orthogonal to the difference subspace within tolerance"
            )
        cut = (group.shape[-2] + group.shape[-1]) * EPS
        widths = np.sum(s * s > cut * s[..., :1] ** 2, axis=-1)
        for i, bases, row in zip(idx, u, widths):
            out[i] = [b[:, :w] for b, w in zip(bases, row)]
    return out

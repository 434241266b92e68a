"""Per-mode generalized difference subspace (GDS).

The mode Gram matrix averages the orthogonal projectors of the class
subspaces in one mode. Its leading eigenvectors span the directions the
classes share; dropping them and keeping the eigenvector tail yields a basis
that carries the difference information between classes. Projecting class or
sample subspaces onto that basis acts as a quasi-orthogonalization, enlarging
the canonical angles between classes.

A whole stack of bases U is projected at once: one SVD of G^T U gives each
projection its orthonormal basis, and drops the directions whose singular
value, the cosine of a canonical angle between span(U) and the GDS, is
negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError
from .subspace import (
    RANK_RTOL,
    Subspace,
    eigh_descending,
    fix_column_signs,
    projector_mean,
)

# Gram eigenvalues at or below this threshold do not count toward the rank.
GRAM_RANK_TOL = 1e-10


@dataclass(frozen=True)
class ModeGram:
    """Average of class-subspace projectors for one mode; symmetric with
    eigenvalues in [0, 1].

    The eigenpairs (descending, with a deterministic sign fix) and the rank
    (eigenvalues above GRAM_RANK_TOL) are computed once, at construction.
    """

    mode: int
    matrix: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False)
    eigvecs: np.ndarray = field(init=False, repr=False)
    rank: int = field(init=False)

    def __post_init__(self):
        evals, evecs = eigh_descending(self.matrix)
        object.__setattr__(self, "eigvals", evals)
        object.__setattr__(self, "eigvecs", fix_column_signs(evecs))
        object.__setattr__(self, "rank", int(np.sum(evals > GRAM_RANK_TOL)))


@dataclass(frozen=True)
class GdsBasis:
    """Eigen-structure of a mode Gram matrix plus the retained tail.

    `eigvecs`/`eigvals` hold the full spectrum in descending order with a
    deterministic sign fix; `basis` holds eigenvector columns alpha..beta
    (1-based, inclusive) and spans the difference subspace.
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


def mode_gram(class_subspaces: Sequence[Subspace], mode: int) -> ModeGram:
    """Average the projectors of the per-class subspaces of one mode."""
    subs = list(class_subspaces)
    if len(subs) < 2:
        raise DimensionError(f"need at least 2 class subspaces, got {len(subs)}")
    ambient = subs[0].ambient_dim
    for s in subs[1:]:
        if s.ambient_dim != ambient:
            raise DimensionError(
                f"ambient mismatch: {s.ambient_dim} vs {ambient}"
            )
    acc = projector_mean(subs)
    acc = (acc + acc.T) / 2.0
    return ModeGram(mode=mode, matrix=acc)


def gds_from_gram(gram: ModeGram, alpha: int, beta: int | None = None) -> GdsBasis:
    """Keep eigenvectors alpha..beta of the mode Gram matrix.

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
    return GdsBasis(
        mode=gram.mode,
        eigvecs=gram.eigvecs,
        eigvals=gram.eigvals,
        alpha=alpha,
        beta=beta,
        rank=rank,
    )


def project_onto_gds(gds: GdsBasis, subspaces):
    """Project one `Subspace`, or each basis U of an (N, d, k) stack, onto the
    difference subspace G: a `Subspace`, or a list of N bases in stack order,
    in an ambient space as wide as the GDS.

    Each result is spanned by G^T U. One SVD of the stack gives its basis:
    the left-singular vectors whose singular values exceed `RANK_RTOL` times
    the largest (the rank rule of `left_singular`). The singular values are
    the cosines of the canonical angles between span(U) and the GDS (Bjorck
    & Golub 1973), so the dropped directions are those the GDS cannot see.
    """
    single = isinstance(subspaces, Subspace)
    stack = subspaces.basis[None] if single else np.asarray(subspaces)
    if stack.ndim != 3 or stack.shape[1] != gds.ambient_dim:
        raise DimensionError(f"ambient mismatch: GDS {gds.ambient_dim} vs bases {stack.shape}")
    u, s, _ = np.linalg.svd(gds.basis.T @ stack, full_matrices=False)
    if np.any(s[:, 0] <= 0.0):
        raise DegeneracyError(
            "subspace is orthogonal to the difference subspace within tolerance"
        )
    widths = np.sum(s > RANK_RTOL * s[:, :1], axis=1)
    projected = [b[:, :w] for b, w in zip(u, widths)]
    return Subspace(projected[0]) if single else projected

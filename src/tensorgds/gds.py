"""Per-mode generalized difference subspace (GDS).

The mode Gram matrix averages the orthogonal projectors of the class
subspaces in one mode. Its leading eigenvectors span the directions the
classes share; dropping them and keeping the eigenvector tail yields a basis
that carries the difference information between classes. Projecting class or
sample subspaces onto that basis acts as a quasi-orthogonalization, enlarging
the canonical angles between classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError
from .subspace import (
    Subspace,
    eigh_descending,
    fix_column_signs,
    projector_mean,
)

# Gram eigenvalues at or below this threshold do not count toward the rank.
GRAM_RANK_TOL = 1e-10
# Default relative drop threshold for Gram-Schmidt after projection.
DEFAULT_PROJECTION_TOL = 1e-10


@dataclass(frozen=True)
class ModeGram:
    """Average of class-subspace projectors for one mode; symmetric with
    eigenvalues in [0, 1].

    The eigenpairs (descending, with a deterministic sign fix) and the rank
    (eigenvalues above GRAM_RANK_TOL) are computed once, at construction.
    """

    mode: int
    matrix: np.ndarray
    class_count: int
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
    def width(self) -> int:
        return self.basis.shape[1]

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
    return ModeGram(mode=mode, matrix=acc, class_count=len(subs))


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


def _gram_schmidt(columns: np.ndarray, threshold: float) -> np.ndarray:
    """Modified Gram-Schmidt with a second orthogonalization pass; columns
    whose residual norm falls at or below `threshold` are dropped."""
    kept: list[np.ndarray] = []
    for j in range(columns.shape[1]):
        v = columns[:, j].copy()
        for _ in range(2):
            for u in kept:
                v -= u * (u @ v)
        nrm = float(np.linalg.norm(v))
        if nrm > threshold:
            kept.append(v / nrm)
    if not kept:
        return np.empty((columns.shape[0], 0))
    return np.column_stack(kept)


def project_onto_gds(
    gds: GdsBasis, subspace: Subspace, tol: float = DEFAULT_PROJECTION_TOL
) -> Subspace:
    """Project a subspace onto the difference subspace.

    The basis is expressed in GDS coordinates and re-orthonormalized by
    Gram-Schmidt; vectors whose residual norm is below `tol` relative to the
    largest projected column are dropped. The result lives in an ambient
    space whose dimension equals the GDS width.
    """
    if gds.ambient_dim != subspace.ambient_dim:
        raise DimensionError(
            f"ambient mismatch: GDS {gds.ambient_dim} vs subspace {subspace.ambient_dim}"
        )
    coords = gds.basis.T @ subspace.basis
    scale = float(np.max(np.linalg.norm(coords, axis=0), initial=0.0))
    ortho = _gram_schmidt(coords, tol * scale)
    if ortho.shape[1] == 0:
        raise DegeneracyError(
            "subspace is orthogonal to the difference subspace within tolerance"
        )
    return Subspace(ortho)

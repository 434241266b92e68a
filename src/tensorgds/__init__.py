"""Tensor classification with per-mode subspaces, generalized difference
subspace projections, and weighted geodesic distances on product Grassmann
manifolds."""

from .errors import (
    DegeneracyError,
    DimensionError,
    FormatError,
    KarcherConvergenceWarning,
)
from .fisher import FisherReport, NModeFisher, fisher_mode, karcher_means, nmode_fisher
from .gds import GdsBasis, ModeGram, gds_from_gram, mode_gram, project_onto_gds
from .manifold import ProductPoint, WeightVector, mode_weights
from .pipeline import (
    EvalMetrics,
    PipelineConfig,
    TrainedModel,
    classify,
    evaluate,
    fit,
    optimize_gds_dims,
    pairwise_distances,
    transform,
)
from .subspace import (
    AngleSpectrum,
    SingularSpectrum,
    Subspace,
    basis_from_unfolding,
    geodesic_distance,
    mean_canonical_angle,
    principal_angles,
    projector,
    select_dim,
)
from .tensor import (
    DenseTensor,
    HosvdDecomposition,
    fold,
    hosvd,
    mode_multiply,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSpectrum",
    "DegeneracyError",
    "DenseTensor",
    "DimensionError",
    "EvalMetrics",
    "FisherReport",
    "FormatError",
    "GdsBasis",
    "HosvdDecomposition",
    "KarcherConvergenceWarning",
    "ModeGram",
    "NModeFisher",
    "PipelineConfig",
    "ProductPoint",
    "SingularSpectrum",
    "Subspace",
    "TrainedModel",
    "WeightVector",
    "basis_from_unfolding",
    "classify",
    "evaluate",
    "fisher_mode",
    "fit",
    "fold",
    "gds_from_gram",
    "geodesic_distance",
    "hosvd",
    "karcher_means",
    "mean_canonical_angle",
    "mode_gram",
    "mode_multiply",
    "mode_weights",
    "nmode_fisher",
    "optimize_gds_dims",
    "pairwise_distances",
    "principal_angles",
    "project_onto_gds",
    "projector",
    "select_dim",
    "transform",
    "unfold",
]

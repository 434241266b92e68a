"""Tensor classification with per-mode subspaces, generalized difference
subspace projections, and weighted geodesic distances on product Grassmann
manifolds."""

from .errors import (
    DegeneracyError,
    DimensionError,
    FormatError,
    KarcherConvergenceWarning,
)
from .fisher import FisherReport, NModeFisher, fisher_mode, nmode_fisher
from .fisher import karcher_mean, karcher_means
from .gds import GdsBasis, ModeGram, gds_from_gram, mode_gram, project_onto_gds
from .manifold import ProductPoint, WeightVector, mode_weights, weighted_geodesic
from .pipeline import (
    EvalMetrics,
    PipelineConfig,
    TrainedModel,
    classify,
    evaluate,
    extract_sample_point,
    fit,
    optimize_gds_dims,
    pairwise_distances,
    point_distance,
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
    UnfoldedMatrix,
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
    "UnfoldedMatrix",
    "WeightVector",
    "basis_from_unfolding",
    "classify",
    "evaluate",
    "extract_sample_point",
    "fisher_mode",
    "fit",
    "fold",
    "gds_from_gram",
    "geodesic_distance",
    "hosvd",
    "karcher_mean",
    "karcher_means",
    "mean_canonical_angle",
    "mode_gram",
    "mode_multiply",
    "mode_weights",
    "nmode_fisher",
    "optimize_gds_dims",
    "pairwise_distances",
    "point_distance",
    "principal_angles",
    "project_onto_gds",
    "projector",
    "select_dim",
    "transform",
    "unfold",
    "weighted_geodesic",
]

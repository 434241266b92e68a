"""Tensor classification with per-mode subspaces, generalized difference
subspace projections, and weighted geodesic distances on product Grassmann
manifolds."""

from .errors import (
    DegeneracyError,
    DimensionError,
    FormatError,
    KarcherConvergenceWarning,
)
from .fisher import (
    FisherReport,
    NModeFisher,
    fisher_modes,
    karcher_means,
    nmode_fisher,
)
from .gds import GdsBasis, gds_from_gram, mode_gram, project_onto_gds
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
    transform_all,
)
from .subspace import (
    Subspace,
    geodesic_distance,
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
    "DegeneracyError",
    "DenseTensor",
    "DimensionError",
    "EvalMetrics",
    "FisherReport",
    "FormatError",
    "GdsBasis",
    "HosvdDecomposition",
    "KarcherConvergenceWarning",
    "NModeFisher",
    "PipelineConfig",
    "ProductPoint",
    "Subspace",
    "TrainedModel",
    "WeightVector",
    "classify",
    "evaluate",
    "fisher_modes",
    "fit",
    "fold",
    "gds_from_gram",
    "geodesic_distance",
    "hosvd",
    "karcher_means",
    "mode_gram",
    "mode_multiply",
    "mode_weights",
    "nmode_fisher",
    "optimize_gds_dims",
    "pairwise_distances",
    "project_onto_gds",
    "select_dim",
    "transform",
    "transform_all",
    "unfold",
]

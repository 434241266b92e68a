"""End-to-end training and classification.

Methods share one framework: every sample becomes a tuple of per-mode
subspaces; the difference-subspace methods additionally sharpen each mode
with a learned projection before measuring distances.

  msm         single-mode nearest neighbor by mean canonical angle
  pgm         all selected modes, no projection, unit weights
  gds         per-mode difference-subspace projection, unit weights
  nmode-gds   projection on every selected mode, unit weights
  nmode-wgds  projection plus separability-derived mode weights
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError
from .fisher import FisherReport, NModeFisher, fisher_mode, karcher_mean, nmode_fisher
from .gds import GdsBasis, ModeGram, gds_from_gram, mode_gram, project_onto_gds
from .manifold import ProductPoint, WeightVector, mode_weights, weighted_geodesic
from .subspace import (
    SingularSpectrum,
    Subspace,
    basis_from_unfolding,
    leading_basis,
    left_singular,
    mean_canonical_angle,
    select_dim,
)
from .tensor import DenseTensor, UnfoldedMatrix, unfold

METHODS = ("msm", "gds", "pgm", "nmode-gds", "nmode-wgds")
GDS_METHODS = frozenset({"gds", "nmode-gds", "nmode-wgds"})
SEARCH_MODES = ("coordinate", "exhaustive")
CLASSIFIERS = ("nn", "class-karcher")
WEIGHT_SCHEMES = ("auto", "fisher", "uniform")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for training and classification.

    `modes_used`, `per_mode_dims`, and `angle_counts` are aligned with each
    other; None means "all modes", "median of the energy-selected dimensions",
    and "all available angles" respectively.
    """

    method: str = "nmode-wgds"
    modes_used: tuple[int, ...] | None = None
    energy_mu: float = 0.90
    per_mode_dims: tuple[int, ...] | None = None
    angle_counts: tuple[int, ...] | None = None
    gds_alpha_max: int = 6
    gds_search: str = "coordinate"
    gds_beta_search: bool = False
    karcher_tol: float = 1e-8
    karcher_max_iter: int = 100
    classifier: str = "nn"
    weights: str = "auto"
    full_spectrum: bool = False
    projection_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.gds_search not in SEARCH_MODES:
            raise ValueError(f"gds_search must be one of {SEARCH_MODES}")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"classifier must be one of {CLASSIFIERS}")
        if self.weights not in WEIGHT_SCHEMES:
            raise ValueError(f"weights must be one of {WEIGHT_SCHEMES}")
        if not 0.0 < self.energy_mu <= 1.0:
            raise ValueError(f"energy_mu must be in (0, 1], got {self.energy_mu}")
        if self.gds_alpha_max < 1:
            raise ValueError("gds_alpha_max must be >= 1")
        if self.modes_used is not None:
            modes = tuple(int(m) for m in self.modes_used)
            if not modes:
                raise ValueError("modes_used must be non-empty when given")
            if len(set(modes)) != len(modes) or any(m < 1 for m in modes):
                raise ValueError(f"modes_used must be distinct indices >= 1, got {modes}")
            object.__setattr__(self, "modes_used", tuple(sorted(modes)))

    @property
    def uses_gds(self) -> bool:
        return self.method in GDS_METHODS

    def resolved_weight_scheme(self) -> str:
        if self.weights != "auto":
            return self.weights
        return "fisher" if self.method == "nmode-wgds" else "uniform"


@dataclass
class TrainedModel:
    """Everything classification needs, plus training diagnostics."""

    config: PipelineConfig
    modes: tuple[int, ...]
    dims: tuple[int, ...]
    mode_ambients: tuple[int, ...]
    data_dims: tuple[int, ...] | None
    class_ids: tuple[int, ...]
    gds: tuple[GdsBasis, ...] | None
    weights: WeightVector
    references: tuple[ProductPoint, ...]
    fisher_raw: NModeFisher
    fisher: NModeFisher
    angle_diag: tuple[tuple[float, float | None], ...]
    search_trace: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    recalls: np.ndarray
    confusion: np.ndarray
    mean_margin: float
    count: int


@dataclass(frozen=True)
class GdsSearchResult:
    pairs: tuple[tuple[int, int], ...]
    reports: tuple[FisherReport, ...]
    trace: tuple[dict, ...]


def _mode_matrix(sample, mode: int) -> UnfoldedMatrix:
    if isinstance(sample, DenseTensor):
        return unfold(sample, mode)
    return sample.unfolding(mode)


def _resolve_modes(config: PipelineConfig, order: int) -> tuple[int, ...]:
    if config.modes_used is None:
        return tuple(range(1, order + 1))
    if any(m > order for m in config.modes_used):
        raise DimensionError(
            f"modes_used {config.modes_used} exceed the tensor order {order}"
        )
    return config.modes_used


def extract_sample_point(sample, config: PipelineConfig) -> ProductPoint:
    """Raw product point of one sample: per selected mode, the subspace of the
    unfolding at the configured dimension (or the energy criterion when no
    fixed dimensions are set). No projection is applied."""
    modes = _resolve_modes(config, sample.order)
    if config.per_mode_dims is not None and len(config.per_mode_dims) != len(modes):
        raise DimensionError(
            f"per_mode_dims has {len(config.per_mode_dims)} entries for {len(modes)} modes"
        )
    parts = []
    for p, mode in enumerate(modes):
        mat = _mode_matrix(sample, mode)
        if config.per_mode_dims is not None:
            parts.append(basis_from_unfolding(mat, dim=config.per_mode_dims[p]))
        else:
            parts.append(basis_from_unfolding(mat, energy=config.energy_mu))
    return ProductPoint(tuple(parts))


def _group_by_class(points: Sequence[ProductPoint], class_ids, p: int):
    return [
        [pt.parts[p] for pt in points if pt.label == cid] for cid in class_ids
    ]


def optimize_gds_dims(
    grams: Sequence[ModeGram],
    train_points: Sequence[ProductPoint],
    config: PipelineConfig,
) -> GdsSearchResult:
    """Choose the retained eigenvector band per mode by maximizing the
    combined separability score of the projected training subspaces.

    Coordinate ascent sweeps the leading cut `alpha` of one mode at a time
    while the other modes stay at their current best, for two full rounds;
    exhaustive search enumerates every combination instead. Candidates whose
    projection collapses or whose score is degenerate are skipped; ties go to
    the smallest alpha (then the largest beta when the beta search is on).
    """
    points = list(train_points)
    class_ids = sorted({pt.label for pt in points})
    if len(class_ids) < 2 or None in class_ids:
        raise DimensionError("need labeled points from at least 2 classes")
    n = len(grams)

    cache: dict[tuple[int, int, int], FisherReport | None] = {}

    def evaluate(p: int, alpha: int, beta: int) -> FisherReport | None:
        key = (p, alpha, beta)
        if key not in cache:
            try:
                basis = gds_from_gram(grams[p], alpha, beta)
                grouped = [
                    [
                        project_onto_gds(basis, s, config.projection_tol)
                        for s in cls
                    ]
                    for cls in _group_by_class(points, class_ids, p)
                ]
                report = fisher_mode(
                    grouped,
                    mode=grams[p].mode,
                    karcher_tol=config.karcher_tol,
                    karcher_max_iter=config.karcher_max_iter,
                )
            except (DegeneracyError, DimensionError):
                report = None
            cache[key] = report
        return cache[key]

    def candidate_pairs(p: int) -> list[tuple[int, int]]:
        rank = grams[p].rank
        alphas = range(1, min(config.gds_alpha_max, rank) + 1)
        if config.gds_beta_search:
            return [(a, b) for a in alphas for b in range(rank, a - 1, -1)]
        return [(a, rank) for a in alphas]

    trace: list[dict] = []

    if config.gds_search == "exhaustive":
        import itertools

        best_pairs = None
        best_reports = None
        best_score = -np.inf
        for combo in itertools.product(*(candidate_pairs(p) for p in range(n))):
            reports = [evaluate(p, a, b) for p, (a, b) in enumerate(combo)]
            if any(r is None or r.flag is not None for r in reports):
                continue
            score = nmode_fisher(reports).score_n
            if not np.isfinite(score):
                continue
            trace.append({"combo": combo, "score": score})
            if score > best_score:
                best_score = score
                best_pairs = combo
                best_reports = reports
        if best_pairs is None:
            raise DegeneracyError(
                "no usable eigenvector band: every candidate was degenerate"
            )
        return GdsSearchResult(
            tuple(best_pairs), tuple(best_reports), tuple(trace)
        )

    current = [(1, g.rank) for g in grams]
    reports = [evaluate(p, 1, g.rank) for p, g in enumerate(grams)]
    if any(r is None or r.flag is not None for r in reports):
        raise DegeneracyError(
            "separability is degenerate at the full eigenvector band; "
            "the classes cannot be told apart"
        )
    for rnd in range(2):
        for p in range(n):
            best_pair = current[p]
            best_report = reports[p]
            best_score = -np.inf
            for a, b in candidate_pairs(p):
                rep = evaluate(p, a, b)
                if rep is None or rep.flag is not None:
                    continue
                trial = list(reports)
                trial[p] = rep
                score = nmode_fisher(trial).score_n
                if not np.isfinite(score):
                    continue
                if score > best_score:
                    best_score = score
                    best_pair = (a, b)
                    best_report = rep
            current[p] = best_pair
            reports[p] = best_report
            trace.append(
                {
                    "round": rnd,
                    "mode": grams[p].mode,
                    "alpha": best_pair[0],
                    "beta": best_pair[1],
                    "score": best_score,
                }
            )
    return GdsSearchResult(tuple(current), tuple(reports), tuple(trace))


def _class_pair_mean_angle(class_subspaces: Sequence[Subspace]) -> float:
    vals = []
    for a in range(len(class_subspaces)):
        for b in range(a + 1, len(class_subspaces)):
            vals.append(mean_canonical_angle(class_subspaces[a], class_subspaces[b]))
    return float(np.mean(vals))


def _fit_mode(samples, labels, class_ids, mode: int, dim: int | None, mu: float):
    """One mode of `fit`: unfold every sample, take one SVD per unfolding,
    fix the dimension (`dim`, or the median energy dimension when None), and
    build the sample and class subspaces. Returns the ambient dimension, the
    dimension, the sample subspaces and the class subspaces; the unfoldings
    are released on return."""
    mats = [_mode_matrix(s, mode) for s in samples]
    rows = mats[0].rows
    for i, m in enumerate(mats):
        if m.rows != rows:
            raise DimensionError(
                f"mode {mode}: sample {i} has ambient {m.rows}, expected {rows}"
            )
    svds = [left_singular(m) for m in mats]
    if dim is None:
        energy_dims = [select_dim(SingularSpectrum(lam), mu) for _, lam in svds]
        dim = int(round(float(np.median(energy_dims))))
    else:
        dim = int(dim)
    parts = [leading_basis(u, lam, dim) for u, lam in svds]
    class_subs = [
        basis_from_unfolding(
            np.hstack([m.matrix for m, label in zip(mats, labels) if label == cid]),
            dim=dim,
        )
        for cid in class_ids
    ]
    return rows, dim, parts, class_subs


def fit(samples: Sequence, labels: Sequence[int], config: PipelineConfig) -> TrainedModel:
    """Train a model: fix per-mode dimensions, build sample and class
    subspaces, learn the per-mode projections and weights where the method
    asks for them, and store the labeled reference points."""
    samples = list(samples)
    labels = [int(l) for l in labels]
    if len(samples) != len(labels):
        raise DimensionError("samples and labels differ in length")
    if not samples:
        raise DimensionError("empty training set")
    order = samples[0].order
    for s in samples[1:]:
        if s.order != order:
            raise DimensionError("samples have differing mode counts")
    tensors = [s for s in samples if isinstance(s, DenseTensor)]
    data_dims = None
    if len(tensors) == len(samples):
        data_dims = tensors[0].dims
        for t in tensors[1:]:
            if t.dims != data_dims:
                raise DimensionError(
                    f"tensor dims differ across the dataset: {t.dims} vs {data_dims}"
                )
    class_ids = tuple(sorted(set(labels)))
    if len(class_ids) < 2:
        raise DimensionError(f"need at least 2 classes, got {len(class_ids)}")

    modes = _resolve_modes(config, order)
    n = len(modes)
    fixed_dims = (None,) * n if config.per_mode_dims is None else config.per_mode_dims
    if len(fixed_dims) != n:
        raise DimensionError(
            f"per_mode_dims has {len(fixed_dims)} entries for {n} modes"
        )
    ambients, dims, parts, class_subs = zip(
        *(
            _fit_mode(samples, labels, class_ids, mode, dim, config.energy_mu)
            for mode, dim in zip(modes, fixed_dims)
        )
    )
    points = [
        ProductPoint(pt, label=label) for pt, label in zip(zip(*parts), labels)
    ]

    raw_reports = [
        fisher_mode(
            _group_by_class(points, class_ids, p),
            mode=modes[p],
            karcher_tol=config.karcher_tol,
            karcher_max_iter=config.karcher_max_iter,
        )
        for p in range(n)
    ]
    fisher_raw = nmode_fisher(raw_reports)
    raw_angles = [_class_pair_mean_angle(class_subs[p]) for p in range(n)]

    bases = None
    search_trace: tuple = ()
    if config.uses_gds:
        grams = [mode_gram(class_subs[p], modes[p]) for p in range(n)]
        result = optimize_gds_dims(grams, points, config)
        bases = tuple(
            gds_from_gram(grams[p], a, b) for p, (a, b) in enumerate(result.pairs)
        )
        search_trace = result.trace
        references = tuple(
            ProductPoint(
                tuple(
                    project_onto_gds(bases[p], pt.parts[p], config.projection_tol)
                    for p in range(n)
                ),
                label=pt.label,
            )
            for pt in points
        )
        fisher_final = nmode_fisher(result.reports)
        proj_angles = []
        for p in range(n):
            projected = [
                project_onto_gds(bases[p], cs, config.projection_tol)
                for cs in class_subs[p]
            ]
            proj_angles.append(_class_pair_mean_angle(projected))
        angle_diag = tuple(zip(raw_angles, proj_angles))
    else:
        references = tuple(points)
        fisher_final = fisher_raw
        angle_diag = tuple((a, None) for a in raw_angles)

    scheme = config.resolved_weight_scheme()
    if scheme == "fisher":
        weights = mode_weights([r.score for r in fisher_final.per_mode])
    else:
        weights = WeightVector(np.ones(n))

    resolved = dataclasses.replace(
        config, modes_used=modes, per_mode_dims=dims, weights=scheme
    )
    return TrainedModel(
        config=resolved,
        modes=modes,
        dims=dims,
        mode_ambients=ambients,
        data_dims=data_dims,
        class_ids=class_ids,
        gds=bases,
        weights=weights,
        references=references,
        fisher_raw=fisher_raw,
        fisher=fisher_final,
        angle_diag=angle_diag,
        search_trace=search_trace,
    )


def transform(model: TrainedModel, sample) -> ProductPoint:
    """Extract a sample's product point with the model's dimensions and apply
    the model's projections when present."""
    if isinstance(sample, DenseTensor) and model.data_dims is not None:
        if sample.dims != model.data_dims:
            raise DimensionError(
                f"tensor dims {sample.dims} do not match the model dims {model.data_dims}"
            )
    parts = []
    for p, mode in enumerate(model.modes):
        mat = _mode_matrix(sample, mode)
        if mat.rows != model.mode_ambients[p]:
            raise DimensionError(
                f"mode {mode}: ambient {mat.rows} does not match the model's "
                f"{model.mode_ambients[p]}"
            )
        part = basis_from_unfolding(mat, dim=model.dims[p])
        if model.gds is not None:
            part = project_onto_gds(
                model.gds[p], part, model.config.projection_tol
            )
        parts.append(part)
    return ProductPoint(tuple(parts))


def point_distance(model: TrainedModel, a: ProductPoint, b: ProductPoint) -> float:
    return weighted_geodesic(
        a,
        b,
        model.weights,
        angle_counts=model.config.angle_counts,
        full_spectrum=model.config.full_spectrum,
    )


def pairwise_distances(model: TrainedModel, points: Sequence[ProductPoint]) -> np.ndarray:
    pts = list(points)
    n = len(pts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = point_distance(model, pts[i], pts[j])
            out[i, j] = d
            out[j, i] = d
    return out


def _class_mean_points(model: TrainedModel) -> tuple[ProductPoint, ...]:
    if "class_points" not in model._cache:
        pts = []
        for cid in model.class_ids:
            parts = []
            for p in range(len(model.modes)):
                subs = [
                    r.parts[p] for r in model.references if r.label == cid
                ]
                parts.append(
                    karcher_mean(
                        subs,
                        tol=model.config.karcher_tol,
                        max_iter=model.config.karcher_max_iter,
                    )
                )
            pts.append(ProductPoint(tuple(parts), label=cid))
        model._cache["class_points"] = tuple(pts)
    return model._cache["class_points"]


def classify(model: TrainedModel, sample) -> tuple[int, np.ndarray]:
    """Label a sample: nearest reference (nn) or nearest class mean point
    (class-karcher). Returns the winning class id and the per-class minimum
    distances, ordered by class id; ties go to the smallest class id."""
    query = transform(model, sample)
    scores = np.full(len(model.class_ids), np.inf)
    if model.config.classifier == "nn":
        for ref in model.references:
            d = point_distance(model, query, ref)
            idx = model.class_ids.index(ref.label)
            if d < scores[idx]:
                scores[idx] = d
    else:
        for idx, mean_pt in enumerate(_class_mean_points(model)):
            scores[idx] = point_distance(model, query, mean_pt)
    return model.class_ids[int(np.argmin(scores))], scores


def evaluate(model: TrainedModel, samples: Sequence, labels: Sequence[int]) -> EvalMetrics:
    """Accuracy, per-class recall, confusion matrix (rows = true class), and
    the mean margin between the runner-up and the winning distance."""
    samples = list(samples)
    labels = [int(l) for l in labels]
    if len(samples) != len(labels):
        raise DimensionError("samples and labels differ in length")
    if not samples:
        raise DimensionError("empty evaluation set")
    index = {cid: i for i, cid in enumerate(model.class_ids)}
    m = len(model.class_ids)
    confusion = np.zeros((m, m), dtype=np.int64)
    margins = []
    for sample, label in zip(samples, labels):
        if label not in index:
            raise DimensionError(f"label {label} is not a model class")
        pred, scores = classify(model, sample)
        confusion[index[label], index[pred]] += 1
        top = np.sort(scores)[:2]
        margins.append(float(top[1] - top[0]))
    correct = int(np.trace(confusion))
    row_sums = confusion.sum(axis=1)
    recalls = np.where(
        row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), np.nan
    )
    return EvalMetrics(
        accuracy=correct / len(samples),
        recalls=recalls,
        confusion=confusion,
        mean_margin=float(np.mean(margins)),
        count=len(samples),
    )

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
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError
from .fisher import FisherReport, NModeFisher, fisher_mode, karcher_means, nmode_fisher
from .gds import GdsBasis, ModeGram, gds_from_gram, mode_gram, project_onto_gds
from .manifold import ProductPoint, WeightVector, mode_weights, weighted_geodesics
from .subspace import (
    SingularSpectrum,
    Subspace,
    basis_from_unfolding,
    basis_stack,
    leading_basis,
    left_factor,
    left_singular,
    mean_canonical_angle,
    select_dim,
)
from .tensor import DenseTensor, unfold

# The values each string setting accepts: `PipelineConfig` checks them and
# the CLI offers them as flag choices.
CHOICES = {
    "method": ("msm", "gds", "pgm", "nmode-gds", "nmode-wgds"),
    "gds_search": ("coordinate", "exhaustive"),
    "classifier": ("nn", "class-karcher"),
}
GDS_METHODS = frozenset({"gds", "nmode-gds", "nmode-wgds"})


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for training and classification.

    `modes_used`, `per_mode_dims`, and `angle_counts` are aligned with each
    other; None means "all modes", "median of the energy-selected dimensions",
    and "all available angles" respectively.

    `gds_search` selects no code: both of its values run coordinate ascent
    to a fixed point, which is already the best band combination (see
    `optimize_gds_dims`). It stays so that models, config files and
    `run_config.txt` echoes that spell `exhaustive` still load and fit.
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
    full_spectrum: bool = False

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if not 0.0 < self.energy_mu <= 1.0:
            raise ValueError(f"energy_mu must be in (0, 1], got {self.energy_mu}")
        if self.gds_alpha_max < 1:
            raise ValueError("gds_alpha_max must be >= 1")
        if not 0.0 < self.karcher_tol < math.inf:
            raise ValueError(f"karcher_tol must be finite and > 0, got {self.karcher_tol}")
        if self.karcher_max_iter < 1:
            raise ValueError(f"karcher_max_iter must be >= 1, got {self.karcher_max_iter}")
        for name in ("per_mode_dims", "angle_counts"):
            values = getattr(self, name)
            if values is not None and any(v < 1 for v in values):
                raise ValueError(f"{name} entries must be >= 1, got {values}")
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

    @property
    def uses_fisher_weights(self) -> bool:
        """Whether `fit` weights the modes by separability; every other
        method weights them uniformly."""
        return self.method == "nmode-wgds"


@dataclass(frozen=True)
class Setting:
    """How one `PipelineConfig` field is spelled as text.

    `key` is the field's config-file key, fit flag (`--key`) and
    `run_config.txt` key; `model_key` is its key in the `.nmdl` settings
    block. The text form follows the type of the field's default: a comma
    list of ints or `none` for None, `true`/`false`, a float with 17
    significant digits (it parses back exactly), an int, a string.
    """

    name: str
    key: str
    model_key: str
    help: str | None = None

    @property
    def kind(self) -> type:
        return type(PipelineConfig.__dataclass_fields__[self.name].default)

    def format(self, value) -> str:
        if self.kind is type(None):
            return "none" if value is None else ",".join(str(v) for v in value)
        if self.kind is float:
            return format(float(value), ".17g")
        return str(value).lower() if self.kind is bool else str(value)

    def parse(self, text: str):
        if self.kind is type(None):
            return None if text == "none" else tuple(int(v) for v in text.split(","))
        if self.kind is bool:
            if text.lower() not in ("true", "false"):
                raise ValueError(f"expected true or false, got {text!r}")
            return text.lower() == "true"
        return self.kind(text)


# One row per PipelineConfig field, in field order.
SETTINGS = (
    Setting("method", "method", "method"),
    Setting("modes_used", "modes", "modes", "comma list, e.g. 1,2,3"),
    Setting("energy_mu", "mu", "energy_mu", "energy fraction for dimension selection"),
    Setting("per_mode_dims", "mode-dims", "dims", "fixed per-mode dims"),
    Setting("angle_counts", "angles", "angle_counts", "per-mode canonical angle counts"),
    Setting("gds_alpha_max", "alpha-max", "gds_alpha_max", "search bound for the leading cut"),
    Setting("gds_search", "search", "gds_search", "both values run the one band search"),
    Setting("gds_beta_search", "beta-search", "gds_beta_search"),
    Setting("karcher_tol", "karcher-tol", "karcher_tol"),
    Setting("karcher_max_iter", "karcher-max-iter", "karcher_max_iter"),
    Setting("classifier", "classifier", "classifier"),
    Setting("full_spectrum", "full-spectrum", "full_spectrum"),
)


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
    """The chosen (alpha, beta) band per mode, its report, the search trace,
    and per mode the (N, w, k) stack of the training bases projected onto
    the chosen band, in sample order."""

    pairs: tuple[tuple[int, int], ...]
    reports: tuple[FisherReport, ...]
    trace: tuple[dict, ...]
    parts: tuple[np.ndarray, ...]


def _class_members(labels, class_ids) -> list[list[int]]:
    """Per class id, the indices of the samples that carry it."""
    return [[i for i, label in enumerate(labels) if label == cid] for cid in class_ids]


def optimize_gds_dims(
    grams: Sequence[ModeGram],
    stacks: Sequence[np.ndarray],
    labels: Sequence[int],
    config: PipelineConfig,
) -> GdsSearchResult:
    """Choose the retained eigenvector band per mode by maximizing the
    combined separability score of the projected training subspaces.

    `stacks` holds, per mode of `grams`, the (N, d, k) stack of the training
    bases, in the order of `labels`. Coordinate ascent sweeps the candidate
    bands of one mode at a time while the other modes stay at their current
    best, starting from the full band, until a round changes no band.
    Candidates whose projection collapses, leaves bases of unequal width or
    whose score is degenerate are skipped; ties go to the smallest alpha
    (then the largest beta when the beta search is on).

    The fixed point is a global optimum: the combined score is a ratio of
    per-mode sums, so at a fixed point with ratio r each mode's band
    maximizes its between - r * within, and no combination of bands can beat
    r (Dinkelbach 1967). `config.gds_search` therefore selects nothing; both
    of its values run this search.
    """
    members = _class_members(labels, sorted(set(labels)))
    if len(members) < 2:
        raise DimensionError("need labeled samples from at least 2 classes")
    if len(stacks) != len(grams):
        raise DimensionError(
            f"{len(stacks)} basis stacks for the modes {[g.mode for g in grams]}"
        )
    for gram, stack in zip(grams, stacks):
        if len(stack) != len(labels):
            raise DimensionError(
                f"mode {gram.mode}: {len(stack)} training bases for {len(labels)} labels"
            )

    cache: dict[tuple[int, int, int], tuple | None] = {}

    def evaluate(p: int, alpha: int, beta: int):
        """The candidate's report and its (N, w, k) stack of projected
        training bases, or None when the candidate is unusable."""
        key = (p, alpha, beta)
        if key not in cache:
            cache[key] = None
            try:
                parts = project_onto_gds(gds_from_gram(grams[p], alpha, beta), stacks[p])
            except (DegeneracyError, DimensionError):
                return None
            # a basis the band narrowed leaves no common stack to average
            if len({b.shape for b in parts}) == 1:
                proj = np.stack(parts)
                report = fisher_mode(
                    [proj[idx] for idx in members],
                    mode=grams[p].mode,
                    karcher_tol=config.karcher_tol,
                    karcher_max_iter=config.karcher_max_iter,
                )
                if report.flag is None:
                    cache[key] = (report, proj)
        return cache[key]

    def candidate_pairs(p: int) -> list[tuple[int, int]]:
        rank = grams[p].rank
        alphas = range(1, min(config.gds_alpha_max, rank) + 1)
        if config.gds_beta_search:
            return [(a, b) for a in alphas for b in range(rank, a - 1, -1)]
        return [(a, rank) for a in alphas]

    current = [(1, g.rank) for g in grams]
    chosen = [evaluate(p, *pair) for p, pair in enumerate(current)]
    if any(c is None for c in chosen):
        raise DegeneracyError(
            "separability is degenerate at the full eigenvector band; "
            "the classes cannot be told apart"
        )
    trace: list[dict] = []
    # A band changes only to a candidate with a higher combined score, or an
    # equal score and an earlier place in the candidate order, so each change
    # raises (score, -sum of candidate indices) lexicographically and the
    # loop ends. Every evaluation is cached: the confirming round scores
    # nothing anew.
    for rnd in itertools.count():
        start = list(current)
        for p in range(len(grams)):
            best_score = -np.inf
            for pair in candidate_pairs(p):
                candidate = evaluate(p, *pair)
                if candidate is None:
                    continue
                trial = [report for report, _ in chosen]
                trial[p] = candidate[0]
                score = nmode_fisher(trial).score_n
                if np.isfinite(score) and score > best_score:
                    best_score, current[p], chosen[p] = score, pair, candidate
            trace.append(
                {
                    "round": rnd,
                    "mode": grams[p].mode,
                    "alpha": current[p][0],
                    "beta": current[p][1],
                    "score": best_score,
                }
            )
        if current == start:
            break
    reports, parts = zip(*chosen)
    return GdsSearchResult(tuple(current), reports, tuple(trace), parts)


def _class_pair_mean_angle(class_subspaces: Sequence) -> float:
    pairs = itertools.combinations(class_subspaces, 2)
    return float(np.mean([mean_canonical_angle(a, b) for a, b in pairs]))


def _fit_mode(samples, labels, class_ids, mode: int, dim: int | None, mu: float):
    """One mode of `fit`: compress every sample's unfolding to its
    `left_factor`, take one SVD per factor, fix the dimension (`dim`, or the
    median energy dimension when None), and build the sample bases and,
    from the stacked factors of each class, the class subspaces. Returns the
    dimension, the (N, d, dim) stack of sample bases and the class
    subspaces; each unfolding is released once it is compressed."""
    factors = [left_factor(unfold(s, mode)) for s in samples]
    svds = [left_singular(f) for f in factors]
    if dim is None:
        energy_dims = [select_dim(SingularSpectrum(lam), mu) for _, lam in svds]
        dim = int(round(float(np.median(energy_dims))))
    else:
        dim = int(dim)
    stack = np.stack([leading_basis(u, lam, dim) for u, lam in svds])
    class_subs = [
        basis_from_unfolding(
            np.hstack([f for f, label in zip(factors, labels) if label == cid]),
            dim=dim,
        )
        for cid in class_ids
    ]
    return dim, stack, class_subs


def fit(
    samples: Sequence[DenseTensor], labels: Sequence[int], config: PipelineConfig
) -> TrainedModel:
    """Train a model: fix per-mode dimensions, build sample and class
    subspaces, learn the per-mode projections and weights where the method
    asks for them, and store the labeled reference points."""
    samples = list(samples)
    labels = [int(l) for l in labels]
    if len(samples) != len(labels):
        raise DimensionError("samples and labels differ in length")
    if not samples:
        raise DimensionError("empty training set")
    data_dims = samples[0].dims
    for s in samples[1:]:
        if s.dims != data_dims:
            raise DimensionError(
                f"tensor dims differ across the dataset: {s.dims} vs {data_dims}"
            )
    class_ids = tuple(sorted(set(labels)))
    if len(class_ids) < 2:
        raise DimensionError(f"need at least 2 classes, got {len(class_ids)}")

    modes = config.modes_used or tuple(range(1, len(data_dims) + 1))
    if max(modes) > len(data_dims):
        raise DimensionError(
            f"modes_used {modes} exceed the tensor order {len(data_dims)}"
        )
    n = len(modes)
    fixed_dims = (None,) * n if config.per_mode_dims is None else config.per_mode_dims
    for name in ("per_mode_dims", "angle_counts"):
        values = getattr(config, name)
        if values is not None and len(values) != n:
            raise DimensionError(f"{name} has {len(values)} entries for {n} modes")
    for mode, dim in zip(modes, fixed_dims):
        if dim is not None and dim > data_dims[mode - 1]:
            raise DimensionError(
                f"per_mode_dims entry {dim} for mode {mode} exceeds its extent "
                f"{data_dims[mode - 1]}"
            )
    dims, stacks, class_subs = zip(
        *(
            _fit_mode(samples, labels, class_ids, mode, dim, config.energy_mu)
            for mode, dim in zip(modes, fixed_dims)
        )
    )
    members = _class_members(labels, class_ids)

    raw_reports = [
        fisher_mode(
            [stacks[p][idx] for idx in members],
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
        result = optimize_gds_dims(grams, stacks, labels, config)
        bases = tuple(
            gds_from_gram(grams[p], a, b) for p, (a, b) in enumerate(result.pairs)
        )
        search_trace = result.trace
        stacks = result.parts  # the references keep the projected bases
        fisher_final = nmode_fisher(result.reports)
        proj_angles = [
            _class_pair_mean_angle(project_onto_gds(b, basis_stack(subs)))
            for b, subs in zip(bases, class_subs)
        ]
        angle_diag = tuple(zip(raw_angles, proj_angles))
    else:
        fisher_final = fisher_raw
        angle_diag = tuple((a, None) for a in raw_angles)
    references = tuple(
        ProductPoint(tuple(map(Subspace, parts)), label=label)
        for parts, label in zip(zip(*stacks), labels)
    )

    for p, count in enumerate(config.angle_counts or ()):
        top = stacks[p].shape[2]
        if not 1 <= count <= top:
            raise DimensionError(
                f"angle_counts entry {count} for mode {modes[p]} is outside 1..{top}"
            )

    if config.uses_fisher_weights:
        weights = mode_weights([r.score for r in fisher_final.per_mode])
    else:
        weights = WeightVector(np.ones(n))

    resolved = dataclasses.replace(config, modes_used=modes, per_mode_dims=dims)
    return TrainedModel(
        config=resolved,
        modes=modes,
        dims=dims,
        mode_ambients=tuple(data_dims[m - 1] for m in modes),
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


def transform(model: TrainedModel, sample: DenseTensor) -> ProductPoint:
    """Extract a sample's product point with the model's dimensions and apply
    the model's projections when present. The per-mode ambient check serves
    models saved without their data dims."""
    if model.data_dims is not None and sample.dims != model.data_dims:
        raise DimensionError(
            f"tensor dims {sample.dims} do not match the model dims {model.data_dims}"
        )
    parts = []
    for p, mode in enumerate(model.modes):
        mat = unfold(sample, mode)
        if mat.shape[0] != model.mode_ambients[p]:
            raise DimensionError(
                f"mode {mode}: ambient {mat.shape[0]} does not match the model's "
                f"{model.mode_ambients[p]}"
            )
        part = basis_from_unfolding(mat, dim=model.dims[p])
        if model.gds is not None:
            part = project_onto_gds(model.gds[p], part)
        parts.append(part)
    return ProductPoint(tuple(parts))


def point_distances(
    model: TrainedModel, query: ProductPoint, points: Sequence[ProductPoint]
) -> np.ndarray:
    """Distance from `query` to each of `points` in the model's metric."""
    return weighted_geodesics(
        query,
        points,
        model.weights,
        angle_counts=model.config.angle_counts,
        full_spectrum=model.config.full_spectrum,
    )


def pairwise_distances(model: TrainedModel, points: Sequence[ProductPoint]) -> np.ndarray:
    """Symmetric distance matrix with an exactly zero diagonal: each row is
    computed against the later points only and mirrored."""
    pts = list(points)
    upper = np.zeros((len(pts), len(pts)))
    for i in range(len(pts) - 1):
        upper[i, i + 1 :] = point_distances(model, pts[i], pts[i + 1 :])
    return upper + upper.T


def _class_mean_points(model: TrainedModel) -> tuple[ProductPoint, ...]:
    if "class_points" not in model._cache:
        refs = model.references
        members = _class_members([ref.label for ref in refs], model.class_ids)
        means = [
            karcher_means(
                [[refs[i].parts[p] for i in idx] for idx in members],
                tol=model.config.karcher_tol,
                max_iter=model.config.karcher_max_iter,
            )
            for p in range(len(model.modes))
        ]
        model._cache["class_points"] = tuple(
            ProductPoint(parts, label=cid)
            for cid, parts in zip(model.class_ids, zip(*means))
        )
    return model._cache["class_points"]


def classify(model: TrainedModel, sample) -> tuple[int, np.ndarray]:
    """Label a sample: nearest reference (nn) or nearest class mean point
    (class-karcher). Returns the winning class id and the per-class minimum
    distances, ordered by class id (inf for a class without references); ties
    go to the smallest class id."""
    query = transform(model, sample)
    if model.config.classifier == "nn":
        dists = point_distances(model, query, model.references)
        labels = np.array([ref.label for ref in model.references])
        scores = np.array(
            [dists[labels == cid].min(initial=np.inf) for cid in model.class_ids]
        )
    else:
        scores = point_distances(model, query, _class_mean_points(model))
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

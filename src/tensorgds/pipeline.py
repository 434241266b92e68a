"""End-to-end training and classification.

Methods share one framework: every sample becomes a tuple of per-mode
subspaces; the difference-subspace methods additionally sharpen each mode
with a learned projection before measuring distances.

  pgm         all selected modes, no projection, unit weights
  nmode-gds   projection on every selected mode, unit weights
  nmode-wgds  projection plus separability-derived mode weights

A single-mode baseline is one of these with one mode selected: `pgm` on
mode m is the mutual subspace method (MSM), `nmode-gds` on mode m is GDS.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DimensionError
from .fisher import FisherReport, NModeFisher, fisher_modes, karcher_means, nmode_fisher
from .gds import GdsBasis, gds_from_gram, mode_gram, project_onto_gds
from .manifold import ProductPoint, WeightVector, mode_weights, weighted_geodesics
from .subspace import (
    Subspace,
    canonical_correlations,
    gram_spectrum,
    group_by_shape,
    leading_basis,
    select_dim,
)
from .tensor import DenseTensor, unfolding_gram

# The values each string setting accepts: `PipelineConfig` checks them and
# the CLI offers them as flag choices.
CHOICES = {
    "method": ("pgm", "nmode-gds", "nmode-wgds"),
    "gds_search": ("coordinate",),
    "classifier": ("nn", "class-karcher"),
}
# Values of older files, by field, each with the value that runs the same
# code; model and config files read them as that value (`Setting.current`).
RETIRED_VALUES = {
    "method": {"msm": "pgm", "gds": "nmode-gds"},
    "gds_search": {"exhaustive": "coordinate"},
}
# Pairs that `pairwise_distances` or an `evaluate` block gathers into one
# stack per mode: it bounds the memory of the gathered bases, not the result.
PAIR_BLOCK = 2048


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for training and classification.

    `modes_used`, `per_mode_dims`, and `angle_counts` are aligned with each
    other; None means "all modes", "median of the energy-selected dimensions",
    and "all available angles" respectively. The modes are kept sorted, and
    a list with one entry per mode is permuted with them.

    `gds_search` selects no code: its one value, `coordinate`, names the
    band search of `optimize_gds_dims`. The benchmark workloads spell it.
    Every Karcher mean stops by the defaults of `fisher.karcher_means`.
    """

    method: str = "nmode-wgds"
    modes_used: tuple[int, ...] | None = None
    energy_mu: float = 0.90
    per_mode_dims: tuple[int, ...] | None = None
    angle_counts: tuple[int, ...] | None = None
    gds_alpha_max: int = 6
    gds_search: str = "coordinate"
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
            order = sorted(range(len(modes)), key=modes.__getitem__)
            for name in ("per_mode_dims", "angle_counts"):
                values = getattr(self, name)
                if values is not None and len(values) == len(modes):
                    object.__setattr__(self, name, tuple(values[i] for i in order))
            object.__setattr__(self, "modes_used", tuple(sorted(modes)))

    @property
    def uses_gds(self) -> bool:
        return self.method != "pgm"

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

    def current(self, text: str) -> str:
        """The text, or a retired value's replacement (RETIRED_VALUES)."""
        return RETIRED_VALUES.get(self.name, {}).get(text, text)

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
    Setting("gds_search", "search", "gds_search", "the one band search"),
    Setting("classifier", "classifier", "classifier"),
    Setting("full_spectrum", "full-spectrum", "full_spectrum"),
)


@dataclass
class TrainedModel:
    """Everything classification needs, plus training diagnostics. It holds
    what `fit` chose and derives the rest: `modes` and `dims` from `config`,
    `mode_ambients` from `data_dims`, `class_ids` from the reference labels."""

    config: PipelineConfig
    data_dims: tuple[int, ...]
    gds: tuple[GdsBasis, ...] | None
    weights: WeightVector
    references: tuple[ProductPoint, ...]
    fisher_raw: NModeFisher
    fisher: NModeFisher
    angle_diag: tuple[tuple[float, float | None], ...]
    search_trace: tuple = ()
    # derived from `references` once per model: per mode the (R, d, k)
    # stack of their bases, their labels in the same order, and the classes
    reference_stacks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    reference_labels: np.ndarray = field(init=False, repr=False, compare=False)
    class_ids: tuple[int, ...] = field(init=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = list(group_by_shape([r.bases for r in self.references]))
        if len(groups) > 1:
            raise DimensionError(f"references of {len(groups)} part shapes do not stack")
        self.reference_stacks = groups[0][1] if groups else ()
        self.reference_labels = np.array([r.label for r in self.references], dtype=np.int64)
        self.class_ids = tuple(sorted({r.label for r in self.references}))

    @property
    def modes(self) -> tuple[int, ...]:
        return self.config.modes_used

    @property
    def dims(self) -> tuple[int, ...]:
        return self.config.per_mode_dims

    @property
    def mode_ambients(self) -> tuple[int, ...]:
        return tuple(self.data_dims[m - 1] for m in self.modes)


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    recalls: np.ndarray
    confusion: np.ndarray
    mean_margin: float
    count: int


@dataclass(frozen=True)
class GdsSearchResult:
    """The chosen band per mode, its report, the search trace, per mode the
    (N, w, k) stack of the training bases projected onto the chosen band, in
    sample order, and per mode the report of the raw training bases."""

    bases: tuple[GdsBasis, ...]
    reports: tuple[FisherReport, ...]
    trace: tuple[dict, ...]
    parts: tuple[np.ndarray, ...]
    raw_reports: tuple[FisherReport, ...]


def _class_members(labels, class_ids) -> list[list[int]]:
    """Per class id, the indices of the samples that carry it."""
    return [[i for i, label in enumerate(labels) if label == cid] for cid in class_ids]


def _project_band(band: GdsBasis, stack: np.ndarray) -> np.ndarray | None:
    """The (N, w, k) stack of the training bases projected onto the band, or
    None when some basis is orthogonal to the band or the band narrows some
    basis."""
    try:
        parts = project_onto_gds(band, stack)
    except DegeneracyError:
        return None
    # a basis the band narrowed leaves no common stack to average
    if len({b.shape for b in parts}) > 1:
        return None
    return np.stack(parts)


def optimize_gds_dims(
    grams: Sequence[GdsBasis],
    stacks: Sequence[np.ndarray],
    labels: Sequence[int],
    config: PipelineConfig,
) -> GdsSearchResult:
    """Choose the retained eigenvector band per mode by maximizing the
    combined separability score of the projected training subspaces.

    `grams` holds each mode's full band (`mode_gram`) and `stacks` per mode
    the (N, d, k) stack of the training bases, in the order of `labels`. A
    mode's candidates are its full band and the bands alpha..rank for alpha
    = 2..min(`gds_alpha_max`, rank), which drop the leading alpha - 1
    eigenvectors, the shared directions, and keep the whole tail (Fukui &
    Maki 2015). One `fisher_modes` call scores each mode's raw bases and
    every projected candidate, each once. A candidate is scored in the
    mode's ambient coordinates, as B @ proj with B the band's basis: a
    band's orthonormal basis embeds Gr(k, w) isometrically and totally
    geodesically in Gr(k, d) (Edelman, Arias & Smith 1998), so the spreads
    and Karcher means are those of the band coordinates up to rounding, and
    class sets of one size share one Karcher shape group whatever their
    band's width; the chosen bases, and so the references, keep band
    coordinates. A full band of rank equal to its ambient dimension is an
    orthogonal G, so G^T U only rotates the raw bases, which geodesic
    distances, and so Karcher means and spreads, do not see: such a band
    takes its mode's raw report, equal to its score up to rounding, and is
    not scored. Candidates whose projection collapses, leaves bases of
    unequal width or whose score is degenerate are skipped; a skipped full
    band is a `DegeneracyError`. Coordinate ascent then sweeps one mode's
    usable candidates at a time, the other modes at their current best,
    from the full band until a round changes no band; ties go to the
    smallest alpha.

    The fixed point is a global optimum: the combined score is a ratio of
    per-mode sums, so at a fixed point with ratio r each mode's band
    maximizes its between - r * within, and no combination of bands can beat
    r (Dinkelbach 1967). `config.gds_search` therefore has one value,
    `coordinate`, and selects nothing.
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

    # the raw class sets of every mode, then those of each scored candidate;
    # per mode, each candidate band (full band first) with its projected
    # stack and whether it is scored: a full band of full rank is not
    tasks = [([stack[idx] for idx in members], gram.mode) for gram, stack in zip(grams, stacks)]
    candidates = []
    for gram, stack in zip(grams, stacks):
        alphas = range(2, min(config.gds_alpha_max, gram.rank) + 1)
        bands = [gram] + [gds_from_gram(gram, a) for a in alphas]
        candidates.append([])
        for band in bands:
            proj = _project_band(band, stack)
            fresh = proj is not None and not (band is gram and gram.rank == gram.ambient_dim)
            if fresh:
                embedded = band.basis @ proj
                tasks.append(([embedded[idx] for idx in members], band.mode))
            candidates[-1].append((band, proj, fresh))
    reports = fisher_modes(tasks)
    raw_reports, rest = reports[: len(grams)], iter(reports[len(grams) :])
    # per mode, the usable candidates in candidate order, full band first
    scored = []
    for raw, cands in zip(raw_reports, candidates):
        entries = [(band, next(rest) if fresh else raw, proj) for band, proj, fresh in cands]
        usable = [e for e in entries if e[2] is not None and e[1].flag is None]
        if not usable or usable[0] is not entries[0]:  # the full band is unusable
            raise DegeneracyError(
                "separability is degenerate at the full eigenvector band; "
                "the classes cannot be told apart"
            )
        scored.append(usable)
    chosen = [0] * len(grams)
    trace: list[dict] = []
    # A band changes only to a candidate with a higher combined score, or an
    # equal score and an earlier place in the candidate order, so each change
    # raises (score, -sum of candidate indices) lexicographically and the
    # loop ends.
    for rnd in itertools.count():
        start = list(chosen)
        for p, candidates in enumerate(scored):
            trial = [scored[q][i][1] for q, i in enumerate(chosen)]
            best_score = -np.inf
            for i, (_, report, _) in enumerate(candidates):
                trial[p] = report
                score = nmode_fisher(trial).score_n
                if np.isfinite(score) and score > best_score:
                    best_score, chosen[p] = score, i
            band = candidates[chosen[p]][0]
            trace.append(
                dict(round=rnd, mode=band.mode, alpha=band.alpha, beta=band.beta, score=best_score)
            )
        if chosen == start:
            break
    bases, reports, parts = zip(*(scored[p][i] for p, i in enumerate(chosen)))
    return GdsSearchResult(bases, reports, tuple(trace), parts, tuple(raw_reports))


def check_angle_counts(counts, modes, widths) -> None:
    """Angle counts, unless None, must give one count per mode, each in
    1..`widths`, the width of its mode's references or a bound on it."""
    if counts is not None and len(counts) != len(modes):
        raise DimensionError(f"angle_counts has {len(counts)} entries for {len(modes)} modes")
    for count, mode, top in zip(counts or (), modes, widths):
        if not 1 <= count <= top:
            raise DimensionError(
                f"angle_counts entry {count} for mode {mode} is outside 1..{top}"
            )


def _class_pair_mean_angle(class_bases: Sequence) -> float:
    """The mean over class pairs, in pair order, of their mean canonical
    angle: one `canonical_correlations` call per pair of part shapes, since
    projection can leave class bases of unequal width."""
    pairs = list(itertools.combinations(class_bases, 2))
    means = np.empty(len(pairs))
    for idx, (a, b) in group_by_shape(pairs):
        means[idx] = np.mean(np.arccos(canonical_correlations(a, b)), axis=-1)
    return float(np.mean(means))


def _mode_bases(samples, mode: int, dim: int | None, mu: float):
    """The one rule of `fit` and the queries for the samples' bases in a mode:
    each sample's `unfolding_gram`, one `gram_spectrum` of the (N, d, d)
    stack, the dimension (`dim`, or the median energy dimension of `mu` when
    None) and that many leading eigenvectors. Returns the dimension, the
    (N, d, dim) stack of bases, the Gram stack and the Grams' exponents."""
    grams, exps = map(np.array, zip(*(unfolding_gram(s, mode) for s in samples)))
    u, lam = gram_spectrum(grams, samples[0].size // grams.shape[-1])
    dim = int(round(float(np.median(select_dim(lam, mu))))) if dim is None else int(dim)
    return dim, leading_basis(u, lam, dim), grams, exps


def _fit_mode(samples, labels, class_ids, mode: int, dim: int | None, mu: float):
    """One mode of `fit`: the dimension, the (N, d, dim) stack of sample
    bases of `_mode_bases` and the (C, d, dim) stack of class bases from the
    sum of each class's Grams, the Gram of its stacked unfoldings, each
    member's Gram first scaled to the class's largest exponent."""
    dim, stack, grams, exps = _mode_bases(samples, mode, dim, mu)
    members = _class_members(labels, class_ids)
    sums = [np.sum(np.ldexp(grams[i], exps[i, None, None] - max(exps[i])), 0) for i in members]
    cols = [len(i) * samples[0].size // stack.shape[1] for i in members]
    return dim, stack, leading_basis(*gram_spectrum(np.stack(sums), cols), dim)


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
    if len(fixed_dims) != n:
        raise DimensionError(f"per_mode_dims has {len(fixed_dims)} entries for {n} modes")
    check_angle_counts(config.angle_counts, modes, [data_dims[m - 1] for m in modes])
    for mode, dim in zip(modes, fixed_dims):
        if dim is not None and dim > data_dims[mode - 1]:
            raise DimensionError(
                f"per_mode_dims entry {dim} for mode {mode} exceeds its extent "
                f"{data_dims[mode - 1]}"
            )
    dims, stacks, class_stacks = zip(
        *(
            _fit_mode(samples, labels, class_ids, mode, dim, config.energy_mu)
            for mode, dim in zip(modes, fixed_dims)
        )
    )
    check_angle_counts(config.angle_counts, modes, dims)
    raw_angles = [_class_pair_mean_angle(c) for c in class_stacks]

    bases = None
    search_trace: tuple = ()
    if config.uses_gds:
        grams = [mode_gram(c, mode) for c, mode in zip(class_stacks, modes)]
        result = optimize_gds_dims(grams, stacks, labels, config)
        bases = result.bases
        search_trace = result.trace
        stacks = result.parts  # the references keep the projected bases
        fisher_raw = nmode_fisher(result.raw_reports)
        fisher_final = nmode_fisher(result.reports)
        proj_angles = [
            _class_pair_mean_angle(project_onto_gds(b, c))
            for b, c in zip(bases, class_stacks)
        ]
        angle_diag = tuple(zip(raw_angles, proj_angles))
    else:
        members = _class_members(labels, class_ids)
        raw_reports = fisher_modes(
            [([stack[idx] for idx in members], mode) for stack, mode in zip(stacks, modes)]
        )
        fisher_raw = fisher_final = nmode_fisher(raw_reports)
        angle_diag = tuple((a, None) for a in raw_angles)
    references = tuple(
        ProductPoint(tuple(map(Subspace, parts)), label=label)
        for parts, label in zip(zip(*stacks), labels)
    )

    # a band can narrow every basis of a mode below its angle count
    check_angle_counts(config.angle_counts, modes, [s.shape[2] for s in stacks])

    resolved = dataclasses.replace(config, modes_used=modes, per_mode_dims=dims)
    return TrainedModel(
        config=resolved,
        data_dims=data_dims,
        gds=bases,
        weights=method_weights(config, fisher_final),
        references=references,
        fisher_raw=fisher_raw,
        fisher=fisher_final,
        angle_diag=angle_diag,
        search_trace=search_trace,
    )


def method_weights(config: PipelineConfig, fisher: NModeFisher) -> WeightVector:
    """The mode weights of `fit`: `mode_weights` of the final separability
    scores for a method that weights by them, all ones for every other."""
    if config.uses_fisher_weights:
        return mode_weights([r.score for r in fisher.per_mode])
    return WeightVector(np.ones(len(fisher.per_mode)))


def _query_bases(model: TrainedModel, samples: Sequence[DenseTensor]) -> list[tuple]:
    """Each sample's tuple of per-mode bases: per mode one `_mode_bases` at
    the model's dimension, then one `project_onto_gds` when the model has
    bands (it can narrow a basis). Every sample must have the model's
    `data_dims`, which also fixes each mode's ambient dimension."""
    bad = [s.dims for s in samples if s.dims != model.data_dims]
    if bad:
        raise DimensionError(f"tensor dims {bad[0]} do not match {model.data_dims}")
    per_mode = []
    bands = model.gds or [None] * len(model.modes)
    for mode, dim, gds in zip(model.modes, model.dims, bands):
        stack = _mode_bases(samples, mode, dim, model.config.energy_mu)[1]
        per_mode.append(stack if gds is None else project_onto_gds(gds, stack))
    return list(zip(*per_mode))


def transform(model: TrainedModel, sample: DenseTensor) -> ProductPoint:
    """A sample's product point with the model's dimensions and projections."""
    return ProductPoint(tuple(map(Subspace, _query_bases(model, [sample])[0])))


def _distances(model: TrainedModel, left, right) -> np.ndarray:
    """`weighted_geodesics` of per-mode bases or stacks in the model's metric."""
    return weighted_geodesics(
        left,
        right,
        model.weights,
        angle_counts=model.config.angle_counts,
        full_spectrum=model.config.full_spectrum,
    )


def pairwise_distances(model: TrainedModel, points: Sequence[ProductPoint]) -> np.ndarray:
    """Symmetric distance matrix with an exactly zero diagonal: the distance
    of each pair i < j, the earlier point as the left operand, mirrored.

    The pairs of each (row shape, column shape) group are gathered PAIR_BLOCK
    at a time into per-mode stacks, so a block takes one SVD per mode and
    the gathered bases stay a few megabytes however many points there are.
    """
    pts = list(points)
    groups = list(group_by_shape([pt.bases for pt in pts]))
    group, place = np.empty((2, len(pts)), dtype=np.intp)
    for g, (idx, _) in enumerate(groups):
        group[idx], place[idx] = g, np.arange(len(idx))
    rows, cols = np.triu_indices(len(pts), k=1)
    upper = np.zeros((len(pts), len(pts)))
    for (g, (_, left)), (h, (_, right)) in itertools.product(enumerate(groups), repeat=2):
        pairs = np.flatnonzero((group[rows] == g) & (group[cols] == h))
        for start in range(0, len(pairs), PAIR_BLOCK):
            block = pairs[start : start + PAIR_BLOCK]
            i, j = rows[block], cols[block]
            upper[i, j] = _distances(
                model, [s[place[i]] for s in left], [s[place[j]] for s in right]
            )
    return upper + upper.T


def _class_mean_stacks(model: TrainedModel) -> tuple[np.ndarray, ...]:
    """Per mode, the (C, d, k) stack of the class mean points in class order,
    computed on the first call with one `karcher_means` call for every mode."""
    if "class_means" not in model._cache:
        members = [np.flatnonzero(model.reference_labels == cid) for cid in model.class_ids]
        means = karcher_means([stack[idx] for stack in model.reference_stacks for idx in members])
        count = len(members)
        model._cache["class_means"] = tuple(
            np.stack(means[i : i + count]) for i in range(0, len(means), count)
        )
    return model._cache["class_means"]


def _class_scores(model: TrainedModel, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """The (Q, C) per-class distances of the queries in per-mode (Q, d, k)
    stacks of one part shape, in class-id order: to the nearest reference of
    each class (nn; every class has one) or to each class mean point
    (class-karcher). The queries broadcast against the model's per-mode
    stacks, one SVD per mode."""
    queries = [s[:, None] for s in stacks]
    if model.config.classifier == "nn":
        dists = _distances(model, queries, model.reference_stacks)
        owned = model.reference_labels == np.array(model.class_ids)[:, None]
        return np.where(owned, dists[:, None], np.inf).min(axis=-1)
    return _distances(model, queries, _class_mean_stacks(model))


def classify(model: TrainedModel, sample) -> tuple[int, np.ndarray]:
    """Label a sample: nearest reference (nn) or nearest class mean point
    (class-karcher). Returns the winning class id and the per-class minimum
    distances, ordered by class id, the sorted labels of the model's
    references; ties go to the smallest class id."""
    ((_, stacks),) = group_by_shape(_query_bases(model, [sample]))
    scores = _class_scores(model, stacks)[0]
    return model.class_ids[int(np.argmin(scores))], scores


def evaluate(model: TrainedModel, samples: Sequence, labels: Sequence[int]) -> EvalMetrics:
    """Accuracy, per-class recall, confusion matrix (rows = true class), and
    the mean margin between the runner-up and the winning distance. Each
    label must be a model class. The samples are scored as `classify` scores
    one, a block at a time: one stack per mode and part shape, and about
    PAIR_BLOCK query-reference pairs per block at most."""
    samples = list(samples)
    labels = [int(l) for l in labels]
    if len(samples) != len(labels):
        raise DimensionError("samples and labels differ in length")
    if not samples:
        raise DimensionError("empty evaluation set")
    unknown = sorted(set(labels) - set(model.class_ids))
    if unknown:
        raise DimensionError(f"label {unknown[0]} is not a model class")
    scores = np.empty((len(samples), len(model.class_ids)))
    block = max(1, PAIR_BLOCK // len(model.references))
    for start in range(0, len(samples), block):
        for idx, stacks in group_by_shape(_query_bases(model, samples[start : start + block])):
            scores[start + idx] = _class_scores(model, stacks)
    # class ids are sorted, so a label's row is its sorted position
    confusion = np.zeros((len(model.class_ids),) * 2, dtype=np.int64)
    np.add.at(confusion, (np.searchsorted(model.class_ids, labels), np.argmin(scores, axis=1)), 1)
    row_sums = confusion.sum(axis=1)
    recalls = np.where(row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), np.nan)
    top = np.sort(scores, axis=1)[:, :2]
    return EvalMetrics(
        accuracy=int(np.trace(confusion)) / len(samples),
        recalls=recalls,
        confusion=confusion,
        mean_margin=float(np.mean(top[:, 1] - top[:, 0])),
        count=len(samples),
    )

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tensorgds import (
    DegeneracyError,
    DenseTensor,
    DimensionError,
    PipelineConfig,
    ProductPoint,
    Subspace,
    classify,
    evaluate,
    fisher_modes,
    fit,
    gds_from_gram,
    mode_gram,
    mode_multiply,
    mode_weights,
    nmode_fisher,
    optimize_gds_dims,
    pairwise_distances,
    project_onto_gds,
    transform,
    transform_all,
    unfold,
)
from tensorgds import fisher, pipeline, subspace
from tensorgds.dataio import SynthSpec, generate_synthetic, model_to_bytes
from tensorgds.pipeline import CHOICES, RETIRED_VALUES, SETTINGS, _fit_mode
from tensorgds.subspace import canonical_correlations, gram_spectrum, leading_basis, select_dim
from tensorgds.tensor import fold, unfolding_gram
from conftest import gathered_eigh_descending, random_tensor

pytestmark = pytest.mark.filterwarnings("ignore::tensorgds.KarcherConvergenceWarning")


def benchmark_split(noise=0.15, seed=7):
    spec = SynthSpec(
        classes=4,
        samples_per_class=10,
        dims=(12, 12, 12),
        shared_dim=1,
        class_dim=2,
        within_noise=noise,
        seed=seed,
    )
    samples, manifest = generate_synthetic(spec)
    train = [(samples[i], e.label) for i, e in enumerate(manifest.entries) if e.split == "train"]
    test = [(samples[i], e.label) for i, e in enumerate(manifest.entries) if e.split == "test"]
    tr_s, tr_l = zip(*train)
    te_s, te_l = zip(*test)
    return list(tr_s), list(tr_l), list(te_s), list(te_l)


def leading(matrix, dim):
    """The first `dim` left-singular vectors of the matrix's own SVD."""
    return np.linalg.svd(matrix, full_matrices=False)[0][:, :dim]


def tilted_two_class_points(sigma=0.3, seed=5, n=10):
    """Two classes around span{e1,e2} and span{e1,e3} in R4 that share e1;
    each class wobbles along its own fixed tilt direction. Returns the mode
    Gram, the one mode's (2n, 4, 2) stack of bases and the labels."""
    rng = np.random.default_rng(seed)
    e = np.eye(4)
    tilts = [rng.standard_normal(4), rng.standard_normal(4)]
    groups = []
    for cols, tilt in zip(([0, 1], [0, 2]), tilts):
        subs = []
        for _ in range(n):
            noise = np.outer(tilt, rng.standard_normal(2)) * sigma
            q, _ = np.linalg.qr(e[:, cols] + noise)
            subs.append(Subspace(q[:, :2]))
        groups.append(subs)
    stack = np.stack([s.basis for g in groups for s in g])
    labels = [0] * n + [1] * n
    gram = mode_gram(np.stack([leading(np.hstack([s.basis for s in g]), 2) for g in groups]), 1)
    return gram, [stack], labels


# --- extraction -----------------------------------------------------------


def sample_spectrum(t, mode):
    """The eigenvectors and values of the sample's own unfolding Gram."""
    gram, _ = unfolding_gram(t, mode)
    return gram_spectrum(gram, t.size // t.dims[mode - 1])


def sample_bases(t, modes=(1, 2, 3), dims=None, mu=None):
    """Per mode of `modes`, the basis of the sample's unfolding, from the
    unfolding's own Gram, at the fixed dimension in `dims`, or at the energy
    dimension of `mu`."""
    parts = []
    for p, mode in enumerate(modes):
        u, lam = sample_spectrum(t, mode)
        dim = select_dim(lam, mu) if dims is None else dims[p]
        parts.append(Subspace(leading_basis(u, lam, dim)))
    return parts


def test_extract_rank1_unit_dims(rng):
    a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(3)
    t = DenseTensor(np.einsum("i,j,k->ijk", a, b, c))
    for part, factor in zip(sample_bases(t, dims=(1, 1, 1)), (a, b, c)):
        direction = factor / np.linalg.norm(factor)
        assert abs(abs(float(part.basis.ravel() @ direction)) - 1.0) <= 1e-10


def test_extract_scale_invariance(rng):
    t = random_tensor(rng, (4, 5, 6))
    scaled = DenseTensor(3.7 * t.data)
    p1 = sample_bases(t, dims=(2, 2, 2))
    p2 = sample_bases(scaled, dims=(2, 2, 2))
    for a, b in zip(p1, p2):
        assert np.linalg.norm(a.basis @ a.basis.T - b.basis @ b.basis.T) <= 1e-10


def test_extract_mode_subset(rng):
    t = random_tensor(rng, (4, 5, 6))
    parts = sample_bases(t, modes=(1,), dims=(2,))
    assert len(parts) == 1
    assert parts[0].ambient_dim == 4


# --- search ---------------------------------------------------------------


def brute_force_search(grams, stacks, labels, config):
    """Best combined score over every combination of usable bands and its
    first-found pairs: per mode, every band alpha..rank with alpha up to
    `gds_alpha_max` is built with `gds_from_gram`, the training bases are
    projected one `Subspace` at a time with `project_onto_gds`, embedded in
    the mode's ambient space as B @ proj with B the band's basis, as the
    search scores them, and scored with their own `fisher_modes` call; the
    combinations are then ranked by `nmode_fisher`.
    The reference the band search must reach."""
    class_ids = sorted(set(labels))
    usable = []
    for p, gram in enumerate(grams):
        found = []
        for a in range(1, min(config.gds_alpha_max, gram.rank) + 1):
            try:
                basis = gds_from_gram(gram, a)
                grouped = [
                    [
                        Subspace(basis.basis @ project_onto_gds(basis, Subspace(b)).basis)
                        for b, label in zip(stacks[p], labels)
                        if label == cid
                    ]
                    for cid in class_ids
                ]
                (report,) = fisher_modes([(grouped, gram.mode)])
            except (DegeneracyError, DimensionError):
                continue
            if report.flag is None:
                found.append(((a, basis.beta), report))
        usable.append(found)
    best_score, best_pairs = -math.inf, None
    for combo in itertools.product(*usable):
        score = nmode_fisher([report for _, report in combo]).score_n
        if score > best_score:
            best_score, best_pairs = score, tuple(pair for pair, _ in combo)
    return best_score, best_pairs


def fit_search_inputs(samples, labels, model):
    """The mode Gram matrices, raw training bases and labels `fit` hands to
    the band search, rebuilt from the fitted model's modes and dimensions."""
    points = [sample_bases(s, model.modes, model.dims) for s in samples]
    stacks = [np.stack([pt[p].basis for pt in points]) for p in range(len(model.modes))]
    grams = []
    for mode, dim in zip(model.modes, model.dims):
        classes = [
            leading(np.hstack([unfold(s, mode) for s, l in zip(samples, labels) if l == cid]), dim)
            for cid in model.class_ids
        ]
        grams.append(mode_gram(np.stack(classes), mode))
    return grams, stacks, list(labels)


def chosen_pairs(result):
    """The (alpha, beta) of each band the search chose."""
    return tuple((b.alpha, b.beta) for b in result.bases)


def test_optimize_drops_shared_direction():
    gram, stacks, labels = tilted_two_class_points()
    config = PipelineConfig(method="nmode-gds", gds_alpha_max=3)
    _, oracle_pairs = brute_force_search([gram], stacks, labels, config)
    result = optimize_gds_dims([gram], stacks, labels, config)
    assert oracle_pairs == chosen_pairs(result)
    assert chosen_pairs(result)[0][0] == 2  # the leading shared direction is discarded


def test_optimize_alpha_max_one_forces_full_band():
    gram, stacks, labels = tilted_two_class_points()
    result = optimize_gds_dims(
        [gram], stacks, labels, PipelineConfig(method="nmode-gds", gds_alpha_max=1)
    )
    assert chosen_pairs(result)[0][0] == 1


def test_coordinate_search_stops_after_an_unchanged_round():
    # with one candidate the first round cannot move the band, so a second
    # round would only repeat it
    gram, stacks, labels = tilted_two_class_points()
    result = optimize_gds_dims(
        [gram], stacks, labels, PipelineConfig(method="nmode-gds", gds_alpha_max=1)
    )
    assert [e["round"] for e in result.trace] == [0]


def test_coordinate_fixed_point_matches_exhaustive_score():
    # the combined score is a ratio of per-mode sums, so a band choice that no
    # single mode can improve is a global optimum
    tr_s, tr_l, _, _ = benchmark_split()
    config = PipelineConfig(method="nmode-gds")
    coord = fit(tr_s, tr_l, config)
    trace = coord.search_trace
    picks = [
        [(e["alpha"], e["beta"]) for e in trace if e["round"] == r] for r in (0, 1)
    ]
    assert trace[-1]["round"] == 0 or picks[1] == picks[0]  # a fixed point
    best_score, _ = brute_force_search(*fit_search_inputs(tr_s, tr_l, coord), config)
    assert coord.fisher.score_n == pytest.approx(best_score, rel=1e-12)


def labelled_points(seed, classes, modes, per_class=3, shapes=None):
    """Per mode, the stack of bases of `classes` classes scattered around
    random per-class centres, with the mode Gram matrices of the class
    subspaces and the labels; the (ambient, dim) of each mode's bases are
    `shapes`, or drawn for `modes` modes."""
    rng = np.random.default_rng(seed)
    if shapes is None:
        shapes = [(int(rng.integers(3, 6)), int(rng.integers(1, 3))) for _ in range(modes)]
    labels = [cid for cid in range(classes) for _ in range(per_class)]
    centres = [
        [rng.standard_normal((d, k)) for cid in range(classes)] for d, k in shapes
    ]
    parts = [
        [
            Subspace(np.linalg.qr(centre[cid] + 0.4 * rng.standard_normal(centre[cid].shape))[0])
            for cid in labels
        ]
        for centre in centres
    ]
    stacks = [np.stack([s.basis for s in subs]) for subs in parts]
    grams = [
        mode_gram(
            np.stack(
                [
                    leading(np.hstack([s.basis for s, l in zip(subs, labels) if l == cid]), k)
                    for cid in range(classes)
                ]
            ),
            mode=p + 1,
        )
        for p, (subs, (_, k)) in enumerate(zip(parts, shapes))
    ]
    return grams, stacks, labels


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    classes=st.integers(2, 3),
    modes=st.integers(1, 3),
    alpha_max=st.integers(1, 3),
)
# scored in band coordinates, this draw's oracle missed the search by 3.7e-12
@example(seed=152798, classes=2, modes=3, alpha_max=1)
def test_band_search_reaches_the_brute_force_optimum(seed, classes, modes, alpha_max):
    grams, stacks, labels = labelled_points(seed, classes, modes)
    config = PipelineConfig(method="nmode-gds", gds_alpha_max=alpha_max)
    result = optimize_gds_dims(grams, stacks, labels, config)
    # every band keeps the whole eigenvector tail
    assert [b.beta for b in result.bases] == [g.rank for g in grams]
    best_score, _ = brute_force_search(grams, stacks, labels, config)
    assert nmode_fisher(result.reports).score_n == pytest.approx(best_score, rel=1e-12)
    last = result.trace[-1]["round"]
    picks = [
        [(e["alpha"], e["beta"]) for e in result.trace if e["round"] == r]
        for r in (last - 1, last)
    ]
    before = picks[0] if last > 0 else [(1, g.rank) for g in grams]
    assert picks[1] == before == list(chosen_pairs(result))  # the last round moved nothing
    for p, (gram, pair) in enumerate(zip(grams, chosen_pairs(result))):
        basis = gds_from_gram(gram, *pair)
        for b, part in zip(stacks[p], result.parts[p], strict=True):
            want = project_onto_gds(basis, Subspace(b))
            assert np.array_equal(part, want.basis)  # in sample order


@st.composite
def rotation_modes(draw):
    """Class count and per mode an (ambient, dim) shape and whether its Gram
    rank reaches the ambient dimension: C random class subspaces of
    dimension k span min(d, C k) dimensions."""
    classes = draw(st.integers(2, 3))
    rotations = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    shapes = []
    for rotation in rotations:
        k = draw(st.integers(1, 2))
        ambient = (k + 1, classes * k) if rotation else (classes * k + 1, classes * k + 2)
        shapes.append((draw(st.integers(*ambient)), k))
    return classes, shapes, rotations


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    drawn=rotation_modes(),
    alpha_max=st.integers(1, 3),
)
def test_full_rank_bands_reuse_the_raw_reports(seed, drawn, alpha_max):
    # a full band of full rank rotates the raw bases, so the search takes its
    # mode's raw report for it and still reaches the optimum of the brute
    # force search, which scores the rotation through `fisher_modes`. The
    # rotated spreads differ from the raw ones by rounding only, but a
    # geodesic distance is an arccos, whose rounding grows as eps / theta at
    # small angles, so a tight class moves them by more than 1e-12 relative
    # (up to 5e-12 absolute, and trace scores 3.4e-12 relative, over 1500
    # draws): they must agree to 1e-10
    classes, shapes, rotations = drawn
    grams, stacks, labels = labelled_points(seed, classes, len(shapes), shapes=shapes)
    assert [g.rank == g.ambient_dim for g in grams] == rotations
    config = PipelineConfig(method="nmode-gds", gds_alpha_max=alpha_max)
    members = [[i for i, l in enumerate(labels) if l == cid] for cid in range(classes)]

    def grouped(stack):
        return [stack[idx] for idx in members]

    raw = fisher_modes([(grouped(s), g.mode) for s, g in zip(stacks, grams)])
    rotated = fisher_modes(
        [(grouped(np.stack(project_onto_gds(g, s))), g.mode) for s, g in zip(stacks, grams)]
    )
    for rotation, r, q in zip(rotations, raw, rotated):
        if rotation:
            assert r.flag == q.flag
            assert r.between == pytest.approx(q.between, rel=1e-12, abs=1e-10)
            assert r.within == pytest.approx(q.within, rel=1e-12, abs=1e-10)
    if any(q.flag is not None for q in rotated):
        with pytest.raises(DegeneracyError, match="degenerate at the full eigenvector band"):
            optimize_gds_dims(grams, stacks, labels, config)
        return
    result = optimize_gds_dims(grams, stacks, labels, config)
    # the raw reports of the one batch are those of the raw bases alone
    assert repr(result.raw_reports) == repr(tuple(raw))
    best_score, _ = brute_force_search(grams, stacks, labels, config)
    assert nmode_fisher(result.reports).score_n == pytest.approx(best_score, rel=1e-10)
    assert [b.beta for b in result.bases] == [g.rank for g in grams]
    for rotation, raw_report, report, pair, gram in zip(
        rotations, raw, result.reports, chosen_pairs(result), grams
    ):
        if rotation and pair == (1, gram.rank):
            assert repr(report) == repr(raw_report)


def test_optimize_identical_classes_degenerate():
    e = np.eye(4)
    s = Subspace(e[:, [0, 1]])
    stack = np.stack([s.basis] * 4)
    gram = mode_gram([s, s], mode=1)
    with pytest.raises(DegeneracyError):
        optimize_gds_dims([gram], [stack], [0, 0, 1, 1], PipelineConfig(method="nmode-gds"))


def test_optimize_rejects_stacks_that_disagree_with_grams_or_labels():
    gram, stacks, labels = tilted_two_class_points()
    gram = dataclasses.replace(gram, mode=2)
    config = PipelineConfig(method="nmode-gds")
    with pytest.raises(DimensionError, match="mode 2: 19 training bases for 20 labels"):
        optimize_gds_dims([gram], [stacks[0][1:]], labels, config)
    with pytest.raises(DimensionError, match=r"2 basis stacks for the modes \[2\]"):
        optimize_gds_dims([gram], stacks * 2, labels, config)
    # a stack in another ambient space is a caller's error, not a degenerate set
    e = np.eye(6)
    wide = mode_gram([Subspace(e[:, [0, 1]]), Subspace(e[:, [0, 2]])], mode=1)
    narrow = np.stack([np.eye(5)[:, :2]] * 4)
    with pytest.raises(DimensionError, match="ambient mismatch: GDS 6"):
        optimize_gds_dims([wide], [narrow], [0, 0, 1, 1], config)


def test_band_search_skips_a_band_that_narrows_some_bases():
    # the band span{e2, e3} cuts span{e1, e2} to one direction but keeps two
    # of each tilted member, so its projected bases differ in width and it is
    # skipped; span{e2} or span{e3} alone is orthogonal to some member
    e = np.eye(4)
    tilted = [
        np.linalg.qr(np.column_stack([e[:, 0] + 0.3 * e[:, c], e[:, b]]))[0]
        for b, c in ((1, 2), (2, 1))
    ]
    stack = np.stack([e[:, [0, 1]], tilted[0], e[:, [0, 2]], tilted[1]])
    gram = mode_gram([Subspace(e[:, [0, 1]]), Subspace(e[:, [0, 2]])], mode=1)
    narrowed = project_onto_gds(gds_from_gram(gram, 2), stack)
    assert [b.shape[1] for b in narrowed] == [1, 2, 1, 2]
    config = PipelineConfig(method="nmode-gds", gds_alpha_max=3)
    result = optimize_gds_dims([gram], [stack], [0, 0, 1, 1], config)
    assert chosen_pairs(result) == ((1, 3),)
    assert result.parts[0].shape == (4, 3, 2)


def test_band_search_builds_no_subspace_per_sample(monkeypatch):
    # the search scores each candidate from one projected stack and takes
    # its Karcher means as bases: it builds no Subspace at all
    tr_s, tr_l, _, _ = benchmark_split()
    config = PipelineConfig(method="nmode-wgds")
    model = fit(tr_s, tr_l, config)
    grams, stacks, labels = fit_search_inputs(tr_s, tr_l, model)
    built, batches = [], []
    post_init, score = Subspace.__post_init__, pipeline.fisher_modes

    def record(tasks, **kwargs):
        batches.append(len(tasks))
        return score(tasks, **kwargs)

    monkeypatch.setattr(Subspace, "__post_init__", lambda s: built.append(1) or post_init(s))
    monkeypatch.setattr(pipeline, "fisher_modes", record)
    optimize_gds_dims(grams, stacks, labels, config)
    # one batch: the raw bases of every mode, then each candidate band once,
    # apart from a full band of full rank, which takes its mode's raw report
    rotations = sum(g.rank == g.ambient_dim for g in grams)
    candidates = sum(min(config.gds_alpha_max, g.rank) for g in grams)
    assert rotations == 1
    assert batches == [len(grams) + candidates - rotations]
    assert built == []


def test_fit_builds_a_subspace_only_per_stored_reference_part(monkeypatch):
    # sample, class and mean bases stay arrays; only the references a model
    # stores become Subspaces
    tr_s, tr_l, _, _ = benchmark_split()
    built, post_init = [], Subspace.__post_init__
    monkeypatch.setattr(Subspace, "__post_init__", lambda s: built.append(1) or post_init(s))
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-wgds"))
    assert len(built) == len(model.references) * len(model.modes)


def test_fit_takes_two_karcher_calls(monkeypatch):
    # one `fisher_modes` call scores the raw bases and every band candidate:
    # one batch of class means and one batch of grand means. A class-karcher
    # model takes its class means in one more call, on its first query only
    tr_s, tr_l, te_s, _ = benchmark_split()
    calls = []

    def counted(fn):
        return lambda *a, **k: calls.append(fn.__name__) or fn(*a, **k)

    means = counted(fisher.karcher_means)
    monkeypatch.setattr(pipeline, "fisher_modes", counted(fisher.fisher_modes))
    monkeypatch.setattr(fisher, "karcher_means", means)
    monkeypatch.setattr(pipeline, "karcher_means", means)
    for method in ("pgm", "nmode-gds", "nmode-wgds"):
        calls.clear()
        model = fit(tr_s, tr_l, PipelineConfig(method=method, classifier="class-karcher"))
        assert calls == ["fisher_modes", "karcher_means", "karcher_means"], method
        for t in te_s[:3]:
            classify(model, t)
        assert calls[3:] == ["karcher_means"], method


# --- fit ------------------------------------------------------------------


def test_fit_pgm_baseline_shape():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm"))
    assert model.gds is None
    assert np.all(model.weights.weights == 1.0)
    assert len(model.references) == len(tr_s)
    assert model.fisher.score_n == model.fisher_raw.score_n


def test_fit_gds_improves_separability():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-gds"))
    assert model.gds is not None
    assert model.fisher.score_n > model.fisher_raw.score_n


def test_fit_wgds_weights_normalized():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-wgds"))
    assert abs(float(model.weights.weights.sum()) - 1.0) <= 1e-9
    # nmode-wgds weights the modes by their separability scores
    scores = [r.score for r in model.fisher.per_mode]
    assert np.array_equal(model.weights.weights, mode_weights(scores).weights)


def test_msm_single_mode_equals_manual_nearest_neighbor():
    tr_s, tr_l, te_s, te_l = benchmark_split()
    cfg = PipelineConfig(method="pgm", modes_used=(1,))  # MSM on mode 1
    model = fit(tr_s, tr_l, cfg)
    for t in te_s[:4]:
        pred, _ = classify(model, t)
        query = transform(model, t)
        dists = [
            np.mean(np.arccos(canonical_correlations(query.parts[0], r.parts[0])))
            for r in model.references
        ]
        manual = model.references[int(np.argmin(dists))].label
        assert pred == manual


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extents=st.tuples(*[st.integers(2, 5)] * 3),
    mu=st.floats(0.3, 1.0),
)
def test_fit_dims_and_bases_match_per_sample_extraction(seed, extents, mu):
    # fit's batched eigh of the unfolding Grams must give the dimensions and
    # bases that per-sample extraction gives on its own, bit for bit
    rng = np.random.default_rng(seed)
    samples = [random_tensor(rng, extents) for _ in range(6)]
    config = PipelineConfig(method="pgm", energy_mu=mu)
    model = fit(samples, [0, 0, 0, 1, 1, 1], config)
    energy_dims = np.array([[part.dim for part in sample_bases(t, mu=mu)] for t in samples])
    assert model.dims == tuple(
        int(round(float(np.median(energy_dims[:, p])))) for p in range(3)
    )
    for t, ref in zip(samples, model.references):
        for p, mode in enumerate(model.modes):
            want = leading_basis(*sample_spectrum(t, mode), model.dims[p])
            assert ref.parts[p].basis.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extents=st.tuples(*[st.integers(2, 6)] * 3),
    sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    mode=st.integers(1, 3),
)
def test_fit_class_subspaces_from_summed_grams_match_the_raw_stack(
    seed, extents, sizes, mode
):
    # fit sums the members' Grams instead of stacking their unfoldings; the
    # sum is the Gram of the stack, so their leading subspaces agree
    rng = np.random.default_rng(seed)
    labels = [j for j, size in enumerate(sizes) for _ in range(size)]
    samples = [random_tensor(rng, extents) for _ in labels]
    dim, _, class_subs = _fit_mode(samples, labels, (0, 1), mode, None, 0.9)
    for cid, sub in enumerate(map(Subspace, class_subs)):
        raw = np.hstack([unfold(t, mode) for t, l in zip(samples, labels) if l == cid])
        u, s, _ = np.linalg.svd(raw, full_matrices=False)
        if dim < s.size and s[dim - 1] - s[dim] < 1e-2 * s[0]:
            continue  # no gap: the leading subspace is ill-defined
        want = u[:, :dim] @ u[:, :dim].T
        assert np.max(np.abs(sub.basis @ sub.basis.T - want)) <= 1e-12


def test_fit_mode_takes_one_eigh_for_the_samples_and_one_for_the_classes(monkeypatch, rng):
    # no unfolding is factored: one batched eigh of the sample Grams and one
    # of the class sums
    samples = [random_tensor(rng, (4, 5, 6)) for _ in range(7)]
    labels = [0, 0, 0, 1, 1, 1, 1]
    calls = []

    def counted(name):
        call = getattr(np.linalg, name)
        return lambda a, *rest, **kw: calls.append((name, a.shape)) or call(a, *rest, **kw)

    for name in ("qr", "svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    _fit_mode(samples, labels, (0, 1), 2, 2, 0.9)
    assert calls == [("eigh", (7, 5, 5)), ("eigh", (2, 5, 5))]


def test_fixed_dims_beyond_a_class_sums_gram_rank_raise(rng):
    # every member's mode-1 unfolding has singular values (1, 0.8, 0.6, 2e-7)
    # on one shared frame, so the 4th squared value is 4e-14 of the 1st: it
    # clears a sample Gram's rank cut, (4 + 30) eps = 7.5e-15, but not that of
    # a 20-member class sum, (4 + 600) eps = 1.3e-13. A fixed dimension of 4
    # fails on the class basis, where a singular-value cut of 1e-10 kept it
    frame = np.linalg.qr(rng.standard_normal((4, 4)))[0] * [1.0, 0.8, 0.6, 2e-7]
    unfoldings = [frame @ np.linalg.qr(rng.standard_normal((30, 4)))[0].T for _ in range(40)]
    samples = [fold(x, 1, (4, 5, 6)) for x in unfoldings]
    labels = [0] * 20 + [1] * 20
    s = np.linalg.svd(np.hstack(unfoldings[:20]), compute_uv=False)
    assert 1e-10 * s[0] < s[3] < 1e-6 * s[0]
    assert _fit_mode(samples, labels, (0, 1), 1, 3, 0.9)[2].shape == (2, 4, 3)
    with pytest.raises(DegeneracyError, match="requested 4 basis vectors but the numerical rank is 3"):
        fit(samples, labels, PipelineConfig(method="pgm", per_mode_dims=(4, 2, 2)))
    assert _fit_mode(samples[:1] + samples[20:21], [0, 1], (0, 1), 1, 4, 0.9)[0] == 4


def per_sample_fit_mode(samples, labels, class_ids, mode, dim, mu):
    """`_fit_mode` as one Gram, eigh, energy dimension and basis per sample,
    and per class one sum of its members' Grams, each scaled to the class's
    largest exponent in sample order, and one eigh: the loop that the batched
    version replaced."""
    grams = [unfolding_gram(s, mode) for s in samples]
    cols = samples[0].size // samples[0].dims[mode - 1]
    spectra = [gram_spectrum(gram, cols) for gram, _ in grams]
    if dim is None:
        dim = int(round(float(np.median([select_dim(lam, mu) for _, lam in spectra]))))
    stack = np.stack([leading_basis(u, lam, dim) for u, lam in spectra])
    classes = []
    for cid in class_ids:
        group = [g for g, label in zip(grams, labels) if label == cid]
        top = max(e for _, e in group)
        total = np.ldexp(group[0][0], group[0][1] - top)
        for gram, e in group[1:]:
            total = total + np.ldexp(gram, e - top)
        classes.append(leading_basis(*gram_spectrum(total, len(group) * cols), dim))
    return dim, stack, np.stack(classes)


def assert_fit_mode_matches_the_per_sample_loop(samples, labels, mode, dim, mu):
    class_ids = tuple(sorted(set(labels)))
    try:
        want = per_sample_fit_mode(samples, labels, class_ids, mode, dim, mu)
    except DegeneracyError as exc:
        with pytest.raises(DegeneracyError) as err:
            _fit_mode(samples, labels, class_ids, mode, dim, mu)
        assert str(err.value) == str(exc)
        return
    got = _fit_mode(samples, labels, class_ids, mode, dim, mu)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extents=st.tuples(*[st.integers(2, 6)] * 3),
    sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    mode=st.integers(1, 3),
    dim=st.one_of(st.none(), st.integers(1, 3)),
    mu=st.floats(0.05, 1.0),
    flat=st.integers(0, 3),
)
def test_fit_mode_matches_the_per_sample_loop_bitwise(
    seed, extents, sizes, mode, dim, mu, flat
):
    # wide and tall unfoldings; the first `flat` samples have rank 1 in
    # every mode, so a fixed dimension can exceed a member's rank
    rng = np.random.default_rng(seed)
    labels = [j for j, size in enumerate(sizes) for _ in range(size)]
    samples = [random_tensor(rng, extents) for _ in labels]
    for i in range(min(flat, len(samples))):
        vecs = [rng.standard_normal(n) for n in extents]
        samples[i] = DenseTensor(np.einsum("i,j,k->ijk", *vecs))
    assert_fit_mode_matches_the_per_sample_loop(samples, labels, mode, dim, mu)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_fit_mode_matches_the_per_sample_loop_on_the_seed7_set(mode):
    tr_s, tr_l, _, _ = benchmark_split()
    assert_fit_mode_matches_the_per_sample_loop(tr_s, tr_l, mode, None, 0.9)


@pytest.mark.parametrize("counts", [(9, 9, 9), (1,)])
def test_fit_rejects_angle_counts_the_references_cannot_serve(counts, monkeypatch):
    tr_s, tr_l, _, _ = benchmark_split()
    # rejected against the mode dimensions, before any scoring or search
    monkeypatch.setattr(pipeline, "fisher_modes", lambda *a, **k: pytest.fail("scored"))
    with pytest.raises(DimensionError, match="angle_counts"):
        fit(tr_s, tr_l, PipelineConfig(method="pgm", angle_counts=counts))


def test_fit_rejects_mode_dims_beyond_the_extent_before_factoring(rng, monkeypatch):
    samples = [random_tensor(rng, (4, 5, 4)) for _ in range(4)]
    monkeypatch.setattr(pipeline, "_fit_mode", lambda *a: pytest.fail("factored"))
    config = PipelineConfig(method="pgm", per_mode_dims=(2, 6, 2))
    with pytest.raises(DimensionError, match="entry 6 for mode 2 exceeds its extent 5"):
        fit(samples, [0, 0, 1, 1], config)


def test_fit_rejects_single_class(rng):
    samples = [random_tensor(rng, (4, 4, 4)) for _ in range(3)]
    with pytest.raises(DimensionError):
        fit(samples, [0, 0, 0], PipelineConfig(method="pgm"))


def test_fit_rejects_mismatched_dims(rng):
    # one dims check covers another order and an extent of any mode
    for other in ((4, 4, 5), (4, 4), (5, 4, 4)):
        samples = [random_tensor(rng, (4, 4, 4)), random_tensor(rng, other)]
        with pytest.raises(DimensionError, match="tensor dims differ"):
            fit(samples, [0, 1], PipelineConfig(method="pgm"))


# --- classify / evaluate ---------------------------------------------------


def test_classify_memorizes_training_sample():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-wgds"))
    for i in (0, 9, 17):
        pred, scores = classify(model, tr_s[i])
        assert pred == tr_l[i]
        assert scores[model.class_ids.index(tr_l[i])] <= 1e-7


def test_classify_nearer_class_wins(rng):
    e = np.eye(4)

    def tensor_from_frames(f1, f2, f3, seed):
        core = np.random.default_rng(seed).standard_normal((2, 2, 2))
        t = DenseTensor(core)
        from tensorgds import mode_multiply

        for mode, f in enumerate((f1, f2, f3), start=1):
            t = mode_multiply(t, f, mode)
        return t

    fA = e[:, [0, 1]]
    fB = e[:, [2, 3]]
    train = [tensor_from_frames(fA, fA, fA, s) for s in range(3)] + [
        tensor_from_frames(fB, fB, fB, s + 10) for s in range(3)
    ]
    labels = [0, 0, 0, 1, 1, 1]
    model = fit(train, labels, PipelineConfig(method="pgm", per_mode_dims=(2, 2, 2)))
    query = tensor_from_frames(fA, fA, fA, 99)
    pred, scores = classify(model, query)
    assert pred == 0
    assert scores[0] < scores[1] / 3.0


@pytest.mark.parametrize("method", ["pgm", "nmode-wgds"])
def test_classify_equals_a_per_reference_loop_of_mean_angles(method):
    # the model's per-mode stacks must give each reference the distance
    # that its own parts give, one mode and one pair at a time
    tr_s, tr_l, te_s, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method=method))
    w = model.weights.weights
    for t in te_s[:6]:
        pred, scores = classify(model, t)
        query = transform(model, t)
        dists = []
        for ref in model.references:
            terms = np.array(
                [
                    wi * float(np.mean(np.arccos(canonical_correlations(q, r))))
                    for wi, q, r in zip(w, query.parts, ref.parts)
                ]
            )
            dists.append((ref.label, float(np.sqrt(np.sum(terms * terms)))))
        want = [min(d for label, d in dists if label == cid) for cid in model.class_ids]
        assert scores.tolist() == want
        assert pred == model.class_ids[int(np.argmin(want))]


@pytest.mark.parametrize("classifier", ["nn", "class-karcher"])
def test_classify_builds_no_reference_stack_after_the_first_query(classifier, monkeypatch):
    tr_s, tr_l, te_s, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-wgds", classifier=classifier))
    first = classify(model, te_s[0])
    calls = []

    def counted(fn):
        return lambda *a, **k: calls.append(fn.__name__) or fn(*a, **k)

    def restacked(arrays, *a, **k):
        # a query stacks its own one-sample bases and its per-mode products,
        # one per mode; a reference stack would gather one basis per reference
        arrays = list(arrays)
        if len(arrays) >= len(model.references):
            calls.append("stack")
        return np_stack(arrays, *a, **k)

    monkeypatch.setattr(fisher, "group_by_shape", counted(subspace.group_by_shape))
    monkeypatch.setattr(pipeline, "karcher_means", counted(fisher.karcher_means))
    np_stack = np.stack
    monkeypatch.setattr(np, "stack", restacked)
    again = classify(model, te_s[0])
    for t in te_s[1:4]:
        classify(model, t)
    assert calls == []
    assert again[0] == first[0] and again[1].tobytes() == first[1].tobytes()


def test_classify_tie_breaks_to_smaller_class_id(monkeypatch):
    # queries built to be exactly equidistant: classes are mirror images and
    # the query basis is the symmetric axis
    e = np.eye(4)
    a = Subspace(e[:, [0]])
    b = Subspace(e[:, [1]])
    mid = Subspace(((e[:, 0] + e[:, 1]) / math.sqrt(2))[:, None])
    from tensorgds.pipeline import TrainedModel
    from tensorgds import WeightVector
    from tensorgds.fisher import FisherReport, nmode_fisher

    rep = nmode_fisher([FisherReport(mode=1, between=1.0, within=1.0, score=1.0)])
    model = TrainedModel(
        config=PipelineConfig(method="pgm", modes_used=(1,), per_mode_dims=(1,)),
        data_dims=(4, 4),
        gds=None,
        weights=WeightVector(np.ones(1)),
        references=(
            ProductPoint((a,), label=1),
            ProductPoint((b,), label=0),
        ),
        fisher_raw=rep,
        fisher=rep,
        angle_diag=((0.0, None),),
    )
    # a query whose basis is `mid`: its distances to both references are
    # exactly equal by symmetry
    monkeypatch.setattr(pipeline, "_query_bases", lambda model, samples: [(mid.basis,)])
    label, scores = classify(model, None)
    assert scores[0] == scores[1]
    assert label == 0  # the smaller class id


def test_evaluate_training_set_is_perfect():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-gds"))
    metrics = evaluate(model, tr_s, tr_l)
    assert metrics.accuracy == 1.0
    assert np.all(np.diag(metrics.confusion) == np.array(metrics.confusion.sum(axis=1)))


def test_evaluate_all_wrong_labels():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm"))
    wrong = [(l + 1) % 4 for l in tr_l]
    metrics = evaluate(model, tr_s, wrong)
    assert metrics.accuracy == 0.0


def test_evaluate_confusion_row_sums():
    tr_s, tr_l, te_s, te_l = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm"))
    metrics = evaluate(model, te_s, te_l)
    counts = [sum(1 for l in te_l if l == cid) for cid in model.class_ids]
    assert list(metrics.confusion.sum(axis=1)) == counts


def test_evaluate_empty_errors():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm"))
    with pytest.raises(DimensionError):
        evaluate(model, [], [])


def test_evaluate_rejects_unknown_labels_and_other_dims(rng):
    tr_s, tr_l, te_s, te_l = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-gds"))
    with pytest.raises(DimensionError, match="label 9 is not a model class"):
        evaluate(model, te_s[:3], [te_l[0], 9, te_l[2]])
    other = random_tensor(rng, (12, 12, 11))
    with pytest.raises(DimensionError, match=r"tensor dims \(12, 12, 11\) do not match"):
        evaluate(model, [te_s[0], other, te_s[1]], te_l[:3])
    for query in (transform, classify):
        with pytest.raises(DimensionError, match="do not match"):
            query(model, other)


def narrowing_query(model, rng):
    """A tensor whose subspace in some mode is spanned by directions of the
    model's band there and one direction outside it, so that projection
    narrows its basis in that mode by one column, while a generic tensor's
    keeps its width; None when the model has no such mode."""
    for mode, gds, k in zip(model.modes, model.gds or (), model.dims):
        outside = [i for i in range(gds.ambient_dim) if not gds.alpha - 1 <= i < gds.beta]
        if 2 <= k <= gds.basis.shape[1] and outside:
            frame = np.column_stack([gds.basis[:, : k - 1], gds.eigvecs[:, outside[0]]])
            extents = list(model.data_dims)
            extents[mode - 1] = k
            return mode_multiply(DenseTensor(rng.standard_normal(extents)), frame, mode)
    return None


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(["pgm", "nmode-gds", "nmode-wgds"]),
    classifier=st.sampled_from(["nn", "class-karcher"]),
    kinds=st.lists(st.booleans(), min_size=1, max_size=6),
    pair_block=st.sampled_from([pipeline.PAIR_BLOCK, 12, 30]),
)
def test_evaluate_equals_a_loop_of_classify_bitwise(seed, method, classifier, kinds, pair_block):
    # every query is scored in one batch per block, mode and part shape; the
    # result must be what one `classify` per query gives, bit for bit. A
    # query of kind True has a basis that projection narrows, when the model
    # has a mode that allows it, so mixed queries then form two part shapes.
    spec = SynthSpec(
        classes=3,
        samples_per_class=4,
        dims=(8, 7, 6),
        shared_dim=1,
        class_dim=1,
        within_noise=0.1,
        seed=seed,
    )
    samples, manifest = generate_synthetic(spec, train_fraction=1.0)
    model = fit(
        samples,
        [e.label for e in manifest.entries],
        PipelineConfig(method=method, classifier=classifier),
    )
    rng = np.random.default_rng(seed)
    narrow = narrowing_query(model, rng) is not None
    queries = [
        narrowing_query(model, rng) if kind and narrow else random_tensor(rng, model.data_dims)
        for kind in kinds
    ]
    labels = [int(rng.choice(model.class_ids)) for _ in queries]

    batch = pipeline._query_bases(model, queries)
    for query, bases in zip(queries, batch):
        assert [b.tobytes() for b in transform(model, query).bases] == [b.tobytes() for b in bases]
    shapes = {tuple(b.shape for b in bases) for bases in batch}
    assert len(shapes) == (2 if narrow and len(set(kinds)) == 2 else 1)

    with mock.patch.object(pipeline, "PAIR_BLOCK", pair_block):
        metrics = evaluate(model, queries, labels)
    index = {cid: i for i, cid in enumerate(model.class_ids)}
    confusion = np.zeros_like(metrics.confusion)
    margins = []
    for query, label in zip(queries, labels):
        pred, scores = classify(model, query)
        confusion[index[label], index[pred]] += 1
        top = np.sort(scores)[:2]
        margins.append(float(top[1] - top[0]))
    rows = confusion.sum(axis=1)
    recalls = np.where(rows > 0, np.diag(confusion) / np.maximum(rows, 1), np.nan)
    assert np.array_equal(metrics.confusion, confusion)
    assert metrics.recalls.tobytes() == recalls.tobytes()
    assert metrics.mean_margin == float(np.mean(margins))
    assert metrics.accuracy == np.trace(confusion) / len(queries)
    assert metrics.count == len(queries)


def per_mode_query_bases(model, samples):
    """The query bases one mode at a time: per mode one `gram_spectrum` of
    the (N, d, d) Gram stack, its leading eigenvectors and one
    `project_onto_gds` when the model has bands."""
    per_mode = []
    bands = model.gds or [None] * len(model.modes)
    for mode, dim, gds in zip(model.modes, model.dims, bands):
        grams = np.array([unfolding_gram(s, mode)[0] for s in samples])
        stack = leading_basis(*gram_spectrum(grams, samples[0].size // grams.shape[-1]), dim)
        per_mode.append(stack if gds is None else project_onto_gds(gds, stack))
    return list(zip(*per_mode))


def per_mode_geodesics(left, right, weights, angle_counts=None, full_spectrum=False):
    """`weighted_geodesics` with one `canonical_correlations` call per mode."""
    n = len(left)
    terms = np.empty(np.broadcast_shapes(*(np.shape(b)[:-2] for b in (*left, *right))) + (n,))
    for i, (p, q) in enumerate(zip(left, right)):
        count = None if angle_counts is None else int(angle_counts[i])
        angles = np.arccos(canonical_correlations(p, q, count))
        if full_spectrum:
            values = np.sqrt(np.sum(angles * angles, axis=-1))
        else:
            values = np.mean(angles, axis=-1)
        terms[..., i] = weights.weights[i] * values
    return np.sqrt(np.sum(terms * terms, axis=-1))


def query_outputs(model, queries, labels):
    """Every query output as bytes, array by array, or the error it raises:
    the batch's bases, each query's `classify`, the batch's `evaluate` and
    the `pairwise_distances` of its points."""

    def as_bytes(value):
        if isinstance(value, (tuple, list)):
            return tuple(map(as_bytes, value))
        if dataclasses.is_dataclass(value):
            return as_bytes(dataclasses.astuple(value))
        return np.asarray(value).tobytes()

    def outcome(call, *args):
        try:
            return as_bytes(call(*args))
        except (DimensionError, DegeneracyError) as exc:
            return repr(exc)

    def points():
        return [ProductPoint(tuple(map(Subspace, b))) for b in pipeline._query_bases(model, queries)]

    return (
        outcome(pipeline._query_bases, model, queries),
        [outcome(classify, model, q) for q in queries],
        outcome(evaluate, model, queries, labels),
        outcome(lambda: pairwise_distances(model, points())),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extents=st.sampled_from([(7, 7, 7), (7, 6, 7), (5, 6, 7), (6, 7)]),
    method=st.sampled_from(["pgm", "nmode-gds", "nmode-wgds"]),
    classifier=st.sampled_from(["nn", "class-karcher"]),
    data=st.data(),
    full_spectrum=st.booleans(),
    kinds=st.lists(st.booleans(), min_size=1, max_size=5),
)
def test_query_path_matches_the_per_mode_loop_bitwise(
    seed, extents, method, classifier, data, full_spectrum, kinds
):
    # the query path takes one `gram_spectrum` per mode extent, one
    # projection SVD per product shape and one cross-product SVD per shape
    # across the modes; every output must be the per-mode loop's, bit for
    # bit. The extents leave some modes alone in their extent group, fixed
    # dims can differ by mode, and queries of kind True are narrowed by
    # projection where the model allows it, so the queries mix widths
    n = len(extents)
    dims = data.draw(st.none() | st.tuples(*(st.integers(1, 3) for _ in range(n))))
    counts = data.draw(st.none() | st.tuples(*(st.integers(1, 3) for _ in range(n))))
    spec = SynthSpec(
        classes=3,
        samples_per_class=4,
        dims=extents,
        shared_dim=1,
        class_dim=2,
        within_noise=0.2,
        seed=seed,
    )
    samples, manifest = generate_synthetic(spec, train_fraction=1.0)
    config = PipelineConfig(
        method=method,
        per_mode_dims=dims,
        angle_counts=counts,
        classifier=classifier,
        full_spectrum=full_spectrum,
    )
    try:
        model = fit(samples, [e.label for e in manifest.entries], config)
    except (DimensionError, DegeneracyError):  # angle counts above a mode's widths
        assume(False)
    rng = np.random.default_rng(seed)
    narrow = narrowing_query(model, rng) is not None
    queries = [
        narrowing_query(model, rng) if kind and narrow else random_tensor(rng, model.data_dims)
        for kind in kinds
    ]
    labels = [int(rng.choice(model.class_ids)) for _ in queries]

    batched = query_outputs(model, queries, labels)
    with mock.patch.object(subspace, "eigh_descending", gathered_eigh_descending), mock.patch.object(
        pipeline, "_query_bases", per_mode_query_bases
    ), mock.patch.object(pipeline, "weighted_geodesics", per_mode_geodesics):
        oracle = query_outputs(model, queries, labels)
    assert batched == oracle
    if isinstance(batched[0], tuple):  # no query raised
        points = transform_all(model, queries)
        assert tuple(tuple(b.tobytes() for b in pt.bases) for pt in points) == batched[0]
        assert tuple(b.tobytes() for b in transform(model, queries[0]).bases) == batched[0][0]


@pytest.mark.parametrize(
    "extents, dims, shapes", [((8, 8, 8), (2, 2, 2), 1), ((4, 5, 6), (1, 2, 3), 3)]
)
def test_a_query_takes_one_eigh_and_one_svd_of_each_kind_per_shape(
    extents, dims, shapes, monkeypatch, rng
):
    # the three modes of a cubic model share one extent, one projection
    # product shape and one cross-product shape, so a one-tensor `classify`
    # takes one batched `eigh` of its 3 mode Grams and one SVD of each kind;
    # on a 4x5x6 model with dims 1, 2, 3 each mode takes its own
    spec = SynthSpec(3, 4, extents, shared_dim=1, class_dim=2, within_noise=0.2, seed=5)
    samples, manifest = generate_synthetic(spec, train_fraction=1.0)
    config = PipelineConfig(method="nmode-gds", per_mode_dims=dims, gds_alpha_max=1)
    model = fit(samples, [e.label for e in manifest.entries], config)
    assert len({(g.basis.shape[1], k) for g, k in zip(model.gds, dims)}) == shapes
    calls = []

    def counted(name, fn):
        return lambda a, *rest, **kw: calls.append((name, a.shape, tuple(kw))) or fn(a, *rest, **kw)

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(subspace, "cross_svd", counted("cross_svd", subspace.cross_svd))
    classify(model, random_tensor(rng, extents))
    eighs = [shape for name, shape, _ in calls if name == "eigh"]
    projections = [c for c in calls if c[0] == "svd" and "full_matrices" in c[2]]
    crosses = [c for c in calls if c[0] == "cross_svd"]
    if shapes == 1:
        assert eighs == [(3, 8, 8)]
    else:
        assert eighs == [(1, 4, 4), (1, 5, 5), (1, 6, 6)]
    assert len(projections) == len(crosses) == shapes


# --- method lattice and determinism ----------------------------------------


def test_gds_with_full_band_degenerates_to_pgm():
    spec = SynthSpec(
        classes=4,
        samples_per_class=5,
        dims=(8, 8, 8),
        shared_dim=1,
        class_dim=2,
        within_noise=0.2,
        seed=11,
    )
    samples, manifest = generate_synthetic(spec, train_fraction=1.0)
    labels = [e.label for e in manifest.entries]
    assert len(samples) == 20
    pgm = fit(samples, labels, PipelineConfig(method="pgm"))
    gds1 = fit(
        samples, labels, PipelineConfig(method="nmode-gds", gds_alpha_max=1)
    )
    assert all(g.rank == a for g, a in zip(gds1.gds, gds1.mode_ambients))
    pts_p = [transform(pgm, s) for s in samples]
    pts_g = [transform(gds1, s) for s in samples]
    dp = pairwise_distances(pgm, pts_p)
    dg = pairwise_distances(gds1, pts_g)
    assert np.max(np.abs(dp - dg)) <= 1e-8


def test_mode_subset_distance_is_weighted_mean_angle():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm", modes_used=(1,)))
    a = transform(model, tr_s[0])
    b = transform(model, tr_s[1])
    w1 = float(model.weights.weights[0])
    angle = float(np.mean(np.arccos(canonical_correlations(a.parts[0], b.parts[0]))))
    assert pipeline._distances(model, a.bases, b.bases) == w1 * angle


def test_fit_and_classify_deterministic():
    tr_s, tr_l, te_s, _ = benchmark_split()
    cfg = PipelineConfig(method="nmode-wgds")
    m1 = fit(tr_s, tr_l, cfg)
    m2 = fit(tr_s, tr_l, cfg)
    assert np.array_equal(m1.weights.weights, m2.weights.weights)
    for t in te_s[:3]:
        p1, s1 = classify(m1, t)
        p2, s2 = classify(m2, t)
        assert p1 == p2
        assert np.array_equal(s1, s2)


@st.composite
def aligned_mode_lists(draw):
    """Distinct modes of a 3-way tensor in any order, with a dimension and an
    angle count at most that dimension for each."""
    modes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    dims = [draw(st.integers(1, 3)) for _ in modes]
    return modes, dims, [draw(st.integers(1, dim)) for dim in dims]


@settings(max_examples=8, deadline=None)
@given(drawn=aligned_mode_lists(), method=st.sampled_from(CHOICES["method"]))
def test_fit_pairs_each_dim_and_angle_count_with_its_mode_in_any_order(drawn, method):
    # the config keeps the modes sorted and permutes the aligned lists with
    # them, so every order of the same pairs is one config and one model
    modes, dims, angles = drawn
    order = sorted(range(len(modes)), key=modes.__getitem__)
    as_given = PipelineConfig(
        method=method, modes_used=modes, per_mode_dims=dims, angle_counts=angles
    )
    in_order = PipelineConfig(
        method=method,
        modes_used=sorted(modes),
        per_mode_dims=[dims[i] for i in order],
        angle_counts=[angles[i] for i in order],
    )
    assert as_given == in_order
    tr_s, tr_l, _, _ = benchmark_split()
    outcomes = []
    for config in (as_given, in_order):
        try:
            model = fit(tr_s, tr_l, config)
        except (DimensionError, DegeneracyError) as exc:
            outcomes.append(repr(exc))
            continue
        assert dict(zip(model.modes, model.dims)) == dict(zip(modes, dims))
        widths = [stack.shape[2] for stack in model.reference_stacks]
        assert config.uses_gds or widths == list(model.dims)
        outcomes.append(model_to_bytes(model))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), noise=st.sampled_from([0.3, 0.8]))
def test_fit_ignores_the_training_order_and_a_rotation_of_mode_1(seed, noise):
    # an nmode-wgds model must not depend on the order of its training
    # samples, on a change of basis in one mode's space, on the names of the
    # classes, nor on the order of the tensor axes: the bands and dims, read
    # in the original modes, and the test decisions, read in the original
    # class ids, are the same, and the weights and mean margin agree to
    # rounding (within 1.5e-13 over 80 fits of the first three runs)
    spec = SynthSpec(
        classes=3,
        samples_per_class=6,
        dims=(6, 7, 8),
        shared_dim=1,
        class_dim=2,
        within_noise=noise,
        seed=seed,
    )
    samples, manifest = generate_synthetic(spec, train_fraction=0.7)
    split = {"train": ([], []), "test": ([], [])}
    for sample, entry in zip(samples, manifest.entries):
        split[entry.split][0].append(sample)
        split[entry.split][1].append(entry.label)
    rotation = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))[0]
    renamed = {0: 7, 1: 3, 2: 40}  # non-contiguous ids in another order
    axes = (2, 0, 1)  # axis i of a permuted tensor is axis axes[i] of the original

    def rotated(tensors):
        return [mode_multiply(t, rotation, 1) for t in tensors]

    def permuted(tensors):
        return [DenseTensor(np.transpose(t.data, axes)) for t in tensors]

    (tr_s, tr_l), (te_s, te_l) = split["train"], split["test"]
    config = PipelineConfig(method="nmode-wgds")
    original = {cid: cid for cid in renamed}
    back = {new: old for old, new in renamed.items()}
    # per run: the model, its test set and labels, the original class id of
    # each of its class ids, and per original mode the index of its mode
    runs = [
        (fit(tr_s, tr_l, config), te_s, te_l, original, (0, 1, 2)),
        (fit(tr_s[::-1], tr_l[::-1], config), te_s, te_l, original, (0, 1, 2)),
        (fit(rotated(tr_s), tr_l, config), rotated(te_s), te_l, original, (0, 1, 2)),
        (
            fit(tr_s, [renamed[l] for l in tr_l], config),
            te_s,
            [renamed[l] for l in te_l],
            back,
            (0, 1, 2),
        ),
        (fit(permuted(tr_s), tr_l, config), permuted(te_s), te_l, original, np.argsort(axes)),
    ]
    assert runs[3][0].class_ids == (3, 7, 40)
    assert runs[4][0].data_dims == (8, 6, 7)
    outputs = [
        (
            [(model.gds[i].alpha, model.gds[i].beta) for i in order],
            [model.dims[i] for i in order],
            [ids[classify(model, t)[0]] for t in tests],
            model.weights.weights[list(order)],
            evaluate(model, tests, labels).mean_margin,
        )
        for model, tests, labels, ids, order in runs
    ]
    bands, dims, decisions, weights, margin = outputs[0]
    for other_bands, other_dims, other_decisions, other_weights, other_margin in outputs[1:]:
        assert other_bands == bands
        assert other_dims == dims
        assert other_decisions == decisions
        assert np.max(np.abs(other_weights - weights)) <= 1e-10
        assert abs(other_margin - margin) <= 1e-10


def scaled_split(seed, factor):
    """4 classes x 20 samples at 8 x 9 x 10, noise 0.6, every tensor passed
    through `factor`: the train and test tensors and labels."""
    spec = SynthSpec(4, 20, (8, 9, 10), shared_dim=1, class_dim=2, within_noise=0.6, seed=seed)
    samples, manifest = generate_synthetic(spec)
    split = {"train": ([], []), "test": ([], [])}
    for sample, entry in zip(samples, manifest.entries):
        split[entry.split][0].append(DenseTensor(factor(sample.data)))
        split[entry.split][1].append(entry.label)
    return split["train"], split["test"]


def fit_and_evaluate(method, seed, factor):
    """The fitted model, or the error text of a failed fit, and its test
    metrics on the split of `scaled_split`."""
    (tr_s, tr_l), (te_s, te_l) = scaled_split(seed, factor)
    try:
        model = fit(tr_s, tr_l, PipelineConfig(method=method))
    except DegeneracyError as exc:
        return str(exc), None
    return model, evaluate(model, te_s, te_l)


@settings(max_examples=12, deadline=None)
@given(
    method=st.sampled_from(["pgm", "nmode-wgds"]),
    seed=st.integers(0, 2**31 - 1),
    k=st.sampled_from([40, -40, 300, -300, 700, -700]),
)
def test_fit_and_evaluate_are_exact_under_a_power_of_two_scale(method, seed, k):
    # every spectrum is scaled by powers of two only, so 2^k times every
    # tensor gives the same model bytes and the same evaluation, bit for bit,
    # also where the unscaled Grams would overflow or underflow (|k| = 700)
    base, base_eval = fit_and_evaluate(method, seed, lambda x: x)
    model, metrics = fit_and_evaluate(method, seed, lambda x: np.ldexp(x, k))
    if isinstance(base, str):
        assert model == base
        return
    assert model_to_bytes(model) == model_to_bytes(base)
    assert metrics.accuracy == base_eval.accuracy
    assert metrics.mean_margin == base_eval.mean_margin
    assert metrics.confusion.tobytes() == base_eval.confusion.tobytes()


@settings(max_examples=12, deadline=None)
@given(method=st.sampled_from(["pgm", "nmode-wgds"]), p=st.sampled_from([150, 160, 200]))
def test_fit_and_evaluate_ignore_a_decimal_scale_of_the_data(method, p):
    # 10^p and 10^-p are not powers of two, so the spectra move by rounding:
    # the dims, bands and accuracy stay, and the weights and mean margin
    # agree within 6e-16 on this set (seed 3)
    base, base_eval = fit_and_evaluate(method, 3, lambda x: x)
    for factor in (10.0**p, 10.0**-p):
        model, metrics = fit_and_evaluate(method, 3, lambda x: x * factor)
        assert model.dims == base.dims
        assert [(g.alpha, g.beta) for g in model.gds or ()] == [
            (g.alpha, g.beta) for g in base.gds or ()
        ]
        assert metrics.accuracy == base_eval.accuracy
        assert np.max(np.abs(model.weights.weights - base.weights.weights)) <= 1e-14
        assert abs(metrics.mean_margin - base_eval.mean_margin) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_and_classify_raise_on_a_non_finite_entry(bad):
    # the file reader refuses such tensors; through the API a NaN or infinite
    # entry reaches the spectrum and raises LinAlgError there
    (tr_s, tr_l), _ = scaled_split(3, lambda x: x)
    data = tr_s[0].data.copy()
    data[1, 2, 3] = bad
    with pytest.raises(np.linalg.LinAlgError):
        fit([DenseTensor(data)] + tr_s[1:], tr_l, PipelineConfig(method="pgm"))
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-wgds"))
    with pytest.raises(np.linalg.LinAlgError):
        classify(model, DenseTensor(data))


def test_class_karcher_classifier_runs():
    tr_s, tr_l, te_s, te_l = benchmark_split()
    cfg = PipelineConfig(method="nmode-gds", classifier="class-karcher")
    model = fit(tr_s, tr_l, cfg)
    metrics = evaluate(model, te_s, te_l)
    assert metrics.accuracy >= 0.75


# --- settings -------------------------------------------------------------


def test_settings_table_has_one_row_per_config_field():
    assert [s.name for s in SETTINGS] == [
        f.name for f in dataclasses.fields(PipelineConfig)
    ]
    keys = [s.key for s in SETTINGS]
    assert len(set(keys)) == len(keys)
    assert len({s.model_key for s in SETTINGS}) == len(SETTINGS)


SETTING_VALUES = {
    type(None): st.none() | st.lists(st.integers(), min_size=1, max_size=6).map(tuple),
    bool: st.booleans(),
    float: st.floats(allow_nan=False),
    int: st.integers(),
}


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.name)
@given(data=st.data())
def test_setting_text_round_trips(setting, data):
    if setting.name in CHOICES:
        value = data.draw(st.sampled_from(CHOICES[setting.name]))
    else:
        value = data.draw(SETTING_VALUES[setting.kind])
    assert setting.parse(setting.format(value)) == value


@pytest.mark.parametrize(
    "name, value", [("method", "msm"), ("method", "gds"), ("gds_search", "exhaustive")]
)
def test_config_refuses_retired_values(name, value):
    # only older files spell them (see `RETIRED_VALUES`); the API takes the
    # values that run the code
    assert value in RETIRED_VALUES[name]
    with pytest.raises(ValueError, match=f"{name} must be one of"):
        PipelineConfig(**{name: value})


@pytest.mark.parametrize("bad", [{"per_mode_dims": (2, 0, 2)}, {"angle_counts": (1, 1, -1)}])
def test_config_rejects_per_mode_entries_below_1(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        PipelineConfig(**bad)

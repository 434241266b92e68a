import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgds import (
    DegeneracyError,
    DenseTensor,
    DimensionError,
    PipelineConfig,
    ProductPoint,
    Subspace,
    basis_from_unfolding,
    classify,
    evaluate,
    extract_sample_point,
    fit,
    mean_canonical_angle,
    mode_gram,
    optimize_gds_dims,
    pairwise_distances,
    projector,
    transform,
    unfold,
)
from tensorgds.dataio import SynthSpec, generate_synthetic
from conftest import random_tensor

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


def tilted_two_class_points(sigma=0.3, seed=5, n=10):
    """Two classes around span{e1,e2} and span{e1,e3} in R4 that share e1;
    each class wobbles along its own fixed tilt direction."""
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
    points = [ProductPoint((s,), label=0) for s in groups[0]] + [
        ProductPoint((s,), label=1) for s in groups[1]
    ]
    class_subs = [
        basis_from_unfolding(np.hstack([s.basis for s in g]), dim=2) for g in groups
    ]
    gram = mode_gram(class_subs, mode=1)
    return gram, points


# --- extraction -----------------------------------------------------------


def test_extract_rank1_unit_dims(rng):
    a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(3)
    t = DenseTensor(np.einsum("i,j,k->ijk", a, b, c))
    cfg = PipelineConfig(method="pgm", per_mode_dims=(1, 1, 1))
    point = extract_sample_point(t, cfg)
    for part, factor in zip(point.parts, (a, b, c)):
        direction = factor / np.linalg.norm(factor)
        assert abs(abs(float(part.basis.ravel() @ direction)) - 1.0) <= 1e-10


def test_extract_scale_invariance(rng):
    t = random_tensor(rng, (4, 5, 6))
    scaled = DenseTensor(3.7 * t.data)
    cfg = PipelineConfig(method="pgm", per_mode_dims=(2, 2, 2))
    p1 = extract_sample_point(t, cfg)
    p2 = extract_sample_point(scaled, cfg)
    for a, b in zip(p1.parts, p2.parts):
        assert np.linalg.norm(projector(a) - projector(b)) <= 1e-10


def test_extract_mode_subset(rng):
    t = random_tensor(rng, (4, 5, 6))
    cfg = PipelineConfig(method="msm", modes_used=(1,), per_mode_dims=(2,))
    point = extract_sample_point(t, cfg)
    assert point.mode_count == 1
    assert point.parts[0].ambient_dim == 4


# --- search ---------------------------------------------------------------


def test_optimize_drops_shared_direction():
    gram, points = tilted_two_class_points()
    oracle = optimize_gds_dims(
        [gram], points, PipelineConfig(method="nmode-gds", gds_search="exhaustive", gds_alpha_max=3)
    )
    result = optimize_gds_dims(
        [gram], points, PipelineConfig(method="nmode-gds", gds_search="coordinate", gds_alpha_max=3)
    )
    assert oracle.pairs == result.pairs
    assert result.pairs[0][0] == 2  # the leading shared direction is discarded


def test_optimize_alpha_max_one_forces_full_band():
    gram, points = tilted_two_class_points()
    result = optimize_gds_dims(
        [gram], points, PipelineConfig(method="nmode-gds", gds_alpha_max=1)
    )
    assert result.pairs[0][0] == 1


def test_optimize_identical_classes_degenerate():
    e = np.eye(4)
    s = Subspace(e[:, [0, 1]])
    points = [ProductPoint((s,), label=lab) for lab in (0, 0, 1, 1)]
    gram = mode_gram([s, s], mode=1)
    with pytest.raises(DegeneracyError):
        optimize_gds_dims([gram], points, PipelineConfig(method="nmode-gds"))


# --- fit ------------------------------------------------------------------


def test_fit_pgm_baseline_shape():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm", seed=7))
    assert model.gds is None
    assert np.all(model.weights.weights == 1.0)
    assert len(model.references) == len(tr_s)
    assert model.fisher.score_n == model.fisher_raw.score_n


def test_fit_gds_improves_separability():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-gds", seed=7))
    assert model.gds is not None
    assert model.fisher.score_n > model.fisher_raw.score_n


def test_fit_wgds_weights_normalized():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-wgds", seed=7))
    assert model.weights.is_normalized()
    assert model.config.weights == "fisher"


def test_msm_single_mode_equals_manual_nearest_neighbor():
    tr_s, tr_l, te_s, te_l = benchmark_split()
    cfg = PipelineConfig(method="msm", modes_used=(1,), seed=7)
    model = fit(tr_s, tr_l, cfg)
    for t in te_s[:4]:
        pred, _ = classify(model, t)
        query = transform(model, t)
        dists = [
            mean_canonical_angle(query.parts[0], r.parts[0]) for r in model.references
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
    # fit's one SVD per unfolding must give the dimensions and bases that
    # per-sample extraction gives on its own
    rng = np.random.default_rng(seed)
    samples = [random_tensor(rng, extents) for _ in range(6)]
    config = PipelineConfig(method="pgm", energy_mu=mu)
    model = fit(samples, [0, 0, 0, 1, 1, 1], config)
    energy_dims = np.array(
        [[part.dim for part in extract_sample_point(t, config).parts] for t in samples]
    )
    assert model.dims == tuple(
        int(round(float(np.median(energy_dims[:, p])))) for p in range(3)
    )
    for t, ref in zip(samples, model.references):
        for p, mode in enumerate(model.modes):
            want = basis_from_unfolding(unfold(t, mode), dim=model.dims[p])
            assert np.array_equal(ref.parts[p].basis, want.basis)


def test_fit_rejects_single_class(rng):
    samples = [random_tensor(rng, (4, 4, 4)) for _ in range(3)]
    with pytest.raises(DimensionError):
        fit(samples, [0, 0, 0], PipelineConfig(method="pgm"))


def test_fit_rejects_mismatched_dims(rng):
    samples = [random_tensor(rng, (4, 4, 4)), random_tensor(rng, (4, 4, 5))]
    with pytest.raises(DimensionError):
        fit(samples, [0, 1], PipelineConfig(method="pgm"))


# --- classify / evaluate ---------------------------------------------------


def test_classify_memorizes_training_sample():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-wgds", seed=7))
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


def test_classify_tie_breaks_to_smaller_class_id():
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
        modes=(1,),
        dims=(1,),
        mode_ambients=(4,),
        data_dims=None,
        class_ids=(0, 1),
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
    # distance from mid to both references is exactly equal by symmetry
    from tensorgds import point_distance

    q = ProductPoint((mid,))
    assert point_distance(model, q, model.references[0]) == point_distance(
        model, q, model.references[1]
    )
    scores = np.array(
        [
            point_distance(model, q, model.references[1]),
            point_distance(model, q, model.references[0]),
        ]
    )
    assert int(np.argmin(scores)) == 0  # argmin takes the first, class id 0


def test_evaluate_training_set_is_perfect():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="nmode-gds", seed=7))
    metrics = evaluate(model, tr_s, tr_l)
    assert metrics.accuracy == 1.0
    assert np.all(np.diag(metrics.confusion) == np.array(metrics.confusion.sum(axis=1)))


def test_evaluate_all_wrong_labels():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm", seed=7))
    wrong = [(l + 1) % 4 for l in tr_l]
    metrics = evaluate(model, tr_s, wrong)
    assert metrics.accuracy == 0.0


def test_evaluate_confusion_row_sums():
    tr_s, tr_l, te_s, te_l = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm", seed=7))
    metrics = evaluate(model, te_s, te_l)
    counts = [sum(1 for l in te_l if l == cid) for cid in model.class_ids]
    assert list(metrics.confusion.sum(axis=1)) == counts


def test_evaluate_empty_errors():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="pgm", seed=7))
    with pytest.raises(DimensionError):
        evaluate(model, [], [])


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
    pgm = fit(samples, labels, PipelineConfig(method="pgm", seed=0))
    gds1 = fit(
        samples, labels, PipelineConfig(method="nmode-gds", gds_alpha_max=1, seed=0)
    )
    assert all(g.rank == a for g, a in zip(gds1.gds, gds1.mode_ambients))
    pts_p = [transform(pgm, s) for s in samples]
    pts_g = [transform(gds1, s) for s in samples]
    dp = pairwise_distances(pgm, pts_p)
    dg = pairwise_distances(gds1, pts_g)
    assert np.max(np.abs(dp - dg)) <= 1e-8


def test_mode_subset_distance_is_weighted_mean_angle():
    tr_s, tr_l, _, _ = benchmark_split()
    model = fit(tr_s, tr_l, PipelineConfig(method="msm", modes_used=(1,), seed=7))
    a = transform(model, tr_s[0])
    b = transform(model, tr_s[1])
    from tensorgds import point_distance

    w1 = float(model.weights.weights[0])
    assert point_distance(model, a, b) == w1 * mean_canonical_angle(
        a.parts[0], b.parts[0]
    )


def test_fit_and_classify_deterministic():
    tr_s, tr_l, te_s, _ = benchmark_split()
    cfg = PipelineConfig(method="nmode-wgds", seed=7)
    m1 = fit(tr_s, tr_l, cfg)
    m2 = fit(tr_s, tr_l, cfg)
    assert np.array_equal(m1.weights.weights, m2.weights.weights)
    for t in te_s[:3]:
        p1, s1 = classify(m1, t)
        p2, s2 = classify(m2, t)
        assert p1 == p2
        assert np.array_equal(s1, s2)


def test_class_karcher_classifier_runs():
    tr_s, tr_l, te_s, te_l = benchmark_split()
    cfg = PipelineConfig(method="nmode-gds", classifier="class-karcher", seed=7)
    model = fit(tr_s, tr_l, cfg)
    metrics = evaluate(model, te_s, te_l)
    assert metrics.accuracy >= 0.75

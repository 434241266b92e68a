"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic benchmark regression bars were pinned from a single
exhaustive-search run of the fixed-seed generator configuration.
"""

import functools
import math

import numpy as np
import pytest

from tensorgds import (
    DenseTensor,
    PipelineConfig,
    Subspace,
    classify,
    evaluate,
    fisher_mode,
    fit,
    fold,
    gds_from_gram,
    geodesic_distance,
    hosvd,
    mean_canonical_angle,
    mode_gram,
    nmode_fisher,
    pairwise_distances,
    principal_angles,
    project_onto_gds,
    transform,
    unfold,
)
from tensorgds.cli import classical_mds
from tensorgds.dataio import (
    SynthSpec,
    generate_synthetic,
    read_model,
    read_tensor,
    write_model,
    write_tensor,
)
from conftest import line

pytestmark = pytest.mark.filterwarnings("ignore::tensorgds.KarcherConvergenceWarning")

# Regression bars from the one-time exhaustive-search oracle run of the
# benchmark configuration (classes=4, 10 per class, 12x12x12, shared_dim=1,
# class_dim=2, noise=0.15, seed=7, 70/30 split).
PINNED_ACCURACY = {"pgm": 1.0, "nmode-gds": 1.0, "nmode-wgds": 1.0}
ACCURACY_SLACK = 0.02


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return wrapper

    return deco


@criterion("criterion 1: exactness of roundtrips, HOSVD, and orthonormality")
def test_criterion_1_exactness():
    rng = np.random.default_rng(101)
    for dims in [(3, 4, 5), (2, 2, 2, 2), (6, 3), (10, 10, 10)]:
        t = DenseTensor(rng.standard_normal(dims))
        for mode in range(1, len(dims) + 1):
            back = fold(unfold(t, mode), mode, dims)
            assert np.array_equal(back.data, t.data)
        dec = hosvd(t)
        rel = np.linalg.norm(dec.reconstruct().data - t.data) / np.linalg.norm(t.data)
        assert rel <= 1e-10
        for u in dec.factors:
            assert np.max(np.abs(u.T @ u - np.eye(u.shape[0]))) <= 1e-8


@criterion("criterion 2: analytic canonical angles in R3")
def test_criterion_2_analytic_angles():
    e = np.eye(3)
    p = Subspace(e[:, :2])
    q = Subspace(np.column_stack([e[:, 0], (e[:, 1] + e[:, 2]) / math.sqrt(2)]))
    angles = principal_angles(p, q).angles
    assert abs(angles[0]) <= 1e-12
    assert abs(angles[1] - math.pi / 4) <= 1e-12
    assert abs(geodesic_distance(p, q) - math.pi / 4) <= 1e-12
    assert geodesic_distance(p, p) <= 1e-12
    a = Subspace(e[:, [0]])
    b = Subspace(e[:, [1]])
    assert abs(geodesic_distance(a, b) - math.pi / 2) <= 1e-12
    assert np.all(principal_angles(p, p).angles <= 1e-12)


@criterion("criterion 3: projection onto the difference subspace quasi-orthogonalizes")
def test_criterion_3_quasi_orthogonalization():
    e = np.eye(4)
    p = Subspace(e[:, [0, 1]])
    q = Subspace(e[:, [0, 2]])
    assert abs(mean_canonical_angle(p, q) - math.pi / 4) <= 1e-10
    d = gds_from_gram(mode_gram([p, q], mode=1), alpha=2)
    p_hat = project_onto_gds(d, p)
    q_hat = project_onto_gds(d, q)
    assert abs(mean_canonical_angle(p_hat, q_hat) - math.pi / 2) <= 1e-10


@criterion("criterion 4: separability score properties")
def test_criterion_4_fisher_properties():
    # scale invariance of the combined score
    rng = np.random.default_rng(202)

    def subspace():
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        return Subspace(q[:, :2])

    classes_by_mode = [
        [[subspace() for _ in range(3)], [subspace() for _ in range(3)]]
        for _ in range(3)
    ]
    base = nmode_fisher([fisher_mode(c, mode=i + 1) for i, c in enumerate(classes_by_mode)])
    for c in (3.0, 0.125):
        scaled = nmode_fisher(
            [
                fisher_mode(cls, mode=i + 1, sim=lambda p, q, c=c: c * geodesic_distance(p, q))
                for i, cls in enumerate(classes_by_mode)
            ]
        )
        assert abs(scaled.score_n - base.score_n) <= 1e-12 * max(1.0, base.score_n)

    # the planar two-class construction scores exactly 8
    report = fisher_mode([[line(0.0), line(10.0)], [line(80.0), line(90.0)]])
    assert abs(report.score - 8.0) <= 1e-9

    # widening the between-class angle with frozen within-class offsets
    # strictly raises the combined score
    scores = []
    for gamma in (30.0, 55.0, 80.0):
        classes = [
            [line(-2.0), line(2.0)],
            [line(gamma - 2.0), line(gamma + 2.0)],
        ]
        scores.append(nmode_fisher([fisher_mode(classes)]).score_n)
    assert scores[0] < scores[1] < scores[2]


@criterion("criterion 5: full-band projection degenerates to the plain product manifold")
def test_criterion_5_baseline_degeneration():
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
    gds1 = fit(samples, labels, PipelineConfig(method="nmode-gds", gds_alpha_max=1))
    assert all(g.alpha == 1 and g.beta == g.rank for g in gds1.gds)
    assert np.all(gds1.weights.weights == 1.0)
    d_pgm = pairwise_distances(pgm, [transform(pgm, s) for s in samples])
    d_gds = pairwise_distances(gds1, [transform(gds1, s) for s in samples])
    assert np.max(np.abs(d_pgm - d_gds)) <= 1e-8


@criterion("criterion 6: fixed-seed synthetic benchmark ordering and separability gain")
def test_criterion_6_synthetic_benchmark():
    spec = SynthSpec(
        classes=4,
        samples_per_class=10,
        dims=(12, 12, 12),
        shared_dim=1,
        class_dim=2,
        within_noise=0.15,
        seed=7,
    )
    samples, manifest = generate_synthetic(spec, train_fraction=0.7)
    tr_s = [samples[i] for i, e in enumerate(manifest.entries) if e.split == "train"]
    tr_l = [e.label for e in manifest.entries if e.split == "train"]
    te_s = [samples[i] for i, e in enumerate(manifest.entries) if e.split == "test"]
    te_l = [e.label for e in manifest.entries if e.split == "test"]
    assert len(tr_s) == 28 and len(te_s) == 12

    accuracy = {}
    models = {}
    for method in ("pgm", "nmode-gds", "nmode-wgds"):
        model = fit(tr_s, tr_l, PipelineConfig(method=method))
        metrics = evaluate(model, te_s, te_l)
        accuracy[method] = metrics.accuracy
        models[method] = model

    assert accuracy["nmode-wgds"] >= accuracy["nmode-gds"] >= accuracy["pgm"]
    gds_model = models["nmode-gds"]
    assert gds_model.fisher.score_n > gds_model.fisher_raw.score_n
    for method, pinned in PINNED_ACCURACY.items():
        assert abs(accuracy[method] - pinned) <= ACCURACY_SLACK, (
            f"{method}: accuracy {accuracy[method]} drifted from the pinned {pinned}"
        )


@criterion("criterion 7: slice-order reversal sensitivity of mode autocorrelations")
def test_criterion_7_ordering_sensitivity():
    rng = np.random.default_rng(77)
    t = DenseTensor(rng.standard_normal((5, 5, 5)))
    rev = DenseTensor(t.data[:, :, ::-1])

    def row_autocorr_projector(tensor, mode, k=3):
        x = unfold(tensor, mode)
        evals, evecs = np.linalg.eigh(x.T @ x)
        u = evecs[:, np.argsort(-evals)[:k]]
        return u @ u.T

    assert (
        np.linalg.norm(row_autocorr_projector(t, 3) - row_autocorr_projector(rev, 3))
        <= 1e-10
    )
    assert (
        max(
            np.linalg.norm(
                row_autocorr_projector(t, m) - row_autocorr_projector(rev, m)
            )
            for m in (1, 2)
        )
        >= 1e-3
    )


@criterion("criterion 8: persistence and embedding fidelity")
def test_criterion_8_persistence(tmp_path):
    rng = np.random.default_rng(88)
    t = DenseTensor(rng.standard_normal((3, 4, 5)))
    write_tensor(tmp_path / "probe.nmt", t)
    assert read_tensor(tmp_path / "probe.nmt").data.tobytes() == t.data.tobytes()

    spec = SynthSpec(
        classes=3,
        samples_per_class=7,
        dims=(8, 8, 8),
        shared_dim=1,
        class_dim=2,
        within_noise=0.2,
        seed=13,
    )
    samples, manifest = generate_synthetic(spec, train_fraction=1.0)
    labels = [e.label for e in manifest.entries]
    model = fit(samples, labels, PipelineConfig(method="nmode-wgds"))
    write_model(tmp_path / "model.nmdl", model)
    back = read_model(tmp_path / "model.nmdl")
    for probe in samples[:20]:
        p1, s1 = classify(model, probe)
        p2, s2 = classify(back, probe)
        assert p1 == p2
        assert np.array_equal(s1, s2)

    pts = rng.standard_normal((7, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    coords, _ = classical_mds(d, 3)
    emb = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    assert np.max(np.abs(emb - d)) <= 1e-9

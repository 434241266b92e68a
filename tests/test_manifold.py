import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgds import (
    DegeneracyError,
    DimensionError,
    PipelineConfig,
    ProductPoint,
    Subspace,
    TrainedModel,
    WeightVector,
    mode_weights,
    nmode_fisher,
    pairwise_distances,
)
from tensorgds import pipeline
from tensorgds.fisher import FisherReport
from tensorgds.manifold import weighted_geodesics
from tensorgds.subspace import canonical_correlations
from conftest import line, random_subspace


def orthogonal_pair_point(n_modes):
    e = np.eye(2)
    a = ProductPoint(tuple(Subspace(e[:, [0]]) for _ in range(n_modes)))
    b = ProductPoint(tuple(Subspace(e[:, [1]]) for _ in range(n_modes)))
    return a, b


def test_product_point_requires_parts():
    with pytest.raises(DimensionError):
        ProductPoint(())


def test_mode_weights_from_reported_scores():
    # per-mode separability scores 0.57, 0.41, 0.46 normalize to
    # 0.57/1.44, 0.41/1.44, 0.46/1.44
    w = mode_weights([0.57, 0.41, 0.46])
    assert np.max(np.abs(w.weights - [0.3958, 0.2847, 0.3194])) <= 1e-4
    assert abs(float(w.weights.sum()) - 1.0) <= 1e-9


def test_mode_weights_equal_scores():
    w = mode_weights([3.7, 3.7, 3.7])
    assert np.allclose(w.weights, [1 / 3] * 3, atol=1e-15)


def test_reported_rounded_weights_consistency():
    # a published 2-decimal weight triple can sum to 0.98: truncating three
    # entries moves the sum by at most 0.03 from an exactly normalized vector
    quoted = np.array([0.33, 0.30, 0.35])
    assert abs(float(quoted.sum()) - 0.98) <= 1e-12
    assert abs(float(quoted.sum()) - 1.0) <= 3 * 0.01 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=6
    )
)
def test_mode_weights_always_normalized(scores):
    assert abs(float(mode_weights(scores).weights.sum()) - 1.0) <= 1e-9


def test_mode_weights_errors():
    with pytest.raises(DegeneracyError):
        mode_weights([0.0, 0.0])
    with pytest.raises(DegeneracyError):
        mode_weights([1.0, math.inf])
    with pytest.raises(ValueError):
        mode_weights([1.0, -0.5])


def test_weighted_geodesic_zero_for_identical(rng):
    parts = tuple(random_subspace(rng, 5, 2) for _ in range(3))
    p = ProductPoint(parts)
    w = WeightVector(np.ones(3))
    assert weighted_geodesics(p.bases, p.bases, w) == 0.0


def test_weighted_geodesic_three_orthogonal_modes():
    a, b = orthogonal_pair_point(3)
    w = WeightVector(np.full(3, 1.0 / 3.0))
    rho = weighted_geodesics(a.bases, b.bases, w)
    assert abs(rho - math.pi / (2 * math.sqrt(3))) <= 1e-12


def test_weighted_geodesic_unit_weights_plain_product_distance():
    a, b = orthogonal_pair_point(3)
    w = WeightVector(np.ones(3))
    rho = weighted_geodesics(a.bases, b.bases, w)
    assert abs(rho - math.sqrt(3) * (math.pi / 2)) <= 1e-12


def test_single_mode_reduces_to_mean_angle_exactly():
    a = ProductPoint((line(10.0),))
    b = ProductPoint((line(62.0),))
    angle = float(np.mean(np.arccos(canonical_correlations(a.parts[0], b.parts[0]))))
    w = WeightVector(np.array([1.0]))
    assert weighted_geodesics(a.bases, b.bases, w) == angle
    w2 = WeightVector(np.array([0.37]))
    assert weighted_geodesics(a.bases, b.bases, w2) == 0.37 * angle


def test_weighted_geodesic_symmetry(rng):
    a = ProductPoint(tuple(random_subspace(rng, 6, 2) for _ in range(2)))
    b = ProductPoint(tuple(random_subspace(rng, 6, 2) for _ in range(2)))
    w = WeightVector(np.array([0.3, 0.7]))
    ab = weighted_geodesics(a.bases, b.bases, w)
    assert abs(ab - weighted_geodesics(b.bases, a.bases, w)) <= 1e-12


def test_weight_scaling_preserves_rankings(rng):
    pts = [
        ProductPoint(tuple(random_subspace(rng, 6, 2) for _ in range(3)))
        for _ in range(6)
    ]
    w = WeightVector(np.array([0.2, 0.5, 0.3]))
    w_scaled = WeightVector(4.5 * np.asarray(w.weights))
    d1 = np.array([[weighted_geodesics(a.bases, b.bases, w) for b in pts] for a in pts])
    d2 = np.array([[weighted_geodesics(a.bases, b.bases, w_scaled) for b in pts] for a in pts])
    assert np.allclose(d2, 4.5 * d1, rtol=1e-12, atol=1e-12)
    for i in range(len(pts)):
        assert np.array_equal(np.argsort(d1[i]), np.argsort(d2[i]))


def test_full_spectrum_variant(rng):
    a = ProductPoint(tuple(random_subspace(rng, 6, 2) for _ in range(2)))
    b = ProductPoint(tuple(random_subspace(rng, 6, 2) for _ in range(2)))
    w = WeightVector(np.ones(2))
    mean_rho = weighted_geodesics(a.bases, b.bases, w)
    full_rho = weighted_geodesics(a.bases, b.bases, w, full_spectrum=True)
    assert full_rho >= mean_rho - 1e-12  # root-sum-square dominates the mean


def test_weighted_geodesic_contract_errors(rng):
    a = ProductPoint(tuple(random_subspace(rng, 5, 2) for _ in range(2)))
    b = ProductPoint((random_subspace(rng, 5, 2),))
    w = WeightVector(np.ones(2))
    with pytest.raises(DimensionError):
        weighted_geodesics(a.bases, b.bases, w)
    b2 = ProductPoint(tuple(random_subspace(rng, 5, 2) for _ in range(2)))
    with pytest.raises(DimensionError):
        weighted_geodesics(a.bases, b2.bases, WeightVector(np.ones(3)))
    with pytest.raises(DimensionError):
        weighted_geodesics(a.bases, b2.bases, w, angle_counts=(3, 1))  # exceeds dims


def per_pair_distance(a, b, weights, angle_counts=None, full_spectrum=False):
    """The weighted geodesic distance built from the canonical angles of one
    mode at a time: the definition the batched distances must reproduce."""
    terms = np.empty(len(a.parts))
    for i, (p, q) in enumerate(zip(a.parts, b.parts)):
        count = None if angle_counts is None else angle_counts[i]
        angles = np.arccos(canonical_correlations(p, q, count))
        if full_spectrum:
            value = math.sqrt(float(np.sum(angles * angles)))
        else:
            value = float(np.mean(angles))
        terms[i] = weights.weights[i] * value
    if len(a.parts) == 1:
        return abs(float(terms[0]))
    return float(np.sqrt(np.sum(terms * terms)))


def mixed_width_points(rng, n_modes, n_points, ambient=6):
    """A query and `n_points` points; in mode 1 the point widths vary from 1
    to 3, as projection leaves them, and the other modes have width 2. One
    point repeats the query, so one distance is exactly zero."""
    widths = rng.integers(1, 4, size=n_points)

    def point(width):
        parts = [random_subspace(rng, ambient, int(width))]
        parts += [random_subspace(rng, ambient, 2) for _ in range(n_modes - 1)]
        return ProductPoint(tuple(parts))

    query = point(3)
    return query, [point(w) for w in widths] + [query]


def metric_model(n_modes, weights, angle_counts=None, full_spectrum=False):
    """A model that holds only a metric: weights, angle counts and spectrum
    rule over `n_modes` modes of ambient 6, with no references."""
    report = nmode_fisher([FisherReport(mode=1, between=1.0, within=1.0, score=1.0)])
    config = PipelineConfig(
        method="pgm", angle_counts=angle_counts, full_spectrum=full_spectrum
    )
    return TrainedModel(
        config=config,
        modes=tuple(range(1, n_modes + 1)),
        dims=(2,) * n_modes,
        mode_ambients=(6,) * n_modes,
        data_dims=None,
        class_ids=(0,),
        gds=None,
        weights=weights,
        references=(),
        fisher_raw=report,
        fisher=report,
        angle_diag=((0.0, None),) * n_modes,
    )


def test_model_references_must_share_one_part_shape(rng):
    # a model keeps one stack of reference bases per mode, so references
    # that projection left of two widths in one mode are refused
    model = metric_model(2, WeightVector(np.ones(2)))
    refs = [
        ProductPoint((random_subspace(rng, 6, 2), random_subspace(rng, 6, w)), label=0)
        for w in (2, 1, 2)
    ]
    with pytest.raises(DimensionError, match="references of 2 part shapes do not stack"):
        dataclasses.replace(model, references=tuple(refs))
    kept = dataclasses.replace(model, references=(refs[0], refs[2]))
    assert len(kept.reference_stacks) == 2
    for i, stack in enumerate(kept.reference_stacks):
        assert np.array_equal(stack, np.stack([refs[0].bases[i], refs[2].bases[i]]))
    assert model.reference_stacks == ()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.sampled_from([1, 3]),
    n_points=st.integers(1, 8),
    counted=st.booleans(),
    full_spectrum=st.booleans(),
)
def test_batched_distances_equal_the_per_pair_definition(
    seed, n_modes, n_points, counted, full_spectrum
):
    rng = np.random.default_rng(seed)
    query, points = mixed_width_points(rng, n_modes, n_points)
    weights = WeightVector(rng.uniform(0.1, 1.0, size=n_modes))
    counts = (1,) + (2,) * (n_modes - 1) if counted else None
    model = metric_model(n_modes, weights, counts, full_spectrum)
    # the query is the first point, so it is the left operand of its row,
    # whose pairs are grouped by the shapes of the other points
    batched = pairwise_distances(model, [query, *points])[0, 1:]
    assert batched.shape == (len(points),)
    for j, b in enumerate(points):
        want = per_pair_distance(query, b, weights, counts, full_spectrum)
        assert batched[j] == want
        assert weighted_geodesics(query.bases, b.bases, weights, counts, full_spectrum) == want
    assert batched[-1] == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.sampled_from([1, 3]), full=st.booleans())
def test_pairwise_distances_exactly_symmetric_with_zero_diagonal(seed, n_modes, full):
    rng = np.random.default_rng(seed)
    query, points = mixed_width_points(rng, n_modes, 6)
    points.append(query)  # a repeated point: an exactly zero off-diagonal pair
    weights = WeightVector(rng.uniform(0.1, 1.0, size=n_modes))
    model = metric_model(n_modes, weights, full_spectrum=full)
    d = pairwise_distances(model, points)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert d[-1, -2] == 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            assert d[i, j] == pipeline._distances(model, points[i].bases, points[j].bases)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.sampled_from([1, 3]),
    n_points=st.integers(0, 12),
    block=st.sampled_from([1, 3, pipeline.PAIR_BLOCK]),
    counted=st.booleans(),
    full=st.booleans(),
)
def test_pairwise_distances_equal_a_row_by_row_loop(
    seed, n_modes, n_points, block, counted, full
):
    # the pairs are gathered by the shapes of both points and cut into
    # blocks; each must still see the SVD input of its row's query
    rng = np.random.default_rng(seed)
    query, points = mixed_width_points(rng, n_modes, n_points)
    points.insert(0, query)  # the widest point first, then narrower ones
    weights = WeightVector(rng.uniform(0.1, 1.0, size=n_modes))
    counts = (1,) * n_modes if counted else None
    model = metric_model(n_modes, weights, counts, full)
    with mock.patch.object(pipeline, "PAIR_BLOCK", block):
        d = pairwise_distances(model, points)
    n = len(points)
    upper = np.zeros((n, n))
    for i in range(n - 1):
        for j in range(i + 1, n):
            upper[i, j] = pipeline._distances(model, points[i].bases, points[j].bases)
    assert d.tobytes() == (upper + upper.T).tobytes()
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert d[0, -1] == 0.0  # the query and its repeat

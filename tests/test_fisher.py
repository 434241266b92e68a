import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgds import (
    DimensionError,
    KarcherConvergenceWarning,
    Subspace,
    fisher_mode,
    geodesic_distance,
    karcher_mean,
    nmode_fisher,
    projector,
)
from tensorgds.fisher import FisherReport
from conftest import line, random_orthonormal, random_subspace


def test_karcher_identical_inputs(rng):
    s = random_subspace(rng, 5, 2)
    mean = karcher_mean([s, s, s])
    assert geodesic_distance(mean, s) <= 1e-10


def test_karcher_singleton(rng):
    s = random_subspace(rng, 4, 2)
    assert karcher_mean([s]) is s


def test_karcher_two_lines_bisector():
    # two lines symmetric about 20 degrees; the mean must be the bisector.
    # Oracle: grid-minimize the sum of squared geodesic distances over lines.
    a, b = line(5.0), line(35.0)
    grid = np.linspace(0.0, 180.0, 3601)
    costs = [
        geodesic_distance(line(g), a) ** 2 + geodesic_distance(line(g), b) ** 2
        for g in grid
    ]
    g_star = grid[int(np.argmin(costs))]
    assert abs(g_star - 20.0) <= 0.05  # grid resolution
    mean = karcher_mean([a, b])
    assert geodesic_distance(mean, line(20.0)) <= 1e-8


def test_karcher_permutation_invariance(rng):
    subs = [random_subspace(rng, 6, 2) for _ in range(4)]
    m1 = karcher_mean(subs)
    m2 = karcher_mean(subs[::-1])
    assert np.linalg.norm(projector(m1) - projector(m2)) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_karcher_stays_between_inputs(seed):
    rng = np.random.default_rng(seed)
    base = random_subspace(rng, 6, 2)
    subs = [base]
    for _ in range(3):
        q, _ = np.linalg.qr(base.basis + 0.2 * rng.standard_normal((6, 2)))
        subs.append(Subspace(q[:, :2]))
    mean = karcher_mean(subs)
    max_pair = max(
        geodesic_distance(a, b) for i, a in enumerate(subs) for b in subs[i + 1:]
    )
    assert max(geodesic_distance(mean, s) for s in subs) <= max_pair + 1e-8


def test_karcher_errors_and_warning(rng):
    with pytest.raises(DimensionError):
        karcher_mean([])
    with pytest.raises(DimensionError):
        karcher_mean([random_subspace(rng, 4, 2), random_subspace(rng, 4, 1)])
    spread = [random_subspace(rng, 6, 2) for _ in range(4)]
    with pytest.warns(KarcherConvergenceWarning):
        karcher_mean(spread, tol=1e-15, max_iter=2)


def test_fisher_planar_two_class_score():
    # class A at 0 and 10 degrees, class B at 80 and 90: means at 5, 85, grand
    # mean at 45; between = 40 deg, within = 5 deg, score = 8
    report = fisher_mode([[line(0.0), line(10.0)], [line(80.0), line(90.0)]])
    assert report.flag is None
    assert abs(report.between - math.radians(40.0)) <= 1e-9
    assert abs(report.within - math.radians(5.0)) <= 1e-9
    assert abs(report.score - 8.0) <= 1e-9


def test_fisher_degenerate_infinite():
    e = np.eye(3)
    a = Subspace(e[:, [0]])
    b = Subspace(e[:, [1]])
    report = fisher_mode([[a, a], [b, b]])
    assert report.within == 0.0
    assert report.between > 0.0
    assert math.isinf(report.score) and report.flag == "infinite"


def test_fisher_total_collapse_indeterminate():
    s = Subspace(np.eye(3)[:, [0]])
    report = fisher_mode([[s, s], [s, s]])
    assert report.within == 0.0 and report.between == 0.0
    assert math.isnan(report.score) and report.flag == "indeterminate"


def test_fisher_errors(rng):
    with pytest.raises(DimensionError):
        fisher_mode([[random_subspace(rng, 4, 2)]])
    with pytest.raises(DimensionError):
        fisher_mode([[random_subspace(rng, 4, 2)], []])


def test_fisher_scale_invariance(rng):
    classes = [
        [random_subspace(rng, 6, 2) for _ in range(3)],
        [random_subspace(rng, 6, 2) for _ in range(3)],
    ]
    base = fisher_mode(classes)
    for c in (math.pi, 0.001, 47.0):
        scaled = fisher_mode(
            classes, sim=lambda p, q, c=c: c * geodesic_distance(p, q)
        )
        assert abs(scaled.score - base.score) <= 1e-12 * max(1.0, base.score)


def test_nmode_single_mode():
    rep = FisherReport(mode=1, between=3.0, within=2.0, score=1.5)
    agg = nmode_fisher([rep])
    assert agg.score_n == 1.5


def test_nmode_aggregates_before_dividing():
    r1 = FisherReport(mode=1, between=2.0, within=1.0, score=2.0)
    r2 = FisherReport(mode=2, between=4.0, within=1.0, score=4.0)
    agg = nmode_fisher([r1, r2])
    assert agg.between_n == 3.0 and agg.within_n == 1.0
    assert agg.score_n == 3.0  # mean-of-betweens over mean-of-withins, not 3.0 by luck


def test_nmode_ratio_homogeneity():
    reports = [
        FisherReport(mode=m, between=b, within=w, score=b / w)
        for m, (b, w) in enumerate([(2.0, 0.5), (1.0, 0.25), (3.0, 0.75)], start=1)
    ]
    scaled = [
        FisherReport(mode=r.mode, between=7.0 * r.between, within=7.0 * r.within, score=r.score)
        for r in reports
    ]
    assert abs(nmode_fisher(reports).score_n - nmode_fisher(scaled).score_n) <= 1e-12


def test_separability_monotone_in_between_angle():
    # two classes of lines; push class B further out with identical within-class
    # offsets and the combined score must strictly increase
    offsets = [-2.0, 2.0]
    scores = []
    for gamma in (30.0, 55.0, 80.0):
        classes = [
            [line(0.0 + o) for o in offsets],
            [line(gamma + o) for o in offsets],
        ]
        scores.append(nmode_fisher([fisher_mode(classes)]).score_n)
    assert scores[0] < scores[1] < scores[2]


def members_near(rng, ambient, k, n, radius):
    """`n` subspaces at geodesic distance at most `radius` from a random
    center: exp-map images of tangent vectors of norm below `radius`."""
    center = random_subspace(rng, ambient, k).basis
    out = []
    for _ in range(n):
        h = rng.standard_normal((ambient, k))
        h -= center @ (center.T @ h)
        h *= rng.uniform(0.0, radius) / np.linalg.norm(h)
        u, s, vt = np.linalg.svd(h, full_matrices=False)
        y = (center @ vt.T) * np.cos(s) + u * np.sin(s)
        out.append(Subspace(np.linalg.qr(y @ vt)[0]))
    return out


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    k=st.integers(1, 3),
    extra=st.integers(1, 4),
)
def test_karcher_commutes_with_rotation_and_converges(seed, n, k, extra):
    rng = np.random.default_rng(seed)
    ambient = k + extra
    subs = members_near(rng, ambient, k, n, radius=0.35)
    rot = random_orthonormal(rng, ambient, ambient)
    with warnings.catch_warnings():
        warnings.simplefilter("error", KarcherConvergenceWarning)
        mean = karcher_mean(subs)
        rotated = karcher_mean([Subspace(rot @ s.basis) for s in subs])
    err = np.linalg.norm(projector(rotated) - rot @ projector(mean) @ rot.T)
    assert err <= 1e-10

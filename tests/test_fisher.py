import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgds import (
    DimensionError,
    KarcherConvergenceWarning,
    PipelineConfig,
    Subspace,
    fisher_modes,
    fit,
    geodesic_distance,
    karcher_means,
    nmode_fisher,
)
from tensorgds import fisher
from tensorgds.dataio import SynthSpec, generate_synthetic
from tensorgds.fisher import FisherReport
from tensorgds.subspace import canonical_correlations, cross_svd
from conftest import line, random_orthonormal, random_subspace


def test_karcher_identical_inputs(rng):
    s = random_subspace(rng, 5, 2)
    (mean,) = karcher_means([[s, s, s]])
    assert geodesic_distance(mean, s) <= 1e-10


def test_karcher_singleton(rng):
    s = random_subspace(rng, 4, 2)
    (mean,) = karcher_means([[s]])
    assert np.array_equal(mean, s.basis)


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
    (mean,) = karcher_means([[a, b]])
    assert geodesic_distance(mean, line(20.0)) <= 1e-8


def test_karcher_permutation_invariance(rng):
    subs = [random_subspace(rng, 6, 2) for _ in range(4)]
    (m1,) = karcher_means([subs])
    (m2,) = karcher_means([subs[::-1]])
    assert np.linalg.norm(m1 @ m1.T - m2 @ m2.T) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_karcher_stays_between_inputs(seed):
    rng = np.random.default_rng(seed)
    base = random_subspace(rng, 6, 2)
    subs = [base]
    for _ in range(3):
        q, _ = np.linalg.qr(base.basis + 0.2 * rng.standard_normal((6, 2)))
        subs.append(Subspace(q[:, :2]))
    (mean,) = karcher_means([subs])
    max_pair = max(
        geodesic_distance(a, b) for i, a in enumerate(subs) for b in subs[i + 1:]
    )
    assert max(geodesic_distance(mean, s) for s in subs) <= max_pair + 1e-8


def test_karcher_errors_and_warning(rng):
    with pytest.raises(DimensionError):
        karcher_means([[]])
    with pytest.raises(DimensionError):
        karcher_means([[random_subspace(rng, 4, 2), random_subspace(rng, 4, 1)]])
    for bad in (np.empty((0, 4, 2)), np.eye(4)[:, :2]):  # empty, or one bare basis
        with pytest.raises(DimensionError, match="non-empty"):
            karcher_means([bad])
    spread = [random_subspace(rng, 6, 2) for _ in range(4)]
    with pytest.warns(
        KarcherConvergenceWarning,
        match=r"Karcher mean of 4 subspaces \(6x2\) stopped after 2 iterations",
    ):
        karcher_means([spread], tol=1e-15, max_iter=2)


def test_fisher_planar_two_class_score():
    # class A at 0 and 10 degrees, class B at 80 and 90: means at 5, 85, grand
    # mean at 45; between = 40 deg, within = 5 deg, score = 8
    (report,) = fisher_modes([([[line(0.0), line(10.0)], [line(80.0), line(90.0)]], 0)])
    assert report.flag is None
    assert abs(report.between - math.radians(40.0)) <= 1e-9
    assert abs(report.within - math.radians(5.0)) <= 1e-9
    assert abs(report.score - 8.0) <= 1e-9


def test_fisher_degenerate_infinite():
    e = np.eye(3)
    a = Subspace(e[:, [0]])
    b = Subspace(e[:, [1]])
    (report,) = fisher_modes([([[a, a], [b, b]], 0)])
    assert report.within == 0.0
    assert report.between > 0.0
    assert math.isinf(report.score) and report.flag == "infinite"


def test_fisher_total_collapse_indeterminate():
    s = Subspace(np.eye(3)[:, [0]])
    (report,) = fisher_modes([([[s, s], [s, s]], 0)])
    assert report.within == 0.0 and report.between == 0.0
    assert math.isnan(report.score) and report.flag == "indeterminate"


def test_fisher_errors(rng):
    with pytest.raises(DimensionError):
        fisher_modes([([[random_subspace(rng, 4, 2)]], 0)])
    with pytest.raises(DimensionError):
        fisher_modes([([[random_subspace(rng, 4, 2)], []], 0)])


def test_fisher_scale_invariance(rng):
    classes = [
        [random_subspace(rng, 6, 2) for _ in range(3)],
        [random_subspace(rng, 6, 2) for _ in range(3)],
    ]
    (base,) = fisher_modes([(classes, 0)])
    for c in (math.pi, 0.001, 47.0):
        (scaled,) = fisher_modes(
            [(classes, 0)], sim=lambda p, q, c=c: c * geodesic_distance(p, q)
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
        scores.append(nmode_fisher(fisher_modes([(classes, 0)])).score_n)
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
        (mean,) = karcher_means([subs])
        (rotated,) = karcher_means([[Subspace(rot @ s.basis) for s in subs]])
    err = np.linalg.norm(rotated @ rotated.T - rot @ (mean @ mean.T) @ rot.T)
    assert err <= 1e-10


def test_log_map_reaches_a_member_at_the_cut_locus():
    # span(e1, e3) meets span(e1, e2) at angles (0, pi/2): M = Y^T X is
    # singular, and a pseudo-inverse would drop the direction e3 and return
    # the zero tangent, as if the member were the base
    eye = np.eye(4)
    y, x = eye[:, [0, 1]], eye[:, [0, 2]]
    tangent = fisher._log_map(y[None], x[None, None])[0, 0]
    s = np.linalg.svd(tangent, compute_uv=False)
    assert np.allclose(s, [math.pi / 2, 0.0], rtol=0.0, atol=1e-12)
    reached = fisher._exp_map(y[None], tangent[None])[0]
    assert np.max(np.abs(reached @ reached.T - x @ x.T)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(3, 8), n=st.integers(1, 7))
def test_log_map_of_2x2_cross_products_matches_the_lapack_path(seed, d, n):
    # the closed-form 2 x 2 SVD against LAPACK's, on members at random,
    # exact, near and far cut-locus angles, the first at angles (0, pi/2):
    # a member with a cosine of 0 gets the factor pi/2 on both paths
    rng = np.random.default_rng(seed)
    base = random_orthonormal(rng, d, 2)
    stack = members_at_angles(rng, base, n)
    stack[0] = np.hstack([base[:, :1], np.linalg.qr(np.hstack([base, stack[0]]))[0][:, 2:3]])
    tangents = fisher._log_map(base[None], stack[None])[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fisher, "cross_svd", np.linalg.svd)
        lapack = fisher._log_map(base[None], stack[None])[0]
    # the tangent norms are the angles; at a cosine of 0 either sign of the
    # tangent reaches the member, so the tangents themselves are compared
    # only where every cosine is clear of 0
    angles = np.linalg.svd(tangents, compute_uv=False)
    assert np.allclose(angles, np.linalg.svd(lapack, compute_uv=False), rtol=0.0, atol=1e-12)
    assert np.allclose(angles[0], [math.pi / 2, 0.0], rtol=0.0, atol=1e-12)
    clear = np.linalg.svd(base.T @ stack, compute_uv=False).min(axis=-1) >= 1e-6
    assert np.max(np.abs(tangents[clear] - lapack[clear]), initial=0.0) <= 1e-12


def retired_log_map(base, stack):
    """The log map before the closed form: arctan of the singular values of
    (X - Y M) pinv(M), which loses every direction where M is singular."""
    base = base[:, None]
    m = np.swapaxes(base, -1, -2) @ stack
    g = (stack - base @ m) @ np.linalg.pinv(m)
    w, s, vt = np.linalg.svd(g, full_matrices=False)
    return (w * np.arctan(s)[..., None, :]) @ vt


def members_at_angles(rng, base, n):
    """`n` bases at canonical angles to `base` mixing random angles with
    exact, near and far cut-locus angles, each in a random basis."""
    d, k = base.shape
    r = min(k, d - k)  # angles that can be nonzero
    choices = [
        lambda: rng.uniform(0.0, math.pi / 2),
        lambda: math.pi / 2,
        lambda: math.pi / 2 - 10.0 ** -rng.uniform(3, 12),
        lambda: 10.0 ** -rng.uniform(0, 12),
        lambda: 0.0,
    ]
    out = []
    for _ in range(n):
        theta = np.zeros(k)
        theta[:r] = [choices[rng.integers(len(choices))]() for _ in range(r)]
        # directions orthogonal to span(base), one per angle
        perp = np.linalg.qr(np.hstack([base, rng.standard_normal((d, k))]))[0][:, k:]
        perp = np.hstack([perp[:, :r], np.zeros((d, k - r))])
        v = random_orthonormal(rng, k, k)
        x = (base @ v) * np.cos(theta) + perp * np.sin(theta)
        out.append(x @ random_orthonormal(rng, k, k))
    return np.stack(out)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 9),
    k=st.integers(1, 3),
    n=st.integers(1, 7),
)
def test_log_map_inverts_the_exp_map_and_matches_the_retired_formula(seed, d, k, n):
    rng = np.random.default_rng(seed)
    k = min(k, d)
    base = random_orthonormal(rng, d, k)
    stack = members_at_angles(rng, base, n)
    tangents = fisher._log_map(base[None], stack[None])[0]
    for x, tangent in zip(stack, tangents):
        reached = fisher._exp_map(base[None], tangent[None])[0]
        assert np.max(np.abs(reached @ reached.T - x @ x.T)) <= 1e-12
    # away from the cut locus the pseudo-inverse is an inverse, and the two
    # formulas are one map
    cosines = np.linalg.svd(base.T @ stack, compute_uv=False).min(axis=-1)
    far = cosines >= 1e-3
    retired = retired_log_map(base[None], stack[None])[0]
    assert np.max(np.abs(tangents[far] - retired[far]), initial=0.0) <= 1e-11


def _solo_loop(subs, tol, max_iter, next_step):
    """The per-set Karcher loop that `karcher_means` batches, with its own
    2-D log map, exp map, projector average and eigen and QR helpers, and a
    step rule `next_step(y, mean_tangent, tnorm)` called before each step.
    Returns the mean basis, whether the iteration converged and the mean
    tangent norms it saw."""
    stack = np.stack([s.basis for s in subs])
    norms = []
    if len(subs) == 1:
        return subs[0].basis, True, norms

    def log_map(base):
        m = base.T @ stack
        # the cross-product SVD helper of the batched loop, so that the
        # comparison stays bitwise
        p, c, qt = cross_svd(m)
        scale = 1.0 / np.sinc(np.arccos(np.clip(c, 0.0, 1.0)) / np.pi)
        w = (stack - base @ m) @ np.swapaxes(qt, -1, -2)
        return (w * scale[:, None, :]) @ np.swapaxes(p, -1, -2)

    def exp_map(base, tangent):
        w, s, vt = np.linalg.svd(tangent, full_matrices=False)
        q, r = np.linalg.qr(((base @ vt.T) * np.cos(s) + w * np.sin(s)) @ vt)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return q * signs

    acc = np.zeros((stack.shape[1],) * 2)
    for s in subs:
        acc += s.basis @ s.basis.T
    acc /= len(subs)
    evals, evecs = np.linalg.eigh(acc)
    order = np.argsort(-evals, kind="stable")
    y = np.ascontiguousarray(evecs[:, order][:, : stack.shape[2]])
    best_y, best_norm = y, math.inf
    for _ in range(max_iter):
        mean_tangent = log_map(y).sum(axis=0) / len(subs)
        tnorm = float(np.linalg.norm(mean_tangent))
        norms.append(tnorm)
        if tnorm < best_norm:
            best_y, best_norm = y, tnorm
        if tnorm < tol:
            return y, True, norms
        y = exp_map(y, next_step(y, mean_tangent, tnorm) * mean_tangent)
    return best_y, False, norms


def solo_karcher_mean(subs, tol=1e-8, max_iter=100):
    """Oracle: `_solo_loop` with the Barzilai-Borwein (BB2) step of
    `karcher_means`: 1 first, then <s, d> / <d, d> clipped to [1, STEP_MAX]
    when <s, d> > 0 and 1 otherwise, with G the last mean tangent moved to Y
    as (G - Y Y^T G) (Y_last^T Y), s = last step * that, d = that - tangent."""
    last = []  # (y, mean tangent, step) of the step before

    def bb_step(y, mean_tangent, _):
        step = 1.0
        if last:
            prev_y, prev_tangent, prev_step = last.pop()
            moved = (prev_tangent - y @ (y.T @ prev_tangent)) @ (prev_y.T @ y)
            s, d = prev_step * moved, moved - mean_tangent
            sd = np.vdot(s, d)
            if sd > 0.0:
                step = min(max(sd / np.vdot(d, d), 1.0), fisher.STEP_MAX)
        last.append((y, mean_tangent, step))
        return step

    return _solo_loop(subs, tol, max_iter, bb_step)


def damped_karcher_mean(subs, tol=1e-8, max_iter=100):
    """Second oracle: `_solo_loop` with the step rule `karcher_means` had
    before its Barzilai-Borwein step, which starts at 1 and halves whenever
    the mean tangent norm grows."""
    state = {"step": 1.0, "prev": math.inf}

    def halving_step(_y, _tangent, tnorm):
        if tnorm > state["prev"]:
            state["step"] *= 0.5
        state["prev"] = tnorm
        return state["step"]

    return _solo_loop(subs, tol, max_iter, halving_step)


def mean_squared_angle(mean, subs):
    """Karcher cost: mean over the members of their squared geodesic
    distance to `mean`."""
    return float(np.mean(geodesic_distance(np.stack([s.basis for s in subs]), mean) ** 2))


# (ambient, dim) pairs few enough that sets often share a stack shape
SHAPES = [(4, 1), (4, 2), (5, 2), (6, 3)]


@st.composite
def subspace_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        ambient, k = SHAPES[draw(st.integers(0, len(SHAPES) - 1))]
        size = draw(st.integers(1, 10))
        sets.append([random_subspace(rng, ambient, k) for _ in range(size)])
    return sets


@settings(max_examples=60, deadline=None)
@given(
    sets=subspace_sets(),
    max_iter=st.integers(1, 100),
    # below rounding level the iteration never stops, and the step damping
    # and the best iterate act on tangent norms that are rounding noise
    tol=st.sampled_from([1e-8, 1e-300]),
    # one set per log-map call, a few, and the default block
    block=st.sampled_from([1, 64, fisher.LOG_MAP_BLOCK]),
)
def test_karcher_means_match_per_set_loop_bitwise(sets, max_iter, tol, block):
    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as patch:
        patch.setattr(fisher, "LOG_MAP_BLOCK", block)
        warnings.simplefilter("always", KarcherConvergenceWarning)
        means = karcher_means(sets, tol=tol, max_iter=max_iter)
    expected = [solo_karcher_mean(subs, tol=tol, max_iter=max_iter) for subs in sets]
    assert len(means) == len(sets)
    for mean, (basis, _, _) in zip(means, expected):
        assert mean.tobytes() == np.ascontiguousarray(basis).tobytes()
    unconverged = sum(not converged for _, converged, _ in expected)
    assert len(caught) == unconverged
    assert all(issubclass(w.category, KarcherConvergenceWarning) for w in caught)


@settings(max_examples=30, deadline=None)
@given(sets=subspace_sets(), max_iter=st.integers(0, 100))
def test_karcher_means_log_map_only_the_sets_still_iterating(sets, max_iter):
    # a set that has stopped leaves the batch: the member log maps computed
    # are exactly those of the per-set loops, iteration by iteration
    computed = []
    log_map = fisher._log_map

    def counting(base, stack):
        computed.append(stack.shape[0] * stack.shape[1])
        return log_map(base, stack)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fisher, "_log_map", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KarcherConvergenceWarning)
            karcher_means(sets, max_iter=max_iter)
    solo = [solo_karcher_mean(subs, max_iter=max_iter)[2] for subs in sets]
    assert sum(computed) == sum(len(norms) * len(subs) for norms, subs in zip(solo, sets))


@settings(max_examples=20, deadline=None)
@given(sets=subspace_sets())
def test_karcher_means_stop_on_the_last_bit_of_the_tangent_norm(sets):
    # tolerances at and one ulp above each tangent norm the per-set loop
    # computes, so that the stop hangs on the last bit of that norm
    norms = solo_karcher_mean(sets[0], tol=0.0, max_iter=10)[2]
    for tol in [t for norm in norms for t in (norm, float(np.nextafter(norm, np.inf)))]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KarcherConvergenceWarning)
            means = karcher_means(sets, tol=tol, max_iter=10)
        for mean, subs in zip(means, sets):
            basis = solo_karcher_mean(subs, tol=tol, max_iter=10)[0]
            assert mean.tobytes() == np.ascontiguousarray(basis).tobytes()


@settings(max_examples=40, deadline=None)
@given(sets=subspace_sets())
def test_karcher_means_cost_no_more_than_the_damped_rule(sets):
    # the Barzilai-Borwein step reaches a mean at least as good as the
    # halving rule it replaced, on widely spread random sets, where the
    # halving rule often stops at the iteration cap
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KarcherConvergenceWarning)
        means = karcher_means(sets)
        damped = [Subspace(damped_karcher_mean(subs)[0]) for subs in sets]
    for mean, old, subs in zip(means, damped, sets):
        assert mean_squared_angle(mean, subs) <= mean_squared_angle(old, subs) + 1e-12


def test_fit_karcher_means_converge_within_the_recorded_work():
    # 8 classes x 25 samples at 16^3, seed 7: the halving rule made 539 log
    # map passes and 2,639 set-iterations here and left 2 means unconverged;
    # the BB step made 200 and 1,543 in 6 `karcher_means` calls. Every mode
    # is a full-rank rotation here, so the full bands reuse the raw reports,
    # and one `fisher_modes` call scores the raw bases and the other
    # candidates: one call for the class means and one for the grand means.
    # The candidates are scored in ambient coordinates, so their sets of one
    # size iterate in one shape group with the raw sets: 66 log-map calls,
    # 84 (in 71 passes) when the raw bases were a batch of their own and 181
    # passes when each band width was a group of its own, for the same 1,330
    # set-iterations. The large group takes its log maps a block of sets at
    # a time (`LOG_MAP_BLOCK`), so a pass can make more than one log-map call
    spec = SynthSpec(8, 25, (16, 16, 16), shared_dim=1, class_dim=2, within_noise=0.15, seed=7)
    samples, manifest = generate_synthetic(spec, train_fraction=0.7)
    train = [(s, e.label) for s, e in zip(samples, manifest.entries) if e.split == "train"]
    calls = passes = set_iterations = 0
    log_map, means = fisher._log_map, fisher.karcher_means

    def counting(base, stack):
        nonlocal passes, set_iterations
        passes += 1
        set_iterations += stack.shape[0]
        return log_map(base, stack)

    def counting_means(*args, **kwargs):
        nonlocal calls
        calls += 1
        return means(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fisher, "_log_map", counting)
        patch.setattr(fisher, "karcher_means", counting_means)
        with warnings.catch_warnings():
            warnings.simplefilter("error", KarcherConvergenceWarning)
            fit(*zip(*train), PipelineConfig(method="nmode-wgds"))
    assert calls == 2
    assert passes <= 66 and set_iterations <= 1330


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    k=st.integers(1, 3),
)
def test_fisher_spreads_match_per_pair_sums_bitwise(seed, sizes, k):
    rng = np.random.default_rng(seed)
    classes = [[random_subspace(rng, 6, k) for _ in range(n)] for n in sizes]
    (report,) = fisher_modes([(classes, 0)])
    class_means = [karcher_means([c])[0] for c in classes]
    (grand_mean,) = karcher_means([np.stack(class_means)])
    between = sum(geodesic_distance(kj, grand_mean) for kj in class_means) / len(classes)
    within = sum(
        geodesic_distance(s, kj) for c, kj in zip(classes, class_means) for s in c
    ) / sum(sizes)
    assert type(report.between) is float and type(report.within) is float
    assert report.between == between and report.within == within


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    d=st.integers(2, 6),
    data=st.data(),
)
def test_stacks_and_subspace_sequences_give_bit_identical_results(seed, sizes, d, data):
    # classes of unequal size, one-member classes included, given as (n, d, k)
    # stacks of bases or as the equivalent sequences of Subspaces
    k = data.draw(st.integers(1, d - 1), label="k")
    rng = np.random.default_rng(seed)
    stacks = [np.stack([random_orthonormal(rng, d, k) for _ in range(n)]) for n in sizes]
    sequences = [[Subspace(b) for b in stack] for stack in stacks]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KarcherConvergenceWarning)
        # repr compares every float to the last bit and lets a nan match itself
        assert repr(fisher_modes([(stacks, 2)])) == repr(fisher_modes([(sequences, 2)]))
        from_stacks, from_sequences = karcher_means(stacks), karcher_means(sequences)
    for a, b in zip(from_stacks, from_sequences, strict=True):
        assert np.array_equal(a, b)


@st.composite
def fisher_tasks(draw):
    """1 to 4 (classes, mode) tasks: 2 or 3 classes each of 1 to 5 random
    (d, k) bases, d in 11..16 and k 2 or 3, with the tasks' shapes drawn
    from a pool of at most 3 so that some tasks share a stack shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = st.tuples(st.integers(11, 16), st.sampled_from([2, 3]))
    pool = draw(st.lists(shape, min_size=1, max_size=3))
    tasks = []
    for mode in range(1, draw(st.integers(1, 4)) + 1):
        d, k = draw(st.sampled_from(pool))
        sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
        classes = [np.stack([random_orthonormal(rng, d, k) for _ in range(n)]) for n in sizes]
        tasks.append((classes, mode))
    return tasks


@settings(max_examples=30, deadline=None)
@given(tasks=fisher_tasks(), max_iter=st.sampled_from([2, 5, 100]))
def test_fisher_modes_match_one_call_per_task_bitwise(tasks, max_iter):
    # one batch of class means and one of grand means give every task the
    # report, and the warnings, of its own call; a lower iteration cap than
    # the fixed one makes some sets warn
    capped = functools.partial(fisher.karcher_means, max_iter=max_iter)
    with mock.patch.object(fisher, "karcher_means", capped):
        with warnings.catch_warnings(record=True) as batched:
            warnings.simplefilter("always", KarcherConvergenceWarning)
            reports = fisher_modes(tasks)
        with warnings.catch_warnings(record=True) as solo:
            warnings.simplefilter("always", KarcherConvergenceWarning)
            expected = [fisher_modes([task])[0] for task in tasks]
    # repr compares every float to the last bit and lets a nan match itself
    assert [repr(r) for r in reports] == [repr(r) for r in expected]
    assert len(batched) == len(solo)
    assert all(issubclass(w.category, KarcherConvergenceWarning) for w in batched)


def pair_correlations(a, b):
    """Oracle: clamped singular values of a.T @ b, through the cross-product
    SVD helper, snapped to 1 as `canonical_correlations` does."""
    s = np.clip(cross_svd(a.T @ b, compute_uv=False), 0.0, 1.0)
    s[s >= 1.0 - 1e-13] = 1.0
    return s


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    kp=st.integers(1, 3),
    kq=st.integers(1, 3),
)
def test_canonical_correlations_broadcast_match_per_pair(seed, n, kp, kq):
    rng = np.random.default_rng(seed)
    p = random_subspace(rng, 5, kp)
    stack = np.stack([random_orthonormal(rng, 5, kq) for _ in range(n)])
    right = canonical_correlations(p, stack)
    left = canonical_correlations(stack, p)
    for i, basis in enumerate(stack):
        q = Subspace(basis)
        # the cross product's orientation is pinned: the SVD of a transpose
        # differs in the last bit
        assert right[i].tobytes() == pair_correlations(p.basis, basis).tobytes()
        assert left[i].tobytes() == pair_correlations(basis, p.basis).tobytes()
        assert right[i].tobytes() == canonical_correlations(p, q).tobytes()
        assert left[i].tobytes() == canonical_correlations(q, p).tobytes()
        assert geodesic_distance(stack, p)[i] == geodesic_distance(q, p)
    assert isinstance(geodesic_distance(p, Subspace(stack[0])), float)
    with pytest.raises(DimensionError):
        canonical_correlations(random_subspace(rng, 4, 1), stack)
    with pytest.raises(DimensionError):
        canonical_correlations(stack, random_orthonormal(rng, 6, 1))

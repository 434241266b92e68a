import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorgds import (
    DegeneracyError,
    DimensionError,
    Subspace,
    geodesic_distance,
    select_dim,
)
from tensorgds.subspace import (
    canonical_correlations,
    cross_svd,
    eigh_descending,
    gram_spectrum,
    leading_basis,
)
from conftest import gathered_eigh_descending, random_orthonormal, random_subspace


def r3_pair():
    """span{e1,e2} and span{e1,(e2+e3)/sqrt 2}: angles are 0 and pi/4."""
    e = np.eye(3)
    p = Subspace(e[:, :2])
    q2 = (e[:, 1] + e[:, 2]) / math.sqrt(2)
    q = Subspace(np.column_stack([e[:, 0], q2]))
    return p, q


def test_subspace_invariants():
    with pytest.raises(ValueError):
        Subspace(np.ones((3, 2)))  # not orthonormal
    with pytest.raises(DimensionError):
        Subspace(np.eye(2, 3))  # k > ambient
    s = Subspace(np.eye(4)[:, :2])
    assert s.ambient_dim == 4 and s.dim == 2


def spectrum_of(mat):
    """`gram_spectrum` of the Gram of one matrix or a stack of them."""
    return gram_spectrum(mat @ np.swapaxes(mat, -1, -2), mat.shape[-1])


def test_leading_basis_keeps_the_dominant_direction():
    mat = np.column_stack([3.0 * np.eye(4)[:, 0], 1.0 * np.eye(4)[:, 1]])
    u, lam = spectrum_of(mat)
    assert select_dim(lam, 0.90) == 1
    assert np.allclose(np.abs(leading_basis(u, lam, 1).ravel()), np.eye(4)[:, 0])
    # the identity spreads its energy evenly, so 90 % of it takes every direction
    u, lam = spectrum_of(np.eye(4))
    assert leading_basis(u, lam, select_dim(lam, 0.90)).shape == (4, 4)


EPS = np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 9),
    cols=st.integers(1, 40),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_gram_spectrum_matches_the_direct_svd(seed, rows, cols, scale):
    # the Gram route against np.linalg.svd of the matrix on wide, tall and
    # square matrices: the squared singular values, relative to the largest,
    # within twice the rank rule's (rows + cols) * eps, and, wherever the
    # spectrum has a gap, the same leading subspaces within 8 (rows + cols) *
    # eps * lambda_1 / gap; 70,000 draws read at most 1.4 and 4.8 of the unit
    mat = scale * np.random.default_rng(seed).standard_normal((rows, cols))
    u, lam = spectrum_of(mat)
    w, s, _ = np.linalg.svd(mat, full_matrices=True)
    rel = np.zeros(rows)
    rel[: s.size] = (s / s[0]) ** 2
    assert u.shape == (rows, rows) and lam.shape == (rows,)
    assert np.max(np.abs(lam / lam[0] - rel)) <= 2 * (rows + cols) * EPS
    assert np.allclose(u.T @ u, np.eye(rows), rtol=0.0, atol=1e-13)
    for k in range(1, rows):
        gap = rel[k - 1] - rel[k]
        if gap > 1e-6:
            diff = u[:, :k] @ u[:, :k].T - w[:, :k] @ w[:, :k].T
            assert np.linalg.norm(diff, 2) <= 8 * (rows + cols) * EPS / gap


def product_of_rank(rng, rows, cols, rank, scale):
    """A rows x cols product of exact rank `rank` whose nonzero singular
    values lie in [1e-3, 1] times `scale`, so the kept Gram values clear the
    rank rule by six orders whatever the draw."""
    left = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    values = np.sort(10.0 ** rng.uniform(-3.0, 0.0, size=rank))[::-1]
    return scale * (left * values) @ right.T


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 9),
    cols=st.integers(1, 40),
    rank=st.integers(1, 9),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_gram_spectrum_counts_the_rank_of_a_product(seed, rows, cols, rank, scale):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    _, lam = spectrum_of(product_of_rank(rng, rows, cols, rank, scale))
    assert np.count_nonzero(lam) == rank
    assert np.all(lam[:rank] > 0.0)


@pytest.mark.parametrize("rows, cols", [(4, 4096), (8, 64), (32, 1024)])
@pytest.mark.parametrize("seed", range(4))
def test_gram_spectrum_reads_the_rank_of_long_products(rows, cols, seed):
    # the null eigenvalues of a long product's Gram come out near eps *
    # lambda_1, some above rows * eps * lambda_1; (rows + cols) * eps *
    # lambda_1 zeroes them, and a rank-deficient sum of Grams too
    rng = np.random.default_rng(seed)
    for rank in (1, rows // 2, rows - 1):
        mat = product_of_rank(rng, rows, cols, rank, 1.0)
        _, lam = spectrum_of(mat)
        assert np.count_nonzero(lam) == rank, rank
        halves = mat[:, : cols // 2], mat[:, cols // 2 :]
        total = sum(h @ h.T for h in halves)
        assert np.count_nonzero(gram_spectrum(total, cols)[1]) == rank, rank


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 6),
    rows=st.integers(1, 7),
    cols=st.integers(1, 20),
    mu=st.floats(0.05, 1.0),
)
def test_stacked_helpers_match_the_per_matrix_calls_bitwise(seed, count, rows, cols, mu):
    # stacks of Grams whose members differ in scale, rank and column count:
    # each batched result is the member's own, bit for bit
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, cols + 1, size=count)
    ranks = [int(rng.integers(1, min(rows, c) + 1)) for c in widths]
    scales = 10.0 ** rng.integers(-8, 9, size=count)
    mats = [product_of_rank(rng, rows, c, r, s) for c, r, s in zip(widths, ranks, scales)]
    stack = np.stack([m @ m.T for m in mats])
    u, lam = gram_spectrum(stack, widths)
    dims = select_dim(lam, mu)
    solo = [gram_spectrum(g, c) for g, c in zip(stack, widths)]
    for i, (ui, lami) in enumerate(solo):
        assert u[i].tobytes() == ui.tobytes() and lam[i].tobytes() == lami.tobytes()
        assert dims[i] == select_dim(lami, mu)
    top = int(np.count_nonzero(lam, axis=-1).min())
    for k in range(1, top + 1):
        out = leading_basis(u, lam, k)
        # a copy, so that the batched U need not stay alive with the bases
        assert out.flags.c_contiguous and (k == u.shape[-1] or not np.shares_memory(out, u))
        for i, (ui, lami) in enumerate(solo):
            assert out[i].tobytes() == leading_basis(ui, lami, k).tobytes()
    if top < u.shape[-1]:
        with pytest.raises(DegeneracyError, match=f"numerical rank is {top}"):
            leading_basis(u, lam, top + 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(["symmetric", "diagonal", "zero"]), min_size=1, max_size=5),
)
@example(seed=1, d=4, kinds=["symmetric", "diagonal", "symmetric"])
@example(seed=1, d=3, kinds=["symmetric"])
def test_eigh_descending_equals_the_stable_gathers_bitwise(seed, d, kinds):
    # `eigh` returns ascending eigenvalues. Where none is exactly repeated,
    # the descending pairs are their reversal; where one is, the stable
    # gathers keep tied vectors in `eigh`'s order. Either way each matrix,
    # alone or in a stack that mixes tied and untied members, gets the
    # gathers' bits. A diagonal of d >= 4 entries from {0, 1, 2} repeats one
    rng = np.random.default_rng(seed)

    def member(kind):
        if kind == "symmetric":
            a = rng.standard_normal((d, d))
            return a + a.T
        return np.diag(rng.integers(0, 3, size=d) * (kind == "diagonal")).astype(float)

    stack = np.stack([member(kind) for kind in kinds])
    for matrix in (*stack, stack):
        got, want = eigh_descending(matrix), gathered_eigh_descending(matrix)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    if d >= 4 and "diagonal" in kinds:
        assert np.any(np.diff(np.linalg.eigh(stack)[0], axis=-1) == 0.0)


@pytest.mark.parametrize("exponent", [-1000, -300, -40, 40, 300, 1000])
def test_gram_spectrum_is_exact_under_a_power_of_two(exponent, rng):
    # each Gram is scaled by the power of two of its trace before `eigh`, so
    # a power of two of the Gram, which is exact while every entry stays
    # normal, leaves every bit of the spectrum unchanged
    stack = np.stack([m @ m.T for m in rng.standard_normal((3, 5, 7))])
    scaled = np.ldexp(stack, exponent)
    assert np.isfinite(scaled).all() and np.min(np.abs(scaled)) >= np.finfo(float).tiny
    for a, b in zip(gram_spectrum(stack, 7), gram_spectrum(scaled, 7)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (4, 4)])
def test_gram_spectrum_rejects_zero_and_non_finite_grams(shape):
    rows, cols = shape
    with pytest.raises(DegeneracyError, match="all-zero"):
        gram_spectrum(np.zeros((rows, rows)), cols)
    # one all-zero member makes the whole stack degenerate
    with pytest.raises(DegeneracyError):
        gram_spectrum(np.stack([np.eye(rows), np.zeros((rows, rows))]), cols)
    for bad in (np.nan, np.inf, -np.inf):
        gram = np.eye(rows)
        gram[-1, -1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            gram_spectrum(gram, cols)
    # a rank-one matrix has no second basis vector, whatever its shape
    rank1 = np.outer(np.arange(1.0, rows + 1), np.arange(1.0, cols + 1))
    with pytest.raises(DegeneracyError, match="numerical rank is 1"):
        leading_basis(*spectrum_of(rank1), 2)


@pytest.mark.parametrize(
    "values,mu,expected",
    [
        ((9.0, 1.0), 0.90, 1),
        ((1.0, 1.0, 1.0, 1.0), 0.90, 4),
        ((9.0, 1.0, 0.0), 1.0, 2),  # mu = 1 reaches the rank, not the length
        ((5.0, 3.0, 2.0), 1.0, 3),
    ],
)
def test_select_dim_cases(values, mu, expected):
    assert select_dim(np.array(values), mu) == expected


def test_select_dim_errors():
    with pytest.raises(DegeneracyError):
        select_dim(np.zeros(3), 0.9)
    with pytest.raises(ValueError):
        select_dim(np.array([1.0]), 0.0)
    with pytest.raises(ValueError, match="non-increasing"):
        select_dim(np.array([1.0, 2.0]), 0.9)
    with pytest.raises(ValueError, match="non-negative"):
        select_dim(np.array([1.0, -0.1]), 0.9)
    # a stack is checked row by row
    assert select_dim(np.array([[9.0, 1.0], [1.0, 1.0]]), 0.9).tolist() == [1, 2]
    with pytest.raises(ValueError, match="non-increasing"):
        select_dim(np.array([[2.0, 1.0], [1.0, 2.0]]), 0.9)
    with pytest.raises(DegeneracyError):
        select_dim(np.array([[2.0, 1.0], [0.0, 0.0]]), 0.9)
    with pytest.raises(DimensionError):
        select_dim(np.zeros((2, 0)), 0.9)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mu1=st.floats(0.05, 1.0),
    mu2=st.floats(0.05, 1.0),
)
def test_select_dim_monotone_in_mu(seed, mu1, mu2):
    lam = np.sort(np.random.default_rng(seed).uniform(0.01, 1.0, size=6))[::-1]
    lo, hi = sorted([mu1, mu2])
    assert select_dim(lam, lo) <= select_dim(lam, hi)


def test_canonical_angles_analytic_r3():
    p, q = r3_pair()
    angles = np.arccos(canonical_correlations(p, q))
    assert abs(angles[0] - 0.0) <= 1e-12
    assert abs(angles[1] - math.pi / 4) <= 1e-12
    assert abs(np.mean(angles) - math.pi / 8) <= 1e-12
    assert abs(geodesic_distance(p, q) - math.pi / 4) <= 1e-12


def test_canonical_angles_identical_and_orthogonal():
    e = np.eye(3)
    p = Subspace(e[:, :1])
    assert np.all(np.arccos(canonical_correlations(p, p)) == 0.0)
    q = Subspace(e[:, 1:2])
    assert abs(np.arccos(canonical_correlations(p, q))[0] - math.pi / 2) <= 1e-12
    assert geodesic_distance(p, p) == 0.0
    assert abs(geodesic_distance(p, q) - math.pi / 2) <= 1e-12
    assert np.mean(np.arccos(canonical_correlations(p, p))) == 0.0
    assert abs(np.mean(np.arccos(canonical_correlations(p, q))) - math.pi / 2) <= 1e-12


def test_canonical_correlations_ambient_mismatch():
    with pytest.raises(DimensionError):
        canonical_correlations(Subspace(np.eye(3)[:, :1]), Subspace(np.eye(4)[:, :1]))


def test_canonical_correlations_count_bounds(rng):
    p = random_subspace(rng, 5, 2)
    q = random_subspace(rng, 5, 3)
    assert canonical_correlations(p, q).shape == (2,)
    with pytest.raises(DimensionError):
        canonical_correlations(p, q, count=3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_canonical_angles_symmetry_and_basis_invariance(seed):
    rng = np.random.default_rng(seed)
    p = random_subspace(rng, 6, 2)
    q = random_subspace(rng, 6, 3)
    a1 = np.arccos(canonical_correlations(p, q))
    a2 = np.arccos(canonical_correlations(q, p))
    assert np.max(np.abs(a1 - a2)) <= 1e-12
    r1 = random_orthonormal(rng, 2, 2)
    r2 = random_orthonormal(rng, 3, 3)
    rotated = np.arccos(
        canonical_correlations(Subspace(p.basis @ r1), Subspace(q.basis @ r2))
    )
    assert np.max(np.abs(a1 - rotated)) <= 1e-10


def test_correlations_clamped(rng):
    p = random_subspace(rng, 5, 3)
    # same span through a rotation; raw singular values may top 1 by rounding
    r = random_orthonormal(rng, 3, 3)
    correlations = canonical_correlations(p, Subspace(p.basis @ r))
    assert np.all(correlations <= 1.0)
    assert np.all(np.arccos(correlations) == 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_geodesic_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    p, q, s = (random_subspace(rng, 5, 2) for _ in range(3))
    assert geodesic_distance(p, q) <= (
        geodesic_distance(p, s) + geodesic_distance(s, q) + 1e-9
    )


EPS = np.finfo(np.float64).eps
KINDS = ("random", "zero", "rank-1", "rotation", "reflection", "cross", "near")


def two_by_two(rng, kind):
    """One 2 x 2 matrix of a kind that stresses a closed-form SVD: zero,
    rank-1, equal values (c times a rotation), det < 0 with equal values
    (c times a reflection), or the cross product of two orthonormal bases,
    random or nearly equal (cosines near 1)."""
    t = rng.uniform(0.0, 2.0 * math.pi)
    rot = rng.uniform(0.1, 10.0) * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    d = int(rng.integers(2, 7))
    y = random_orthonormal(rng, d, 2)
    near = np.linalg.qr(y + 10.0 ** -rng.uniform(3, 12) * rng.standard_normal((d, 2)))[0]
    return {
        "random": lambda: rng.standard_normal((2, 2)),
        "zero": lambda: np.zeros((2, 2)),
        "rank-1": lambda: np.outer(rng.standard_normal(2), rng.standard_normal(2)),
        "rotation": lambda: rot,
        "reflection": lambda: rot @ np.diag([1.0, -1.0]),
        "cross": lambda: y.T @ random_orthonormal(rng, d, 2),
        "near": lambda: y.T @ near,
    }[kind]()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
)
def test_closed_form_2x2_svd_matches_lapack(seed, kinds, scale):
    rng = np.random.default_rng(seed)
    m = np.stack([two_by_two(rng, kind) for kind in kinds]) * scale
    u, s, vt = cross_svd(m)
    want = np.linalg.svd(m, compute_uv=False)
    top = want[:, :1]  # LAPACK's s_1 per matrix
    assert np.all(s >= 0.0) and np.all(s[:, 0] >= s[:, 1])
    assert np.all(np.abs(s - want) <= 8 * EPS * top)
    eye = np.eye(2)
    assert np.max(np.abs(np.swapaxes(u, 1, 2) @ u - eye)) <= 8 * EPS
    assert np.max(np.abs(vt @ np.swapaxes(vt, 1, 2) - eye)) <= 8 * EPS
    assert np.all(np.abs((u * s[:, None, :]) @ vt - m) <= 8 * EPS * top[:, :, None])
    # the values alone are the same bits, and a matrix gets the same bits
    # alone as in any stack, so batched and per-set loops agree bitwise
    assert cross_svd(m, compute_uv=False).tobytes() == s.tobytes()
    for i, mat in enumerate(m):
        alone = cross_svd(mat)
        assert [a.tobytes() for a in alone] == [u[i].tobytes(), s[i].tobytes(), vt[i].tobytes()]


@pytest.mark.parametrize("shape", [(3, 3), (4, 2, 3), (2, 3), (5, 1, 1), (2, 3, 3)])
def test_cross_svd_takes_lapack_for_every_other_shape(shape, rng):
    m = rng.standard_normal(shape)
    for got, want in zip(cross_svd(m), np.linalg.svd(m)):
        assert got.tobytes() == want.tobytes()
    assert cross_svd(m, compute_uv=False).tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (3, 3)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("compute_uv", [True, False])
def test_cross_svd_of_a_non_finite_matrix_raises(shape, value, compute_uv):
    # the closed form raises where LAPACK does, on a nan, instead of
    # returning nan values; on both paths an infinity raises too, where
    # LAPACK alone returns nan values
    m = np.ones(shape)
    m.flat[-1] = value
    if math.isnan(value):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(m, compute_uv=compute_uv)
    with pytest.raises(np.linalg.LinAlgError):
        cross_svd(m, compute_uv=compute_uv)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgds import (
    DegeneracyError,
    DimensionError,
    SingularSpectrum,
    Subspace,
    basis_from_unfolding,
    geodesic_distance,
    mean_canonical_angle,
    principal_angles,
    projector,
    select_dim,
)
from tensorgds.subspace import left_singular, lq_factor
from conftest import random_orthonormal, random_subspace


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


def test_basis_dominant_direction():
    mat = np.column_stack([3.0 * np.eye(4)[:, 0], 1.0 * np.eye(4)[:, 1]])
    s = basis_from_unfolding(mat, dim=1)
    assert np.allclose(np.abs(s.basis.ravel()), np.eye(4)[:, 0])


def test_basis_identity_energy_selects_all():
    s = basis_from_unfolding(np.eye(4), energy=0.90)
    assert s.dim == 4


def test_basis_errors():
    with pytest.raises(DegeneracyError):
        basis_from_unfolding(np.zeros((3, 5)), dim=1)
    rank1 = np.outer(np.arange(1.0, 4.0), np.arange(1.0, 6.0))
    with pytest.raises(DegeneracyError):
        basis_from_unfolding(rank1, dim=2)  # beyond numerical rank
    with pytest.raises(ValueError):
        basis_from_unfolding(np.eye(3))  # neither dim nor energy
    with pytest.raises(ValueError):
        basis_from_unfolding(np.eye(3), dim=1, energy=0.9)


EPS = np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 9),
    cols=st.integers(1, 40),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_left_singular_matches_the_direct_svd(seed, rows, cols, scale):
    # the R-factor route against np.linalg.svd on wide, tall and square
    # matrices: the same singular values and, wherever the spectrum has a
    # gap, the same leading subspaces
    mat = scale * np.random.default_rng(seed).standard_normal((rows, cols))
    u, lam = left_singular(mat)
    w, s, _ = np.linalg.svd(mat, full_matrices=False)
    assert u.shape == w.shape and lam.shape == s.shape
    assert np.max(np.abs(np.sqrt(lam) - s)) <= 64 * EPS * s[0]
    assert np.allclose(u.T @ u, np.eye(u.shape[1]), rtol=0.0, atol=1e-13)
    assert np.array_equal(lq_factor(mat), np.tril(lq_factor(mat)))
    for k in range(1, s.size):
        gap = s[k - 1] - s[k]
        if gap > 1e-6 * s[0]:
            diff = u[:, :k] @ u[:, :k].T - w[:, :k] @ w[:, :k].T
            assert np.linalg.norm(diff, 2) <= 256 * EPS * s[0] / gap


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 9),
    cols=st.integers(1, 40),
    rank=st.integers(1, 9),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_left_singular_counts_the_rank_of_a_product(seed, rows, cols, rank, scale):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    mat = scale * rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    _, lam = left_singular(mat)
    assert np.count_nonzero(lam) == rank
    assert np.all(lam[:rank] > 0.0)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (4, 4)])
def test_left_singular_rejects_zero_and_empty_matrices(shape):
    with pytest.raises(DegeneracyError):
        left_singular(np.zeros(shape))
    with pytest.raises(DimensionError):
        left_singular(np.zeros((shape[0], 0)))
    with pytest.raises(DimensionError):
        left_singular(np.zeros(shape[0]))


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
    assert select_dim(SingularSpectrum(np.array(values)), mu) == expected


def test_select_dim_errors():
    with pytest.raises(DegeneracyError):
        select_dim(SingularSpectrum(np.zeros(3)), 0.9)
    with pytest.raises(ValueError):
        select_dim(SingularSpectrum(np.array([1.0])), 0.0)
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, -0.1]))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mu1=st.floats(0.05, 1.0),
    mu2=st.floats(0.05, 1.0),
)
def test_select_dim_monotone_in_mu(seed, mu1, mu2):
    lam = np.sort(np.random.default_rng(seed).uniform(0.01, 1.0, size=6))[::-1]
    spec = SingularSpectrum(lam)
    lo, hi = sorted([mu1, mu2])
    assert select_dim(spec, lo) <= select_dim(spec, hi)


def test_principal_angles_analytic_r3():
    p, q = r3_pair()
    spec = principal_angles(p, q)
    assert abs(spec.angles[0] - 0.0) <= 1e-12
    assert abs(spec.angles[1] - math.pi / 4) <= 1e-12
    assert abs(mean_canonical_angle(p, q) - math.pi / 8) <= 1e-12
    assert abs(geodesic_distance(p, q) - math.pi / 4) <= 1e-12


def test_principal_angles_identical_and_orthogonal():
    e = np.eye(3)
    p = Subspace(e[:, :1])
    assert np.all(principal_angles(p, p).angles == 0.0)
    q = Subspace(e[:, 1:2])
    assert abs(principal_angles(p, q).angles[0] - math.pi / 2) <= 1e-12
    assert geodesic_distance(p, p) == 0.0
    assert abs(geodesic_distance(p, q) - math.pi / 2) <= 1e-12
    assert mean_canonical_angle(p, p) == 0.0
    assert abs(mean_canonical_angle(p, q) - math.pi / 2) <= 1e-12


def test_principal_angles_ambient_mismatch():
    with pytest.raises(DimensionError):
        principal_angles(Subspace(np.eye(3)[:, :1]), Subspace(np.eye(4)[:, :1]))


def test_principal_angles_count_bounds(rng):
    p = random_subspace(rng, 5, 2)
    q = random_subspace(rng, 5, 3)
    assert principal_angles(p, q).angles.shape == (2,)
    with pytest.raises(DimensionError):
        principal_angles(p, q, count=3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_principal_angles_symmetry_and_basis_invariance(seed):
    rng = np.random.default_rng(seed)
    p = random_subspace(rng, 6, 2)
    q = random_subspace(rng, 6, 3)
    a1 = principal_angles(p, q).angles
    a2 = principal_angles(q, p).angles
    assert np.max(np.abs(a1 - a2)) <= 1e-12
    r1 = random_orthonormal(rng, 2, 2)
    r2 = random_orthonormal(rng, 3, 3)
    rotated = principal_angles(
        Subspace(p.basis @ r1), Subspace(q.basis @ r2)
    ).angles
    assert np.max(np.abs(a1 - rotated)) <= 1e-10


def test_correlations_clamped(rng):
    p = random_subspace(rng, 5, 3)
    # same span through a rotation; raw singular values may top 1 by rounding
    r = random_orthonormal(rng, 3, 3)
    spec = principal_angles(p, Subspace(p.basis @ r))
    assert np.all(spec.correlations <= 1.0)
    assert np.all(spec.angles == 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_geodesic_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    p, q, s = (random_subspace(rng, 5, 2) for _ in range(3))
    assert geodesic_distance(p, q) <= (
        geodesic_distance(p, s) + geodesic_distance(s, q) + 1e-9
    )


def test_projector_properties(rng):
    e = np.eye(2)
    assert np.array_equal(projector(Subspace(e[:, :1])), np.array([[1.0, 0.0], [0.0, 0.0]]))
    p = random_subspace(rng, 6, 3)
    pr = projector(p)
    assert np.linalg.norm(pr @ pr - pr) <= 1e-10
    assert abs(np.trace(pr) - 3.0) <= 1e-10

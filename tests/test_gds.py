import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorgds import (
    DegeneracyError,
    DimensionError,
    Subspace,
    gds_from_gram,
    mode_gram,
    project_onto_gds,
)
from tensorgds.gds import full_band
from tensorgds.subspace import canonical_correlations, eigh_descending, fix_column_signs
from conftest import random_subspace


def unit(v):
    v = np.asarray(v, dtype=float)
    return Subspace((v / np.linalg.norm(v))[:, None])


def gram_matrix(band):
    """The Gram matrix whose spectrum the band holds."""
    return (band.eigvecs * band.eigvals) @ band.eigvecs.T


def band_of(matrix, mode=1):
    """The full band of a given symmetric Gram matrix."""
    evals, evecs = eigh_descending(matrix)
    return full_band(mode, fix_column_signs(evecs), evals)


def test_mode_gram_orthogonal_lines():
    e = np.eye(2)
    g = mode_gram([unit(e[:, 0]), unit(e[:, 1])], mode=1)
    assert np.allclose(gram_matrix(g), 0.5 * np.eye(2), rtol=0, atol=1e-15)


def test_mode_gram_identical_subspaces(rng):
    s = random_subspace(rng, 5, 2)
    g = mode_gram([s, s, s], mode=2)
    assert np.allclose(gram_matrix(g), s.basis @ s.basis.T, rtol=0, atol=1e-14)


def test_mode_gram_closed_form_pair():
    # two unit vectors at angle pi/3: eigenvalues are (1 +- cos)/2,
    # checked against a dense eigen-decomposition as the oracle
    theta = math.pi / 3
    u1 = unit([1.0, 0.0])
    u2 = unit([math.cos(theta), math.sin(theta)])
    g = mode_gram([u1, u2], mode=1)
    expected = np.sort([(1 + math.cos(theta)) / 2, (1 - math.cos(theta)) / 2])
    assert np.allclose(np.sort(g.eigvals), expected, atol=1e-12)
    assert np.allclose(np.sort(g.eigvals), [0.25, 0.75], atol=1e-12)


def test_mode_gram_takes_a_stack_or_subspaces_of_one_shape(rng):
    subs = [random_subspace(rng, 6, 2) for _ in range(3)]
    g = mode_gram(subs, mode=2)
    h = mode_gram(np.stack([s.basis for s in subs]), mode=2)
    assert (g.alpha, g.beta, g.mode) == (1, g.rank, 2)
    assert np.array_equal(g.eigvecs, h.eigvecs) and np.array_equal(g.eigvals, h.eigvals)


def test_mode_gram_errors(rng):
    s = random_subspace(rng, 4, 2)
    with pytest.raises(DimensionError):
        mode_gram([s], mode=1)
    with pytest.raises(DimensionError):
        mode_gram([s, random_subspace(rng, 5, 2)], mode=1)
    with pytest.raises(DimensionError):  # one stack: every class has one dimension
        mode_gram([s, random_subspace(rng, 4, 1)], mode=1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mode_gram_eigenvalue_bounds(seed):
    rng = np.random.default_rng(seed)
    k = rng.integers(1, 4)
    subs = [random_subspace(rng, 6, k) for _ in range(4)]
    evals = mode_gram(subs, mode=1).eigvals
    assert np.all(evals >= -1e-10)
    assert np.all(evals <= 1.0 + 1e-10)


def test_gds_flat_spectrum_single_column():
    g = band_of(0.5 * np.eye(2))
    basis = gds_from_gram(g, alpha=2)
    assert basis.rank == 2 and basis.beta == 2
    assert basis.basis.shape == (2, 1)
    assert abs(np.linalg.norm(basis.basis) - 1.0) <= 1e-12


def test_gds_difference_direction():
    theta = math.pi / 3
    u1 = np.array([1.0, 0.0])
    u2 = np.array([math.cos(theta), math.sin(theta)])
    g = mode_gram([unit(u1), unit(u2)], mode=1)
    basis = gds_from_gram(g, alpha=2)
    diff = (u1 - u2) / np.linalg.norm(u1 - u2)
    assert abs(abs(float(basis.basis.ravel() @ diff)) - 1.0) <= 1e-12


def test_gds_four_dim_diagonal_gram():
    e = np.eye(4)
    p1 = Subspace(e[:, [0, 1]])
    p2 = Subspace(e[:, [0, 2]])
    g = mode_gram([p1, p2], mode=1)
    assert np.allclose(gram_matrix(g), np.diag([1.0, 0.5, 0.5, 0.0]), atol=1e-15)
    basis = gds_from_gram(g, alpha=2)
    assert basis.rank == 3
    got = basis.basis @ basis.basis.T
    want = e[:, [1, 2]] @ e[:, [1, 2]].T
    assert np.linalg.norm(got - want) <= 1e-12


def test_gds_argument_errors():
    e = np.eye(4)
    g = mode_gram([Subspace(e[:, [0, 1]]), Subspace(e[:, [0, 2]])], mode=1)
    with pytest.raises(DimensionError):
        gds_from_gram(g, alpha=0)
    with pytest.raises(DimensionError):
        gds_from_gram(g, alpha=4)  # beyond rank 3
    with pytest.raises(DimensionError):
        gds_from_gram(g, alpha=3, beta=2)
    assert gds_from_gram(g, alpha=1).beta == 3  # beta defaults to the rank


def test_gds_deterministic_signs(rng):
    subs = [random_subspace(rng, 6, 2) for _ in range(3)]
    g = mode_gram(subs, mode=1)
    b1 = gds_from_gram(g, alpha=1)
    b2 = gds_from_gram(g, alpha=1)
    assert np.array_equal(b1.eigvecs, b2.eigvecs)
    assert np.array_equal(b1.eigvals, b2.eigvals)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gds_bands_share_the_gram_eigenpairs(seed):
    rng = np.random.default_rng(seed)
    k = rng.integers(1, 4)
    g = mode_gram([random_subspace(rng, 6, k) for _ in range(3)], mode=1)
    for alpha in range(1, g.rank + 1):
        band = gds_from_gram(g, alpha)
        assert band.eigvecs is g.eigvecs and band.eigvals is g.eigvals
        assert band.rank == g.rank
        assert np.array_equal(band.basis, g.eigvecs[:, alpha - 1 : g.rank])


def test_project_onto_gds_hand_example():
    # D = span{e2,e3}, P = span{e1,e2}: D^T [e1 e2] = [[0,1],[0,0]], so e1 is
    # annihilated and the projection is the first coordinate axis of D.
    e = np.eye(4)
    g = mode_gram([Subspace(e[:, [0, 1]]), Subspace(e[:, [0, 2]])], mode=1)
    d = gds_from_gram(g, alpha=2)
    p_hat = project_onto_gds(d, Subspace(e[:, [0, 1]]))
    assert p_hat.ambient_dim == 2 and p_hat.dim == 1
    assert np.allclose(np.abs(p_hat.basis.ravel()), [1.0, 0.0], atol=1e-12)


def test_project_identity_basis_preserves_span(rng):
    subs = [random_subspace(rng, 5, 2) for _ in range(3)]
    g = band_of(np.eye(5) * 0.5)
    d = gds_from_gram(g, alpha=1)  # full identity-like basis, width 5
    assert d.basis.shape[1] == 5
    for s in subs:
        mapped = project_onto_gds(d, s)
        back = Subspace(d.basis @ mapped.basis).basis
        assert np.linalg.norm(back @ back.T - s.basis @ s.basis.T) <= 1e-10


def test_project_orthogonal_subspace_errors():
    e = np.eye(4)
    g = mode_gram([Subspace(e[:, [0, 1]]), Subspace(e[:, [0, 2]])], mode=1)
    d = gds_from_gram(g, alpha=2)  # span{e2,e3}
    with pytest.raises(DegeneracyError):
        project_onto_gds(d, Subspace(e[:, [3]]))
    with pytest.raises(DegeneracyError):  # one orthogonal member fails the stack
        project_onto_gds(d, np.stack([e[:, [1]], e[:, [3]]]))
    with pytest.raises(DimensionError):
        project_onto_gds(d, np.eye(5)[None, :, :2])


def test_projection_idempotent_on_range(rng):
    subs = [random_subspace(rng, 6, 2) for _ in range(3)]
    g = mode_gram(subs, mode=1)
    d = gds_from_gram(g, alpha=1)
    inside = Subspace(d.basis[:, :2])  # contained in span(D)
    mapped = project_onto_gds(d, inside)
    back = Subspace(d.basis @ mapped.basis).basis
    assert np.linalg.norm(back @ back.T - inside.basis @ inside.basis.T) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 8),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_project_onto_gds_stack_rank_and_span(seed, d, n, data):
    # each basis spans k_in directions inside the band and k - k_in outside
    # it, so G^T U has rank k_in and a largest singular value of 1
    rng = np.random.default_rng(seed)
    k_gram = rng.integers(1, d + 1)
    g = mode_gram([random_subspace(rng, d, k_gram) for _ in range(3)], mode=1)
    band = gds_from_gram(g, data.draw(st.integers(1, g.rank), label="alpha"))
    inside = band.basis
    outside = np.delete(band.eigvecs, np.s_[band.alpha - 1 : band.beta], axis=1)
    w = inside.shape[1]
    k = data.draw(st.integers(1, d), label="k")
    k_in = [
        data.draw(st.integers(max(1, k - (d - w)), min(w, k)), label="k_in")
        for _ in range(n)
    ]
    stack = np.stack(
        [
            np.linalg.qr(
                np.hstack(
                    [
                        inside @ rng.standard_normal((w, j)),
                        outside @ rng.standard_normal((d - w, k - j)),
                    ]
                )
            )[0]
            for j in k_in
        ]
    )
    out = project_onto_gds(band, stack)
    assert len(out) == n
    for u, j, sub in zip(stack, k_in, out):
        coords = inside.T @ u
        assert sub.shape[0] == w
        assert sub.shape[1] == j == np.linalg.matrix_rank(coords, tol=1e-8)  # s_0 is 1
        assert np.max(np.abs(sub.T @ sub - np.eye(j))) <= 1e-12
        assert np.array_equal(project_onto_gds(band, Subspace(u)).basis, sub)
        if j == k:  # oracle: the QR basis of G G^T U spans the projection
            q = np.linalg.qr(inside @ coords)[0]
            lifted = inside @ sub
            assert np.max(np.abs(lifted @ lifted.T - q @ q.T)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(4, 9), classes=st.integers(2, 4))
@example(seed=375, d=7, classes=2)  # eigenvalue gap 4.5e-7, leak 3.2e-10
def test_projection_removes_an_exactly_shared_direction(seed, d, classes):
    # every class contains e, so e is a Gram eigenvector with eigenvalue 1;
    # the band from alpha = 2 excludes it and a sample containing e loses it.
    # How much of e the band keeps is an eigenvector error, about eps / gap
    # for the gap below the eigenvalue 1 (Davis-Kahan); 72,000 draws held
    # it within 0.8 d eps / gap
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(d)
    e /= np.linalg.norm(e)
    k = int(rng.integers(2, (d + 1) // 2 + 1))

    def containing_e(width):
        return Subspace(np.linalg.qr(np.column_stack([e, rng.standard_normal((d, width - 1))]))[0])

    g = mode_gram([containing_e(k) for _ in range(classes)], mode=1)
    assert abs(g.eigvals[0] - 1.0) <= 1e-12
    band = gds_from_gram(g, 2)
    gap = g.eigvals[0] - g.eigvals[1]
    assert np.max(np.abs(band.basis.T @ e)) <= 2 * d * np.finfo(float).eps / gap
    assert project_onto_gds(band, containing_e(k)).dim == k - 1


def test_quasi_orthogonalization():
    # shared direction e1 between span{e1,e2} and span{e1,e3}: projecting onto
    # span{e2,e3} lifts the mean canonical angle from pi/4 to pi/2
    e = np.eye(4)
    p = Subspace(e[:, [0, 1]])
    q = Subspace(e[:, [0, 2]])
    assert abs(np.mean(np.arccos(canonical_correlations(p, q))) - math.pi / 4) <= 1e-10
    d = gds_from_gram(mode_gram([p, q], mode=1), alpha=2)
    p_hat = project_onto_gds(d, p)
    q_hat = project_onto_gds(d, q)
    assert abs(np.mean(np.arccos(canonical_correlations(p_hat, q_hat))) - math.pi / 2) <= 1e-10

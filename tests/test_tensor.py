import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgds import (
    DenseTensor,
    DimensionError,
    fold,
    hosvd,
    mode_multiply,
    unfold,
)
from tensorgds.tensor import unfolding_gram
from conftest import random_tensor

dims_strategy = st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4)


def test_dense_tensor_invariants():
    with pytest.raises(DimensionError):
        DenseTensor(np.zeros(3))  # order 1
    with pytest.raises(DimensionError):
        DenseTensor(np.zeros((2,) * 9))  # order 9
    t = DenseTensor(np.zeros((2, 3)))
    assert t.dims == (2, 3) and t.order == 2 and t.size == 6


def test_unfold_mode1_hand_enumerated():
    # 2x2x2 tensor with entries 1..8 in canonical order (last index fastest);
    # the expected matrix is built by enumerating the column-index map
    # j = (i2 - 1) + (i3 - 1) * I2 entry by entry.
    t = DenseTensor(np.arange(1.0, 9.0).reshape(2, 2, 2))
    expected = np.zeros((2, 4))
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                expected[i1, i2 + i3 * 2] = t.data[i1, i2, i3]
    got = unfold(t, 1)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, np.array([[1, 3, 2, 4], [5, 7, 6, 8]], dtype=float))


def test_unfold_all_modes_match_index_formula(rng):
    t = random_tensor(rng, (3, 4, 2, 5))
    dims = t.dims
    for mode in range(1, 5):
        got = unfold(t, mode)
        k = mode - 1
        assert type(got) is np.ndarray and got.shape == (dims[k], t.size // dims[k])
        other = [ax for ax in range(4) if ax != k]
        for idx in np.ndindex(*dims):
            j = 0
            stride = 1
            for ax in other:
                j += idx[ax] * stride
                stride *= dims[ax]
            assert got[idx[k], j] == t.data[idx]


def test_unfold_mode_out_of_range(rng):
    t = random_tensor(rng, (2, 3))
    for mode in (0, 3, -1):
        with pytest.raises(DimensionError):
            unfold(t, mode)


@settings(max_examples=60, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_unfolding_gram_is_the_gram_of_the_unfolding(dims, seed, data):
    # extents of 1 before, at and after the mode included
    mode = data.draw(st.integers(1, len(dims)))
    t = DenseTensor(np.random.default_rng(seed).standard_normal(dims))
    gram, exponent = unfolding_gram(t, mode)
    x = unfold(t, mode)
    want = x @ x.T
    assert gram.shape == want.shape and exponent == 0
    err = np.max(np.abs(np.ldexp(gram, exponent) - want))
    assert err <= 2 * x.shape[1] * np.finfo(float).eps * np.trace(want)


@pytest.mark.parametrize("k", [-900, -700, -300, -40, 40, 300, 700, 900])
def test_unfolding_gram_is_exact_under_a_power_of_two(rng, k):
    # beyond about 2^+-450 the unscaled Gram would overflow or underflow, and
    # the data is scaled first; either way 2^k times the data moves the Gram
    # by a power of two only
    t = random_tensor(rng, (3, 4, 5))
    scaled = DenseTensor(np.ldexp(t.data, k))
    assert np.min(np.abs(scaled.data)) >= np.finfo(float).tiny
    for mode in (1, 2, 3):
        gram, exponent = unfolding_gram(t, mode)
        got, got_exponent = unfolding_gram(scaled, mode)
        assert exponent == 0 and (got_exponent == 0) == (abs(k) < 450)
        assert np.ldexp(got, got_exponent - 2 * k).tobytes() == gram.tobytes()


def test_unfolding_gram_of_zero_and_non_finite_tensors():
    gram, exponent = unfolding_gram(DenseTensor(np.zeros((2, 3, 4))), 2)
    assert not gram.any() and exponent == 0
    for bad in (np.nan, np.inf):
        data = np.ones((2, 3, 4))
        data[1, 1, 1] = bad
        for mode in (1, 2, 3):
            assert not np.isfinite(unfolding_gram(DenseTensor(data), mode)[0]).all()


def test_fold_of_hand_enumerated_matrix():
    mat = np.array([[1, 3, 2, 4], [5, 7, 6, 8]], dtype=float)
    t = fold(mat, 1, (2, 2, 2))
    assert np.array_equal(t.data.ravel(), np.arange(1.0, 9.0))


def test_fold_shape_mismatch():
    with pytest.raises(DimensionError):
        fold(np.zeros((2, 5)), 1, (2, 2, 2))


@settings(max_examples=40, deadline=None)
@given(dims=dims_strategy, mode=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1))
def test_unfold_fold_roundtrip_exact(dims, mode, seed):
    if mode > len(dims):
        mode = 1 + (mode - 1) % len(dims)
    t = DenseTensor(np.random.default_rng(seed).standard_normal(dims))
    back = fold(unfold(t, mode), mode, dims)
    assert np.array_equal(back.data, t.data)


def test_rank1_unfoldings_have_rank_one(rng):
    a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(3)
    t = DenseTensor(np.einsum("i,j,k->ijk", a, b, c))
    for mode in (1, 2, 3):
        s = np.linalg.svd(unfold(t, mode), compute_uv=False)
        assert s[1] < 1e-12


def test_mode_multiply_identity_and_scaling(rng):
    t = random_tensor(rng, (3, 4, 5))
    for mode in (1, 2, 3):
        same = mode_multiply(t, np.eye(t.dims[mode - 1]), mode)
        assert np.array_equal(same.data, t.data)
    doubled = mode_multiply(t, 2.0 * np.eye(3), 1)
    assert np.allclose(doubled.data, 2.0 * t.data, rtol=0, atol=0)


def test_mode_multiply_wrong_width(rng):
    t = random_tensor(rng, (3, 4, 5))
    with pytest.raises(DimensionError):
        mode_multiply(t, np.zeros((2, 4)), 1)


def test_mode_multiply_commutes_across_modes(rng):
    t = random_tensor(rng, (3, 4, 5))
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((2, 4))
    left = mode_multiply(mode_multiply(t, a, 1), b, 2)
    right = mode_multiply(mode_multiply(t, b, 2), a, 1)
    assert np.max(np.abs(left.data - right.data)) < 1e-12


def test_hosvd_reconstructs_random_tensor(rng):
    t = random_tensor(rng, (6, 7, 8))
    dec = hosvd(t)
    for u in dec.factors:
        assert u.shape[0] == u.shape[1]
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[0])) < 1e-10
    err = np.linalg.norm(dec.reconstruct().data - t.data) / np.linalg.norm(t.data)
    assert err <= 1e-10


@pytest.mark.parametrize("dims", [(4, 4, 4), (10, 10, 10), (5, 3, 7, 2)])
def test_hosvd_reconstruction_bound(dims):
    t = random_tensor(np.random.default_rng(sum(dims)), dims)
    dec = hosvd(t)
    err = np.linalg.norm(dec.reconstruct().data - t.data) / np.linalg.norm(t.data)
    assert err <= 1e-10


def test_hosvd_zero_tensor():
    t = DenseTensor(np.zeros((3, 4, 2)))
    dec = hosvd(t)
    assert np.all(dec.core.data == 0)
    for u in dec.factors:
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[0])) < 1e-10
    assert np.array_equal(dec.reconstruct().data, t.data)


def test_hosvd_rank1_core_single_entry(rng):
    a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(3)
    t = DenseTensor(np.einsum("i,j,k->ijk", a, b, c))
    # independent oracle for the Frobenius norm of an outer product
    expected_norm = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
    core = hosvd(t).core.data
    big = np.abs(core) > 1e-10
    assert big.sum() == 1
    assert np.isclose(np.abs(core[big][0]), expected_norm, rtol=0, atol=1e-10)


def test_mode3_reversal_ordering_sensitivity(rng):
    # Reversing the slice order along mode 3 permutes the rows of the mode-3
    # unfolding, so the row-sample autocorrelation X3^T X3 is unchanged, while
    # the analogous autocorrelation of another mode's unfolding changes.
    t = random_tensor(rng, (5, 5, 5))
    rev = DenseTensor(t.data[:, :, ::-1])

    def row_autocorr_projector(tensor, mode, k=3):
        x = unfold(tensor, mode)
        a = x.T @ x
        evals, evecs = np.linalg.eigh(a)
        u = evecs[:, np.argsort(-evals)[:k]]
        return u @ u.T

    diff3 = np.linalg.norm(
        row_autocorr_projector(t, 3) - row_autocorr_projector(rev, 3)
    )
    assert diff3 <= 1e-10
    other = max(
        np.linalg.norm(row_autocorr_projector(t, m) - row_autocorr_projector(rev, m))
        for m in (1, 2)
    )
    assert other >= 1e-3

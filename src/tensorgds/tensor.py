"""Dense n-mode tensors: mode-k unfolding/folding, mode products, and HOSVD."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DegeneracyError, DimensionError

MAX_ORDER = 8


@dataclass(frozen=True)
class DenseTensor:
    """Dense real tensor with 2 to 8 modes.

    Data is stored as a float64 C-order array (last index fastest) and is
    frozen after construction so instances can be shared across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, order="C")
        if arr.ndim < 2 or arr.ndim > MAX_ORDER:
            raise DimensionError(
                f"tensor order must be between 2 and {MAX_ORDER}, got {arr.ndim}"
            )
        if any(e < 1 for e in arr.shape):
            raise DimensionError(f"every extent must be >= 1, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size


@dataclass(frozen=True)
class HosvdDecomposition:
    """Core tensor plus one square orthonormal factor per mode."""

    core: DenseTensor
    factors: tuple[np.ndarray, ...]

    def reconstruct(self) -> DenseTensor:
        out = self.core
        for mode, factor in enumerate(self.factors, start=1):
            out = mode_multiply(out, factor, mode)
        return out


def _check_mode(mode: int, order: int) -> int:
    if not 1 <= mode <= order:
        raise DimensionError(f"mode must be in 1..{order}, got {mode}")
    return mode - 1


def unfold(tensor: DenseTensor, mode: int) -> np.ndarray:
    """Unfold along `mode` (1-based) into an (I_mode, product of the other
    extents) matrix: rows are indexed by the selected mode, columns by the
    remaining modes with lower-numbered modes varying fastest (the
    Kolda-Bader column ordering).

    Entry (i_mode, j) equals tensor[i_1, ..., i_n] with the column index
    j = sum over m != mode of i_m * J_m, where J_m multiplies the extents of
    all lower-numbered modes other than `mode` (0-based indices).
    """
    k = _check_mode(mode, tensor.order)
    return np.moveaxis(tensor.data, k, 0).reshape((tensor.dims[k], -1), order="F")


def fold(matrix: np.ndarray, mode: int, dims) -> DenseTensor:
    """Inverse of `unfold`: rebuild the tensor with extents `dims`."""
    mat = np.asarray(matrix, dtype=np.float64)
    dims = tuple(int(d) for d in dims)
    k = _check_mode(mode, len(dims))
    other = dims[:k] + dims[k + 1:]
    if mat.ndim != 2 or mat.shape != (dims[k], prod(other)):
        raise DimensionError(
            f"matrix shape {mat.shape} inconsistent with dims {dims} at mode {mode}"
        )
    arr = mat.reshape((dims[k],) + other, order="F")
    return DenseTensor(np.moveaxis(arr, 0, k))


def mode_multiply(tensor: DenseTensor, factor: np.ndarray, mode: int) -> DenseTensor:
    """Multiply the mode-`mode` fibers by `factor` (a J x I_mode matrix)."""
    fac = np.asarray(factor, dtype=np.float64)
    if fac.ndim != 2:
        raise DimensionError(f"factor must be 2-D, got {fac.ndim}-D")
    k = _check_mode(mode, tensor.order)
    if fac.shape[1] != tensor.dims[k]:
        raise DimensionError(
            f"factor has {fac.shape[1]} columns but mode {mode} extent is {tensor.dims[k]}"
        )
    new_dims = list(tensor.dims)
    new_dims[k] = fac.shape[0]
    return fold(fac @ unfold(tensor, mode), mode, new_dims)


def hosvd(tensor: DenseTensor) -> HosvdDecomposition:
    """Full higher-order SVD.

    Each factor is the complete left-singular basis of the corresponding
    unfolding; the core is the tensor multiplied by every transposed factor.
    The product of the core with the factors reproduces the input.
    """
    factors = []
    for mode in range(1, tensor.order + 1):
        try:
            u, _, _ = np.linalg.svd(unfold(tensor, mode), full_matrices=True)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(f"SVD failed on the mode-{mode} unfolding") from exc
        factors.append(u)
    core = tensor
    for mode, u in enumerate(factors, start=1):
        core = mode_multiply(core, u.T, mode)
    return HosvdDecomposition(core=core, factors=tuple(factors))

"""Dense tensor algebra: unfolding, mode products and Tucker assembly.

All tensors are ``numpy.float64`` arrays stored in C order (row major, last
mode varies fastest).  ``unfold(T, m)`` moves mode ``m`` to the front and
flattens the remaining modes in their original order, last fastest; ``fold``
is its exact inverse.  Every function in this module is pure and never
mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array with at least 1 mode."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim == 0:
        raise ValueError("tensor must have at least one mode")
    if any(n < 1 for n in arr.shape):
        raise ValueError(f"every mode extent must be >= 1, got shape {arr.shape}")
    return arr


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``tensor`` along ``mode``.

    Returns a matrix of shape ``(shape[mode], prod(other extents))`` whose
    columns enumerate the remaining modes in original order, last fastest.
    """
    tensor = as_tensor(tensor)
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for order-{tensor.ndim} tensor")
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def fold(matrix: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape`` from its
    mode-``mode`` matricization."""
    shape = tuple(int(n) for n in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    lead = (shape[mode],) + shape[:mode] + shape[mode + 1:]
    return np.ascontiguousarray(np.moveaxis(matrix.reshape(lead), 0, mode))


def mode_multiply(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Multiply ``tensor`` by ``matrix`` along ``mode``.

    Equivalent to ``fold(matrix @ unfold(tensor, mode), mode, new_shape)``;
    the extent at ``mode`` becomes ``matrix.shape[0]``.
    """
    tensor = as_tensor(tensor)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("mode_multiply expects a 2-D matrix")
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for order-{tensor.ndim} tensor")
    if matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns but mode {mode} has extent "
            f"{tensor.shape[mode]}"
        )
    new_shape = list(tensor.shape)
    new_shape[mode] = matrix.shape[0]
    return fold(matrix @ unfold(tensor, mode), mode, new_shape)


@dataclass(frozen=True)
class TuckerFactors:
    """Tucker representation: a core tensor plus one factor matrix per mode.

    Factor ``d`` has shape ``(I_d, R_d)`` where ``R_d`` is the core extent at
    mode ``d``; the represented tensor has shape ``(I_1, ..., I_D)``.
    """

    core: np.ndarray
    factors: tuple = ()

    def __post_init__(self):
        core = as_tensor(self.core)
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", factors)
        if len(factors) != core.ndim:
            raise ValueError(
                f"need one factor per core mode: {len(factors)} factors for "
                f"order-{core.ndim} core"
            )
        for d, f in enumerate(factors):
            if f.ndim != 2:
                raise ValueError(f"factor {d} is not a matrix")
            if f.shape[1] != core.shape[d]:
                raise ValueError(
                    f"factor {d} has {f.shape[1]} columns but core mode {d} "
                    f"has extent {core.shape[d]}"
                )

    @property
    def shape(self) -> tuple:
        """Shape of the reconstructed tensor."""
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ranks(self) -> tuple:
        return self.core.shape


def tucker_reconstruct(f: TuckerFactors) -> np.ndarray:
    """Assemble the dense tensor ``core x_1 U_1 x_2 U_2 ... x_D U_D``."""
    out = f.core
    for d, u in enumerate(f.factors):
        out = mode_multiply(out, u, d)
    return out

"""Dense tensor algebra: coercion, unfolding and the Tucker container.

All tensors are ``numpy.float64`` arrays stored in C order (row major, last
mode varies fastest).  ``unfold(T, m)`` moves mode ``m`` to the front and
flattens the remaining modes in their original order, last fastest.  Every
function in this module is pure and never mutates its inputs.
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


def unfold(tensor: np.ndarray, mode: int, lead: int = 0) -> np.ndarray:
    """Matricize ``tensor`` along ``mode``.

    Returns a matrix of shape ``(shape[mode], prod(other extents))`` whose
    columns enumerate the remaining modes in original order, last fastest.
    With ``lead`` leading axes, ``tensor`` is a stack of tensors, each
    matricized alike: ``mode`` counts from the first axis after them.
    """
    tensor = as_tensor(tensor)
    order = tensor.ndim - lead
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range for order-{order} tensor")
    return np.moveaxis(tensor, lead + mode, lead).reshape(
        tensor.shape[:lead] + (tensor.shape[lead + mode], -1))


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

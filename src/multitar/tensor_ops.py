"""Dense tensor algebra: coercion and unfolding.

All tensors are ``numpy.float64`` arrays stored in C order (row major, last
mode varies fastest).  ``unfold(T, m)`` moves mode ``m`` to the front and
flattens the remaining modes in their original order, last fastest.  Every
function in this module is pure and never mutates its inputs.
"""

from __future__ import annotations

import numpy as np


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array; a scalar becomes a
    one-entry vector."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
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

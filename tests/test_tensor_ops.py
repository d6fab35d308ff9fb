"""Tensor algebra checked against explicit index-loop oracles."""

import numpy as np
import pytest

from multitar.regression import _partial
from multitar.tensor_ops import unfold


def loop_unfold(tensor, mode):
    """Oracle: map each multi-index to (row, col) explicitly.

    Column rank of the remaining modes follows C order (original order,
    last fastest), matching the documented convention.
    """
    shape = tensor.shape
    rest = [s for m, s in enumerate(shape) if m != mode]
    out = np.zeros((shape[mode], int(np.prod(rest))))
    for idx in np.ndindex(*shape):
        col = 0
        for m in range(len(shape)):
            if m != mode:
                col = col * shape[m] + idx[m]
        out[idx[mode], col] = tensor[idx]
    return out


class TestUnfoldFold:
    def test_order2_mode0_is_identity(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(unfold(t, 0), t)

    def test_row_vector_mode1_transposes(self):
        t = np.arange(5.0).reshape(1, 5)
        np.testing.assert_array_equal(unfold(t, 1), t.T)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_index_oracle(self, mode):
        t = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(unfold(t, mode), loop_unfold(t, mode))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            unfold(np.ones((2, 2)), 2)
        with pytest.raises(ValueError, match="out of range"):
            unfold(np.ones((2, 2)), -1)


class TestTucker:
    """A core and its factors, assembled by ``_partial`` as ``B = W_x G W_y'``."""

    def test_identity_factors_return_core(self):
        rng = np.random.default_rng(8)
        core = rng.standard_normal((2, 3, 2))
        factors = tuple(np.eye(r) for r in core.shape)
        for n_reg in (1, 2):
            np.testing.assert_array_equal(_partial(core, factors, n_reg), core)

    def test_rank1_outer_product(self):
        factors = (np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(
            _partial(np.array([[2.0]]), factors, 1), np.array([[6.0, 8.0], [12.0, 16.0]])
        )

    def test_matches_loop_based_mode_products(self):
        rng = np.random.default_rng(9)
        core = rng.standard_normal((2, 2))
        u = rng.standard_normal((3, 2))
        v = rng.standard_normal((4, 2))
        expected = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                for a in range(2):
                    for b in range(2):
                        expected[i, j] += core[a, b] * u[i, a] * v[j, b]
        got = _partial(core, (u, v), 1)
        np.testing.assert_allclose(got, expected, rtol=1e-13)

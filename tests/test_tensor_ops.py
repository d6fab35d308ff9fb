"""Tensor algebra checked against explicit index-loop oracles."""

import numpy as np
import pytest

from multitar.tensor_ops import (
    TuckerFactors,
    fold,
    mode_multiply,
    tucker_reconstruct,
    unfold,
)


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

    def test_fold_inverts_unfold_exactly(self):
        rng = np.random.default_rng(0)
        for shape in [(3,), (2, 5), (2, 3, 4), (2, 1, 3, 2)]:
            t = rng.standard_normal(shape)
            for mode in range(len(shape)):
                np.testing.assert_array_equal(fold(unfold(t, mode), mode, shape), t)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            unfold(np.ones((2, 2)), 2)
        with pytest.raises(ValueError, match="out of range"):
            unfold(np.ones((2, 2)), -1)


class TestModeMultiply:
    def test_identity_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            np.testing.assert_array_equal(
                mode_multiply(t, np.eye(t.shape[mode]), mode), t
            )

    def test_order2_mode0_is_matrix_product(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4))
        m = rng.standard_normal((5, 3))
        np.testing.assert_allclose(mode_multiply(t, m, 0), m @ t, rtol=1e-15)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 2, 2))
        m = rng.standard_normal((3, 2))
        expected = np.zeros((2, 3, 2))
        for i in range(2):
            for r in range(3):
                for k in range(2):
                    expected[i, r, k] = sum(m[r, j] * t[i, j, k] for j in range(2))
        np.testing.assert_allclose(mode_multiply(t, m, 1), expected, rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            mode_multiply(np.ones((2, 3)), np.ones((4, 2)), 1)

    def test_commutes_across_distinct_modes(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 4, 5))
        m1 = rng.standard_normal((2, 3))
        m2 = rng.standard_normal((6, 5))
        ab = mode_multiply(mode_multiply(t, m1, 0), m2, 2)
        ba = mode_multiply(mode_multiply(t, m2, 2), m1, 0)
        np.testing.assert_allclose(ab, ba, rtol=1e-12)


class TestTucker:
    def test_identity_factors_return_core(self):
        rng = np.random.default_rng(8)
        core = rng.standard_normal((2, 3, 2))
        f = TuckerFactors(core, tuple(np.eye(r) for r in core.shape))
        np.testing.assert_array_equal(tucker_reconstruct(f), core)

    def test_rank1_outer_product(self):
        f = TuckerFactors(
            np.array([[2.0]]),
            (np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])),
        )
        np.testing.assert_array_equal(
            tucker_reconstruct(f), np.array([[6.0, 8.0], [12.0, 16.0]])
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
        got = tucker_reconstruct(TuckerFactors(core, (u, v)))
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_shape_and_rank_properties(self):
        f = TuckerFactors(np.ones((2, 3)), (np.ones((5, 2)), np.ones((4, 3))))
        assert f.shape == (5, 4)
        assert f.ranks == (2, 3)

    def test_factor_count_validation(self):
        with pytest.raises(ValueError, match="one factor per core mode"):
            TuckerFactors(np.ones((2, 2)), (np.ones((3, 2)),))

    def test_factor_width_validation(self):
        with pytest.raises(ValueError, match="columns"):
            TuckerFactors(np.ones((2, 2)), (np.ones((3, 2)), np.ones((3, 3))))

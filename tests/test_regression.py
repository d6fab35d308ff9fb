"""ALS fits checked against the closed-form ridge oracle and simulations."""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitar import regression
from multitar.regression import (
    FitConfig,
    SingularSystemError,
    TarModel,
    _partial,
    _solve_spd,
    _update_core,
    _update_regressor_factor,
    _update_response_factor,
    als_fit,
    build_lagged_pairs,
    closed_form_fit,
    fit_lambda_grid,
    predict,
    predicted_r2,
    resolve_ranks,
)
from multitar.pipeline import PipelineConfig
from multitar.synthetic import generate_tar_panel


def mode_product(t, u, d):
    """Reference mode-``d`` product ``t x_d u`` by one ``tensordot``."""
    return np.moveaxis(np.tensordot(u, t, axes=(1, d)), 0, d)


def tucker_reconstruct(core, factors):
    """Reference ``core x_1 U_1 ... x_D U_D`` as a chain of mode products."""
    for d, u in enumerate(factors):
        core = mode_product(core, u, d)
    return core


def is_non_increasing(trace, slack=1e-9):
    return all(b <= a * (1.0 + slack) + 1e-300 for a, b in zip(trace, trace[1:]))


def raw_objective(x, y, model, ridge):
    """||Yc - Xc B||^2 + ridge ||B||^2 on the raw, mean-centred samples."""
    n = x.shape[0]
    b = model.coefficient_tensor().reshape(x[0].size, y[0].size)
    xc = (x - x.mean(axis=0)).reshape(n, -1)
    yc = (y - y.mean(axis=0)).reshape(n, -1)
    return np.sum((yc - xc @ b) ** 2) + ridge * np.sum(b * b)


class TestLaggedPairs:
    def test_scalar_panel_shift(self):
        x, y = build_lagged_pairs(np.array([5.0, 7.0, 9.0])[:, None], 1)
        np.testing.assert_array_equal(x[:, 0], [5.0, 7.0])
        np.testing.assert_array_equal(y[:, 0], [7.0, 9.0])

    def test_lag_equal_to_length_fails(self):
        with pytest.raises(ValueError, match="lag"):
            build_lagged_pairs(np.ones((3, 2)), 3)

    def test_lag_zero_fails(self):
        with pytest.raises(ValueError, match="lag"):
            build_lagged_pairs(np.ones((3, 2)), 0)

    def test_matches_explicit_copy(self):
        panel = np.arange(16.0).reshape(4, 2, 2)
        x, y = build_lagged_pairs(panel, 1)
        for t in range(3):
            np.testing.assert_array_equal(x[t], panel[t])
            np.testing.assert_array_equal(y[t], panel[t + 1])


class TestClosedForm:
    def test_orthonormal_regressors(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((40, 5))
        q, _ = np.linalg.qr(raw - raw.mean(axis=0))  # centered orthonormal columns
        y = rng.standard_normal((40, 3))
        w = closed_form_fit(q, y, 0.0)
        yc = y - y.mean(axis=0)
        np.testing.assert_allclose(w, q.T @ yc, atol=1e-12)

    def test_huge_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal((30, 2))
        w = closed_form_fit(x, y, 1e12)
        assert np.max(np.abs(w)) < 1e-6

    def test_matches_hand_rolled_normal_equations(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 6))
        y = rng.standard_normal((50, 4))
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        expected = np.linalg.solve(xc.T @ xc + np.eye(6), xc.T @ yc)
        np.testing.assert_allclose(closed_form_fit(x, y, 1.0), expected, rtol=1e-10)

    def test_badly_scaled_regressors_match_extended_precision(self):
        # columns at 1e7 next to columns at 1 spread the eigenvalues of
        # Xc'Xc + I past 1e13, yet the smallest stay well above ridge = 1
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6)) * np.array([1e7, 1e7, 1e7, 1.0, 1.0, 1.0])
        y = x[:, 3:] @ rng.standard_normal((3, 2)) + rng.standard_normal((40, 2))
        eig = np.linalg.eigvalsh(np.cov(x.T, bias=True) * 40 + np.eye(6))
        assert eig[0] < 1e-13 * eig[-1]
        with mpmath.workdps(50):
            xc = mpmath.matrix(x.tolist())
            yc = mpmath.matrix(y.tolist())
            for m in (xc, yc):
                for j in range(m.cols):
                    mean = mpmath.fsum(m[i, j] for i in range(m.rows)) / m.rows
                    for i in range(m.rows):
                        m[i, j] -= mean
            lhs = xc.T * xc + mpmath.eye(6)
            expected = mpmath.inverse(lhs) * (xc.T * yc)
            expected = np.array(expected.tolist(), dtype=float)
        np.testing.assert_allclose(closed_form_fit(x, y, 1.0), expected,
                                   rtol=1e-8)

    def test_singular_at_zero_ridge(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal((20, 1))
        x = np.hstack([col, col])  # duplicated regressor
        y = rng.standard_normal((20, 2))
        with pytest.raises(SingularSystemError, match="raise lambda"):
            closed_form_fit(x, y, 0.0)


class TestAlsFit:
    def test_noiseless_full_rank_identification(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 5, 2))
        b_star = rng.standard_normal((5, 2, 4, 2))
        y = np.tensordot(x, b_star, axes=([1, 2], [0, 1]))
        model, report = als_fit(x, y, "full", 0.0, FitConfig(seed=4))
        assert report.objective_trace[-1] <= 1e-16 * np.sum(y * y)
        b_hat = model.coefficient_tensor()
        rel = np.linalg.norm(b_hat - b_star) / np.linalg.norm(b_star)
        assert rel < 1e-6

    @pytest.mark.parametrize("ridge", [0.0, 1.0, 5.0, 20.0])
    def test_full_rank_matches_closed_form(self, ridge):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((150, 4, 3))
        y = rng.standard_normal((150, 2, 3))
        model, _ = als_fit(x, y, "full", ridge, FitConfig(seed=5))
        b = model.coefficient_tensor().reshape(12, 6)
        w = closed_form_fit(x, y, ridge)
        assert np.linalg.norm(b - w) / np.linalg.norm(w) < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40), x_dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           y_dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           ridge=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]),
           scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(n=5, x_dims=(4, 4), y_dims=(2, 1), ridge=1.0, scale=0.0, seed=1)
    @example(n=5, x_dims=(4, 4), y_dims=(2, 1), ridge=0.0, scale=0.0, seed=1)
    def test_full_rank_svd_path_matches_closed_form(self, n, x_dims, y_dims, ridge,
                                                    scale, seed):
        # the SVD of R_x against the normal equations, p > n included: they
        # agree to 1e-12 * cond(Xc'Xc + ridge I) of the largest entry (2e-14
        # at worst on 3000 draws), and lambda = 0 is singular for both or neither
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, *x_dims)) * 10.0 ** scale
        y = rng.standard_normal((n, *y_dims))
        p = math.prod(x_dims)
        try:
            want = closed_form_fit(x, y, ridge)
        except SingularSystemError as exc:
            with pytest.raises(SingularSystemError) as err:
                als_fit(x, y, "full", ridge)
            assert str(err.value) == ("singular normal equations in ridge solve "
                                      "with lambda = 0; raise lambda to regularize")
            assert ridge == 0.0 and "lambda = 0" in str(exc)
            return
        got = als_fit(x, y, "full", ridge)[0].coefficient_tensor().reshape(p, -1)
        xc = x.reshape(n, p) - x.reshape(n, p).mean(axis=0)
        cond = np.linalg.cond(xc.T @ xc + ridge * np.eye(p))
        assert np.abs(got - want).max() <= 1e-12 * cond * np.abs(want).max()

    def test_reduced_rank_recovers_factor_subspaces(self):
        # simulation oracle: principal angles stay below 5 degrees
        rng = np.random.default_rng(31)
        dims = (6, 4, 5, 3)
        ranks = (3, 2, 3, 2)
        core = rng.standard_normal(ranks)
        factors = tuple(
            np.linalg.qr(rng.standard_normal((d, r)))[0]
            for d, r in zip(dims, ranks)
        )
        b_star = tucker_reconstruct(core, factors)
        x = rng.standard_normal((500, 6, 4))
        y = (np.tensordot(x, b_star, axes=([1, 2], [0, 1]))
             + 0.01 * rng.standard_normal((500, 5, 3)))
        model, report = als_fit(x, y, ranks, 0.0, FitConfig(seed=31))
        for fitted, truth in zip(model.factors, factors):
            angles = scipy.linalg.subspace_angles(fitted, truth)
            assert np.degrees(angles.max()) < 5.0
        assert is_non_increasing(report.objective_trace)

    def test_intercept_uses_the_stored_coefficient(self):
        # one formula makes B: the intercept is y_mean - <x_mean, B> for the
        # B that coefficient_tensor() returns, bit for bit, at reduced rank
        panel, _ = generate_tar_panel(n_entities=10, n_layers=4, n_steps=1000,
                                      seed=3)
        x, y = build_lagged_pairs(np.log(panel.values), 1)
        model, _ = als_fit(x, y, (3, 2, 3, 2), 1.0, FitConfig(max_sweeps=50))
        expected = model.y_mean[None] - np.tensordot(
            model.x_mean[None], model.coefficient_tensor(), axes=2)
        np.testing.assert_array_equal(model.intercept, expected)
        # at full rank the factors are identities and B is the core itself
        full, _ = als_fit(x, y, "full", 1.0)
        np.testing.assert_array_equal(full.coefficient_tensor(), full.core)

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            x = rng.standard_normal((80, 4, 2))
            y = rng.standard_normal((80, 3, 2))
            for ranks in ("full", (2, 2, 2, 2)):
                for ridge in (0.0, 5.0):
                    _, report = als_fit(x, y, ranks, ridge, FitConfig(seed=seed))
                    assert is_non_increasing(report.objective_trace)

    def test_shrinkage_monotone_in_ridge(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 3, 2))
        y = rng.standard_normal((100, 2, 2))
        norms = []
        for ridge in (0.0, 1.0, 5.0, 10.0, 20.0, 50.0):
            model, _ = als_fit(x, y, "full", ridge, FitConfig(seed=7))
            norms.append(np.linalg.norm(model.coefficient_tensor()))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_prediction_consistency_with_objective(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((90, 4, 2))
        y = rng.standard_normal((90, 3, 2))
        ridge = 2.0
        model, report = als_fit(x, y, (2, 2, 2, 2), ridge, FitConfig(seed=8))
        resid = y - predict(model, x)
        unpenalized = report.objective_trace[-1] - ridge * np.sum(
            model.coefficient_tensor() ** 2
        )
        assert abs(np.sqrt(np.sum(resid ** 2)) - np.sqrt(unpenalized)) < 1e-9

    def test_centering_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((70, 3, 2))
        y = rng.standard_normal((70, 2, 2))
        m1, _ = als_fit(x, y, "full", 3.0, FitConfig(seed=9))
        m2, _ = als_fit(x, y + 11.5, "full", 3.0, FitConfig(seed=9))
        np.testing.assert_allclose(
            m1.coefficient_tensor(), m2.coefficient_tensor(), atol=1e-9
        )
        np.testing.assert_allclose(m2.intercept - m1.intercept, 11.5, atol=1e-9)

    def test_rank_exceeding_extent_rejected(self):
        x = np.random.default_rng(10).standard_normal((20, 3))
        y = np.random.default_rng(11).standard_normal((20, 2))
        with pytest.raises(ValueError, match="rank"):
            als_fit(x, y, (4, 2), 1.0)

    def test_non_finite_rejected(self):
        x = np.ones((10, 2))
        y = np.ones((10, 2))
        y[3, 1] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            als_fit(x, y, "full", 1.0)

    def test_underdetermined_at_zero_ridge_reports_singular(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 4, 3))  # 6 samples, 12 regressors
        y = rng.standard_normal((6, 2))
        with pytest.raises(SingularSystemError, match="raise lambda"):
            als_fit(x, y, "full", 0.0, FitConfig(seed=12))

    def test_full_rank_mode_wider_than_the_others(self):
        # a scalar regressor and three responses: mode 1 has rank 3 while
        # mode 0 spans one direction, so the spectral init needs the full basis
        rng = np.random.default_rng(41)
        x = rng.standard_normal((30, 1))
        y = rng.standard_normal((30, 3))
        model, _ = als_fit(x, y, "full", 1.0, FitConfig(seed=41))
        np.testing.assert_allclose(model.coefficient_tensor(),
                                   closed_form_fit(x, y, 1.0), rtol=1e-10)

    def test_full_rank_is_one_direct_ridge_solve(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((50, 4, 2))
        y = rng.standard_normal((50, 3, 2))
        ridge = 2.5
        model, report = als_fit(x, y, "full", ridge, FitConfig(seed=1))
        assert report.n_sweeps == 1 and report.converged
        assert len(report.objective_trace) == 1
        assert report.objective_trace[0] == pytest.approx(
            raw_objective(x, y, model, ridge), rel=1e-9)
        # the seed only drives a random init, which full rank never uses
        other, _ = als_fit(x, y, "full", ridge, FitConfig(seed=2))
        assert (other.coefficient_tensor().tobytes()
                == model.coefficient_tensor().tobytes())

    def test_reduced_rank_underdetermined_at_zero_ridge_uses_random_init(self):
        # n < p leaves no full-rank seed at lambda = 0, but the Tucker blocks
        # are small enough to be determined
        rng = np.random.default_rng(45)
        x = rng.standard_normal((10, 4, 3))
        y = rng.standard_normal((10, 2, 2))
        with pytest.raises(SingularSystemError):
            closed_form_fit(x, y, 0.0)
        model, report = als_fit(x, y, (2, 1, 2, 1), 0.0, FitConfig(seed=45))
        assert report.converged
        assert is_non_increasing(report.objective_trace)
        assert report.objective_trace[-1] == pytest.approx(
            raw_objective(x, y, model, 0.0), rel=1e-9)

    def test_nearly_singular_blocks_keep_the_trace_non_increasing(self):
        # three samples leave the data rank 2, and a Cholesky solve of the
        # nearly singular factor systems raised the objective by 31%
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 1, 4))
        y = rng.standard_normal((3, 2, 3))
        model, report = als_fit(x, y, (1, 3, 1, 3), 1.0,
                                FitConfig(max_sweeps=25, seed=0))
        assert is_non_increasing(report.objective_trace)
        assert report.objective_trace[-1] == pytest.approx(
            raw_objective(x, y, model, 1.0), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 30),
        x_dims=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        y_dims=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        rank_draws=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        ridge=st.floats(0.01, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_objective_is_residual_on_raw_samples(self, n, x_dims, y_dims,
                                                  rank_draws, ridge, seed):
        # n < p + q leaves all n rows in the R factor; n >= p + q compresses
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, *x_dims))
        y = rng.standard_normal((n, *y_dims))
        dims = x_dims + y_dims
        ranks = tuple(1 + int(u * (d - 1) + 0.5) for u, d in zip(rank_draws, dims))
        if any(r * r > math.prod(ranks) for r in ranks):
            # a rank above the product of the others is a degenerate Tucker
            # model whose factor updates are singular; fit full rank instead
            ranks = "full"
        model, report = als_fit(x, y, ranks, ridge,
                                FitConfig(max_sweeps=25, seed=seed))
        b = model.coefficient_tensor().reshape(x[0].size, y[0].size)
        xc = (x - x.mean(axis=0)).reshape(n, -1)
        yc = (y - y.mean(axis=0)).reshape(n, -1)
        expected = np.sum((yc - xc @ b) ** 2) + ridge * np.sum(b * b)
        assert report.objective_trace[-1] == pytest.approx(expected, rel=1e-9)
        assert is_non_increasing(report.objective_trace)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("ridge", [0.0, 3.0])
    def test_regressor_factor_step_matches_kron_least_squares(self, k, ridge):
        # oracle: explicit design on the raw samples, one column per entry of U_k
        rng = np.random.default_rng(40 + k)
        n, dims, ranks = 40, (5, 3, 4, 2), (2, 2, 3, 2)
        x = rng.standard_normal((n, 5, 3))
        y = rng.standard_normal((n, 4, 2))
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        core = rng.standard_normal(ranks)
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        g = core.reshape(ranks[0] * ranks[1], ranks[2] * ranks[3])
        w = np.kron(factors[2], factors[3])
        i_k, r_k = factors[k].shape
        design, penalty = [], []
        for i in range(i_k):
            for a in range(r_k):
                unit = np.zeros((i_k, r_k))
                unit[i, a] = 1.0
                left = (np.kron(unit, factors[1]) if k == 0
                        else np.kron(factors[0], unit))
                db = left @ g @ w.T
                design.append((xc.reshape(n, -1) @ db).reshape(-1))
                penalty.append(np.sqrt(ridge) * db.reshape(-1))
        lhs = np.vstack([np.array(design).T, np.array(penalty).T])
        rhs = np.concatenate([yc.reshape(-1), np.zeros(len(penalty[0]))])
        expected, _, _, _ = np.linalg.lstsq(lhs, rhs, rcond=None)

        got = _update_regressor_factor(xc, yc, core, factors, k, ridge)
        np.testing.assert_allclose(got.reshape(-1), expected, rtol=1e-9, atol=1e-12)

    @staticmethod
    def _explicit_design_problem(seed):
        rng = np.random.default_rng(seed)
        n, dims, ranks = 40, (5, 3, 4, 2), (2, 2, 3, 2)
        x = rng.standard_normal((n, 5, 3))
        y = rng.standard_normal((n, 4, 2))
        core = rng.standard_normal(ranks)
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        return x - x.mean(axis=0), y - y.mean(axis=0), core, factors

    @staticmethod
    def _penalized_lstsq(xc, yc, deltas, ridge):
        """Least squares with one column per coefficient direction ``dB``."""
        n = xc.shape[0]
        design = [(xc.reshape(n, -1) @ db).reshape(-1) for db in deltas]
        penalty = [np.sqrt(ridge) * db.reshape(-1) for db in deltas]
        lhs = np.vstack([np.array(design).T, np.array(penalty).T])
        rhs = np.concatenate([yc.reshape(-1), np.zeros(len(penalty[0]))])
        return np.linalg.lstsq(lhs, rhs, rcond=None)[0]

    @pytest.mark.parametrize("ridge", [0.0, 3.0])
    def test_core_step_matches_kron_least_squares(self, ridge):
        # oracle: explicit design on the raw samples, one column per core entry
        xc, yc, core, factors = self._explicit_design_problem(50)
        w_x = np.kron(factors[0], factors[1])
        w_y = np.kron(factors[2], factors[3])
        deltas = []
        for a in range(w_x.shape[1]):
            for b in range(w_y.shape[1]):
                deltas.append(np.outer(w_x[:, a], w_y[:, b]))
        expected = self._penalized_lstsq(xc, yc, deltas, ridge)

        got = _update_core(xc, yc, core.shape, factors, 2, ridge)
        np.testing.assert_allclose(got.reshape(-1), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("ridge", [0.0, 3.0])
    def test_response_factor_step_matches_kron_least_squares(self, d, ridge):
        # oracle: explicit design on the raw samples, one column per entry of U_d
        xc, yc, core, factors = self._explicit_design_problem(60 + d)
        g = core.reshape(4, 6)
        w_x = np.kron(factors[0], factors[1])
        j_d, s_d = factors[d].shape
        deltas = []
        for j in range(j_d):
            for a in range(s_d):
                unit = np.zeros((j_d, s_d))
                unit[j, a] = 1.0
                right = (np.kron(unit, factors[3]) if d == 2
                         else np.kron(factors[2], unit))
                deltas.append(w_x @ g @ right.T)
        expected = self._penalized_lstsq(xc, yc, deltas, ridge)

        got = _update_response_factor(xc, yc, core, factors, d, ridge)
        np.testing.assert_allclose(got.reshape(-1), expected, rtol=1e-9, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        x_dims=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        y_dims=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        rank_draws=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kronecker_assembly_matches_tucker_reconstruct(self, x_dims, y_dims,
                                                          rank_draws, seed):
        # B = W_x G W_y' unfolded, and B = P x_d U_d for every partial P
        rng = np.random.default_rng(seed)
        dims = x_dims + y_dims
        ranks = [1 + int(u * (d - 1) + 0.5) for u, d in zip(rank_draws, dims)]
        core = rng.standard_normal(ranks)
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        expected = tucker_reconstruct(core, factors)
        scale = np.max(np.abs(expected))
        got = _partial(core, factors, len(x_dims))
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)
        for d, u in enumerate(factors):
            part = _partial(core, factors, len(x_dims), d)
            np.testing.assert_allclose(mode_product(part, u, d), expected,
                                       rtol=0, atol=1e-12 * scale)

    def test_resolve_ranks(self):
        assert resolve_ranks("full", (3, 4)) == (3, 4)
        assert resolve_ranks([2, 2], (3, 4)) == (2, 2)
        with pytest.raises(ValueError):
            resolve_ranks([2], (3, 4))
        with pytest.raises(ValueError):
            resolve_ranks("max", (3, 4))

    @pytest.mark.parametrize("ranks, bad", [
        ((2.9, 2.2, 2.7, 1.9), "2.9"),
        ((2, True, 3, 2), "True"),
        ((2, 2, 3, "2"), "'2'"),
    ])
    def test_resolve_ranks_rejects_non_integer_ranks(self, ranks, bad):
        # these used to be truncated, (2.9, 2.2, 2.7, 1.9) to (2, 2, 2, 1)
        with pytest.raises(ValueError, match=f"^rank {re.escape(bad)} must be "
                                             "an integer$"):
            resolve_ranks(ranks, (3, 2, 3, 2))
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=re.escape(bad)):
            als_fit(rng.standard_normal((40, 3, 2)), rng.standard_normal((40, 3, 2)),
                    ranks, 1.0)

    def test_resolve_ranks_takes_numpy_integers_as_ints(self):
        ranks = resolve_ranks(np.array([2, 2, 3, 2]), (3, 2, 3, 2))
        assert ranks == (2, 2, 3, 2)
        assert all(type(r) is int for r in ranks)

    def test_resolve_ranks_rejects_degenerate_tucker_ranks(self):
        # rank 3 of mode 0 exceeds the other mode's rank 2
        with pytest.raises(ValueError, match="mode 0"):
            resolve_ranks((3, 2), (3, 3))
        assert resolve_ranks((2, 2, 2, 2), (5, 2, 5, 2)) == (2, 2, 2, 2)

    def test_resolve_ranks_allows_full_rank_beyond_the_rule(self):
        assert resolve_ranks((1, 3), (1, 3)) == (1, 3)
        assert resolve_ranks("full", (1, 3)) == (1, 3)


class TestTarModel:
    def test_shape_and_ranks_come_from_core_and_factors(self):
        # the coefficient has the factors' row counts, the ranks are the core's
        model = TarModel(intercept=np.zeros((1, 4)), core=np.ones((2, 3)),
                         factors=(np.ones((5, 2)), np.ones((4, 3))), ridge=0.0,
                         x_mean=np.zeros(5), y_mean=np.zeros(4))
        assert model.coefficient_tensor().shape == (5, 4)
        assert model.core.shape == (2, 3)
        np.testing.assert_array_equal(model.coefficient_tensor(), np.full((5, 4), 6.0))


class TestPredict:
    def test_zero_coefficient_predicts_intercept(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((11, 3, 2))
        core = np.zeros((3, 2, 2, 2))
        factors = (np.eye(3), np.eye(2), np.eye(2), np.eye(2))
        model = TarModel(
            intercept=np.full((1, 2, 2), 3.25),
            core=core,
            factors=factors,
            ridge=0.0,
            x_mean=np.zeros((3, 2)),
            y_mean=np.full((2, 2), 3.25),
        )
        np.testing.assert_array_equal(predict(model, x),
                                      np.full((11, 2, 2), 3.25))

    def test_identity_coefficient_reproduces_input(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((7, 3, 2))
        delta = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(2))
        model = TarModel(
            intercept=np.zeros((1, 3, 2)),
            core=delta,
            factors=(np.eye(3), np.eye(2), np.eye(3), np.eye(2)),
            ridge=0.0,
            x_mean=np.zeros((3, 2)),
            y_mean=np.zeros((3, 2)),
        )
        np.testing.assert_allclose(predict(model, x), x, atol=1e-14)

    def test_noiseless_fit_reproduces_targets(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((120, 4, 2))
        b_star = rng.standard_normal((4, 2, 3, 2))
        y = np.tensordot(x, b_star, axes=([1, 2], [0, 1]))
        model, _ = als_fit(x, y, "full", 0.0, FitConfig(seed=15))
        rel = np.linalg.norm(predict(model, x) - y) / np.linalg.norm(y)
        assert rel < 1e-6

    def test_shape_mismatch(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((30, 3, 2))
        y = rng.standard_normal((30, 2, 2))
        model, _ = als_fit(x, y, "full", 1.0, FitConfig(seed=16))
        with pytest.raises(ValueError, match="do not match"):
            predict(model, rng.standard_normal((5, 2, 3)))


class TestPredictedR2:
    def _model(self, seed=17):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((100, 3, 2))
        b_star = rng.standard_normal((3, 2, 2, 2))
        y = np.tensordot(x, b_star, axes=([1, 2], [0, 1]))
        model, _ = als_fit(x, y, "full", 0.0, FitConfig(seed=seed))
        return model, rng, b_star

    def test_perfect_predictions_give_one(self):
        model, rng, b_star = self._model()
        x_test = rng.standard_normal((40, 3, 2))
        y_test = np.tensordot(x_test, b_star, axes=([1, 2], [0, 1]))
        assert predicted_r2(model, x_test, y_test) == pytest.approx(1.0, abs=1e-9)

    def test_mean_prediction_gives_zero(self):
        # a zero-coefficient model predicts the stored training mean
        y_mean = np.array([[1.0, -2.0]])[0]
        model = TarModel(
            intercept=y_mean[None].copy(),
            core=np.zeros((2, 2)),
            factors=(np.eye(2), np.eye(2)),
            ridge=0.0,
            x_mean=np.zeros(2),
            y_mean=y_mean,
        )
        rng = np.random.default_rng(18)
        x_test = rng.standard_normal((60, 2))
        noise = rng.standard_normal((60, 2))
        y_test = y_mean[None] + noise - noise.mean(axis=0)  # test mean == train mean
        assert predicted_r2(model, x_test, y_test) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_formula(self):
        model, rng, _ = self._model(seed=19)
        x_test = rng.standard_normal((30, 3, 2))
        y_test = rng.standard_normal((30, 2, 2))
        pred = predict(model, x_test)
        expected = 1.0 - (np.sum((y_test - pred) ** 2)
                          / np.sum((y_test - model.y_mean[None]) ** 2))
        assert predicted_r2(model, x_test, y_test) == pytest.approx(expected,
                                                                    rel=1e-12)

    def test_zero_total_sum_of_squares(self):
        model, _, _ = self._model(seed=20)
        x_test = np.zeros((5, 3, 2))
        y_test = np.broadcast_to(model.y_mean, (5, 2, 2)).copy()
        with pytest.raises(ValueError, match="zero total sum of squares"):
            predicted_r2(model, x_test, y_test)


class TestSelectLambda:
    def test_noiseless_identifiable_picks_zero(self):
        # decaying orthogonal rotation keeps the sample matrix well conditioned
        rng = np.random.default_rng(17)
        p = 8
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        b = 0.985 * q
        panel = np.empty((300, p))
        panel[0] = rng.standard_normal(p)
        for t in range(1, 300):
            panel[t] = panel[t - 1] @ b
        model, _, table = fit_lambda_grid(
            panel.reshape(300, 4, 2), "full",
            FitConfig(lambda_grid=(0.0, 1.0, 5.0), seed=17))
        assert model.ridge == 0.0
        assert table[0.0] == pytest.approx(1.0, abs=1e-9)

    def test_pure_noise_picks_heaviest_shrinkage(self):
        noise = np.random.default_rng(99).standard_normal((260, 4, 2))
        model, _, table = fit_lambda_grid(noise, "full",
                                          FitConfig(lambda_grid=(0.0, 50.0), seed=99))
        assert model.ridge == 50.0
        assert table[50.0] > table[0.0]

    def test_single_element_grid(self):
        panel = np.random.default_rng(21).standard_normal((60, 2, 2))
        model, _, table = fit_lambda_grid(panel, "full",
                                          FitConfig(lambda_grid=(7.0,), seed=21))
        assert model.ridge == 7.0
        assert set(table) == {7.0}

    def test_tie_breaks_toward_smaller_lambda(self):
        # constant training response forces B=0 at every ridge, so all grid
        # values score identically and the smaller lambda must win
        rng = np.random.default_rng(22)
        panel = np.full((30, 2), 4.0)
        panel[0] = rng.standard_normal(2)
        panel[27:] = rng.standard_normal((3, 2))
        model, _, table = fit_lambda_grid(panel, "full",
                                          FitConfig(lambda_grid=(5.0, 3.0), seed=22))
        assert table[3.0] == table[5.0]
        assert model.ridge == 3.0

    def test_all_nan_r2_names_the_grid(self):
        # squares of the 1e160 test rows overflow, so every R2 is inf / inf
        panel = np.random.default_rng(23).standard_normal((100, 2, 2))
        panel[-5:] *= 1e160
        with pytest.raises(ValueError, match=r"lambda_grid \[0\.0, 5\.0\]"):
            fit_lambda_grid(panel, "full", FitConfig(lambda_grid=(0.0, 5.0)))

    def test_unscored_lambda_is_logged_once(self, caplog, monkeypatch):
        real = regression.predicted_r2
        monkeypatch.setattr(regression, "predicted_r2", lambda model, x, y:
                            math.nan if model.ridge == 0.0 else real(model, x, y))
        panel = np.random.default_rng(26).standard_normal((80, 3, 2))
        with caplog.at_level(logging.WARNING, logger="multitar.regression"):
            model, _, table = fit_lambda_grid(panel, "full",
                                              FitConfig(lambda_grid=(0.0, 1.0)))
        assert [r.getMessage() for r in caplog.records] == [
            "lambda [0.0] left unscored: predicted R2 is NaN"]
        assert model.ridge == 1.0 and table[0.0] == "predicted R2 is NaN"

    def test_unconverged_fits_are_logged_once(self, caplog):
        panel = np.random.default_rng(24).standard_normal((80, 3, 2))
        config = FitConfig(max_sweeps=1, lambda_grid=(0.0, 1.0), seed=24)
        with caplog.at_level(logging.WARNING, logger="multitar.regression"):
            fit_lambda_grid(panel, (2, 2, 2, 2), config)
        assert len(caplog.records) == 1
        assert "max_sweeps=1" in caplog.text and "[0.0, 1.0]" in caplog.text
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="multitar.regression"):
            fit_lambda_grid(panel, "full", config)
        assert caplog.records == []

    @pytest.mark.parametrize("ranks", ["full", (2, 2, 2, 2)])
    def test_grid_factors_the_training_rows_once(self, ranks, monkeypatch):
        panel = np.random.default_rng(25).standard_normal((80, 3, 2))
        shapes = []
        real_qr = np.linalg.qr

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        config = FitConfig(max_sweeps=5, seed=25)
        fit_lambda_grid(panel, ranks, config)
        assert shapes == [(int(79 * config.train_fraction), 12)]

    @pytest.mark.parametrize("ranks", ["full", (2, 2, 2, 2)])
    def test_grid_models_equal_standalone_fits(self, ranks, monkeypatch):
        # the grid's shared split and its batched sweeps must not change a
        # single bit of any fit
        panel = np.random.default_rng(26).standard_normal((80, 3, 2))
        config = FitConfig(max_sweeps=5, lambda_grid=(0.0, 1.0, 20.0), seed=26)
        real, fits = regression._fit_grid, []

        def recording(*args, **kwargs):
            for fit in real(*args, **kwargs):
                fits.append(fit)
                yield fit

        monkeypatch.setattr(regression, "_fit_grid", recording)
        fit_lambda_grid(panel, ranks, config)
        x, y = build_lagged_pairs(panel, 1)
        n_train = int(x.shape[0] * config.train_fraction)
        assert len(fits) == len(config.lambda_grid)
        for lam, fit in zip(config.lambda_grid, fits):
            assert_same_fit(fit, als_fit(x[:n_train], y[:n_train], ranks, lam, config))


def assert_same_fit(fit, want):
    """Two ``(TarModel, FitReport)`` pairs agree bit for bit."""
    (model, report), (alone, alone_report) = fit, want
    for got, expected in [(model.intercept, alone.intercept),
                          (model.x_mean, alone.x_mean), (model.y_mean, alone.y_mean),
                          (model.coefficient_tensor(), alone.coefficient_tensor()),
                          (model.core, alone.core),
                          *zip(model.factors, alone.factors)]:
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert model.ridge == alone.ridge
    assert report == alone_report


class TestBatchedGrid:
    """Below full rank the grid runs one ALS for all of its ridge weights."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(2, 4), st.integers(1, 3)),
           steps=st.integers(6, 60), rank_draws=st.lists(st.floats(0.0, 1.0),
                                                         min_size=4, max_size=4),
           others=st.lists(st.sampled_from([0.1, 1.0, 5.0, 50.0]), max_size=3,
                           unique=True),
           zero_at=st.integers(0, 3), max_sweeps=st.integers(1, 40),
           rel_tol=st.sampled_from([1e-1, 1e-3, 1e-6]),
           seed=st.integers(0, 2**32 - 1))
    # four weights that stop after 2, 4, 3 and 4 sweeps
    @example(dims=(3, 3), steps=17, rank_draws=[0.75, 0.25, 1.0, 0.5],
             others=[50.0, 0.1, 5.0], zero_at=3, max_sweeps=18, rel_tol=1e-3,
             seed=623)
    # lambda = 0, the last weight, fails after the other two
    @example(dims=(3, 3), steps=6, rank_draws=[1.0, 0.5, 0.5, 0.0],
             others=[50.0, 1.0], zero_at=3, max_sweeps=26, rel_tol=1e-6, seed=35)
    # lambda = 0 fails in the factor 1 update, after factor 0 was updated, so
    # the two other weights must rerun that sweep from its start
    @example(dims=(4, 2), steps=12, rank_draws=[0.0, 1.0, 0.0, 1.0],
             others=[1.0, 50.0], zero_at=1, max_sweeps=38, rel_tol=1e-6,
             seed=2095112085)
    def test_grid_fits_equal_standalone_fits(self, dims, steps, rank_draws, others,
                                             zero_at, max_sweeps, rel_tol, seed):
        # lambda = 0 is in every grid, so a singular seed takes random factors
        # or a fit fails; the weights stop at different sweeps, and a failing
        # weight leaves the others' fits as they are alone
        rng = np.random.default_rng(seed)
        i, j = dims
        ranks = tuple(1 + int(u * (d - 1) + 0.5)
                      for u, d in zip(rank_draws, (i, j, i, j)))
        try:
            resolve_ranks(ranks, (i, j, i, j))
        except ValueError:
            ranks = "full"
        grid = others[:zero_at] + [0.0] + others[zero_at:]
        config = FitConfig(max_sweeps=max_sweeps, rel_tol=rel_tol,
                           lambda_grid=grid, seed=seed % 1000)
        panel = np.cumsum(rng.standard_normal((steps, i, j)), axis=0) * 0.3
        x, y = build_lagged_pairs(panel + rng.standard_normal(panel.shape), 1)
        n_train = int(x.shape[0] * config.train_fraction)
        alone = []
        for lam in grid:  # the grid before it was batched: one fit after another
            try:
                alone.append(als_fit(x[:n_train], y[:n_train], ranks, lam, config))
            except np.linalg.LinAlgError as exc:
                alone.append(exc)
        split = regression._split(x[:n_train], y[:n_train])
        fits = list(regression._fit_grid(split, ranks, grid, config))
        assert len(fits) == len(grid)
        for fit, want in zip(fits, alone):
            if isinstance(want, Exception):
                assert type(fit) is type(want) and str(fit) == str(want)
            else:
                assert_same_fit(fit, want)
        # a failing weight's reason in the table is its standalone error's text
        failed = {lam: str(want) for lam, want in zip(grid, alone)
                  if isinstance(want, Exception)}
        if failed and len(failed) < len(grid):
            table = fit_lambda_grid(np.concatenate([x[:1], y]), ranks, config)[2]
            assert {lam: table[lam] for lam in failed} == failed

    def test_diverging_weight_fails_alone(self, monkeypatch):
        # a non-finite objective fails its own weight, not the whole grid
        real = regression._objective
        monkeypatch.setattr(regression, "_objective", lambda r_x, r_y, b, ridge: np.where(
            np.asarray(ridge) == 1.0, np.nan, real(r_x, r_y, b, ridge)))
        x, y = build_lagged_pairs(np.random.default_rng(27).standard_normal((80, 3, 2)), 1)
        ranks, config = (2, 2, 2, 2), FitConfig(max_sweeps=5, lambda_grid=(0.0, 1.0, 20.0))
        fits = regression._fit_grid(regression._split(x, y), ranks, config.lambda_grid,
                                    config)
        with pytest.raises(SingularSystemError, match="ALS objective diverged") as err:
            als_fit(x, y, ranks, 1.0, config)
        assert type(fits[1]) is SingularSystemError and str(fits[1]) == str(err.value)
        for lam in (0.0, 20.0):
            assert_same_fit(fits[config.lambda_grid.index(lam)],
                            als_fit(x, y, ranks, lam, config))


def _spd(seed, n, rank, low):
    """A PSD matrix of the given rank whose nonzero eigenvalues lie in
    [low, 100 low]."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    return (q * (low * 10.0 ** rng.uniform(0.0, 2.0, rank))) @ q.T, rng


class TestSolveSpd:
    """``_solve_spd`` runs on numpy.linalg; scipy.linalg is only the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), n_rhs=st.integers(0, 3),
           ridge=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_well_conditioned_matches_cho_solve(self, n, n_rhs, ridge, seed):
        a, rng = _spd(seed, n, n, 1.0)
        rhs = rng.standard_normal((n, n_rhs) if n_rhs else n)
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), rhs)
        got = _solve_spd(a, rhs, "test", ridge)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 12), rank_draw=st.floats(0.0, 1.0),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), ridge=st.floats(0.01, 50.0),
           seed=st.integers(0, 2**32 - 1))
    def test_rank_deficient_gives_minimum_norm(self, n, rank_draw, scale, ridge,
                                               seed):
        # consistent but singular: the flat directions of an ALS block
        a, rng = _spd(seed, n, 1 + int(rank_draw * (n - 2)), scale)
        rhs = a @ rng.standard_normal(n)
        want = scipy.linalg.pinv(a) @ rhs
        got = _solve_spd(a, rhs, "test", ridge * scale)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 12), rank_draw=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_singular_at_zero_ridge_raises(self, n, rank_draw, seed):
        a, rng = _spd(seed, n, 1 + int(rank_draw * (n - 2)), 1.0)
        with pytest.raises(SingularSystemError) as err:
            _solve_spd(a, rng.standard_normal(n), "core update", 0.0)
        assert str(err.value) == ("singular normal equations in core update with "
                                  "lambda = 0; raise lambda to regularize")

    def test_rounding_null_direction_is_not_solved_for(self):
        # Cholesky fails on this rank-1 matrix, and a least-squares cutoff at
        # machine epsilon kept a null singular value of 1.6e-16 relative,
        # which moved the solution 81% away from the minimum-norm one
        rng = np.random.default_rng(805)
        n = rng.integers(2, 10)
        b = rng.standard_normal((n, rng.integers(1, n)))  # 4 x 1
        a = b @ b.T
        rhs = a @ rng.standard_normal(n)
        want = scipy.linalg.pinv(a) @ rhs
        got = _solve_spd(a, rhs, "test", 1.0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(max_sweeps=0)
    with pytest.raises(ValueError):
        FitConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(train_fraction=1.0)
    with pytest.raises(ValueError):
        FitConfig(lambda_grid=(-1.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rel_tol_rejected(bad):
    # rel_tol = inf would stop every fit after its second sweep as converged
    with pytest.raises(ValueError, match="rel_tol must be finite"):
        FitConfig(rel_tol=bad)
    with pytest.raises(ValueError, match="rel_tol must be finite"):
        PipelineConfig(rel_tol=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_ridge_rejected(bad):
    x, y = build_lagged_pairs(
        np.random.default_rng(23).standard_normal((40, 3, 2)), lag=1)
    with pytest.raises(ValueError, match="lambda_grid values must be finite"):
        FitConfig(lambda_grid=(1.0, bad))
    with pytest.raises(ValueError, match="ridge must be finite"):
        als_fit(x, y, ranks="full", ridge=bad)
    with pytest.raises(ValueError, match="ridge must be finite"):
        closed_form_fit(x, y, ridge=bad)
    model, _ = als_fit(x, y, ranks="full", ridge=1.0)
    with pytest.raises(ValueError, match="ridge must be finite"):
        dataclasses.replace(model, ridge=bad)

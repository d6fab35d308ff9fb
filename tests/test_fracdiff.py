"""Fractional differencing and unit-root testing.

Expected values for the seeded fixtures were computed once with the stated
oracles (direct time-domain convolution, generalized binomial recursion,
per-grid-point ADF sweeps) and frozen here.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitar.fracdiff import (
    ADF_CRITICAL_VALUES,
    AdfResult,
    FracDiffSpec,
    adf_test,
    default_adf_lags,
    find_min_alpha,
    fracdiff_apply,
    fracdiff_weights,
)
import multitar
from multitar.synthetic import fractional_integrate, generate_arfima_panel


def direct_filter(x, alpha, n_weights=None):
    """Oracle: O(T*n) time-domain summation of the weight filter."""
    n = len(x) if n_weights is None else min(n_weights, len(x))
    w = fracdiff_weights(alpha, n)
    out = np.zeros(len(x))
    for t in range(len(x)):
        for k in range(min(t, n - 1) + 1):
            out[t] += w[k] * x[t - k]
    return out


def binomial_weights_oracle(alpha, n):
    """Oracle: w_k = (-1)^k C(alpha, k) via the generalized binomial recursion."""
    c = 1.0
    out = [1.0]
    for k in range(1, n):
        c *= (alpha - k + 1) / k
        out.append((-1) ** k * c)
    return np.array(out)


class TestWeights:
    def test_alpha_zero_is_identity_operator(self):
        np.testing.assert_array_equal(fracdiff_weights(0.0, 5),
                                      [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_alpha_one_is_first_difference(self):
        np.testing.assert_array_equal(fracdiff_weights(1.0, 3), [1.0, -1.0, 0.0])

    def test_alpha_02_known_values(self):
        np.testing.assert_allclose(
            fracdiff_weights(0.2, 4), [1.0, -0.2, -0.08, -0.048], rtol=1e-14
        )

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.45, 0.9])
    def test_matches_generalized_binomial_oracle(self, alpha):
        np.testing.assert_allclose(
            fracdiff_weights(alpha, 50), binomial_weights_oracle(alpha, 50),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.95])
    def test_sign_pattern_and_summability(self, alpha):
        w = fracdiff_weights(alpha, 131_072)
        assert w[0] == 1.0
        assert np.all(w[1:] < 0.0)
        # |w_k| decreasing beyond the first step and vanishing in the tail
        assert np.all(np.diff(np.abs(w[1:])) <= 0.0)
        assert abs(w[-1]) < 1e-5
        # absolute summability: dyadic tail blocks shrink strictly
        blocks = [np.sum(np.abs(w[k:2 * k])) for k in (2 ** p for p in range(4, 17))]
        assert np.all(np.diff(blocks) < 0.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            fracdiff_weights(-0.1, 4)
        with pytest.raises(ValueError):
            fracdiff_weights(0.5, 0)


class TestApply:
    def test_alpha_zero_exact_identity(self):
        x = np.random.default_rng(0).standard_normal(257)
        out = fracdiff_apply(x, FracDiffSpec(0.0, 257))
        np.testing.assert_array_equal(out, x)

    def test_alpha_one_first_differences(self):
        out = fracdiff_apply([1.0, 2.0, 4.0], FracDiffSpec(1.0, 3))
        np.testing.assert_array_equal(out, [1.0, 1.0, 2.0])

    def test_fft_matches_direct_summation(self):
        x = np.random.default_rng(42).standard_normal(1024)
        out = fracdiff_apply(x, FracDiffSpec(0.2, 1024))
        np.testing.assert_allclose(out, direct_filter(x, 0.2), atol=1e-10)

    def test_truncated_weights_honored(self):
        x = np.random.default_rng(7).standard_normal(200)
        out = fracdiff_apply(x, FracDiffSpec(0.3, 16))
        np.testing.assert_allclose(out, direct_filter(x, 0.3, 16), atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((2, 512))
        spec = FracDiffSpec(0.35, 512)
        lhs = fracdiff_apply(2.5 * x - 1.1 * y, spec)
        rhs = 2.5 * fracdiff_apply(x, spec) - 1.1 * fracdiff_apply(y, spec)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_alpha_then_complement_approximates_first_difference(self):
        x = np.cumsum(np.random.default_rng(9).standard_normal(4096))
        spec_a = FracDiffSpec(0.3, 4096)
        spec_b = FracDiffSpec(0.7, 4096)
        composed = fracdiff_apply(fracdiff_apply(x, spec_a), spec_b)
        exact = np.empty_like(x)
        exact[0] = x[0]
        exact[1:] = np.diff(x)
        interior = slice(256, -256)
        corr = np.corrcoef(composed[interior], exact[interior])[0, 1]
        assert corr > 0.99

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            fracdiff_apply([1.0, np.nan], FracDiffSpec(0.2, 2))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FracDiffSpec(1.5, 10)
        with pytest.raises(ValueError):
            FracDiffSpec(0.2, 0)


class TestAdf:
    def test_white_noise_rejects(self):
        x = np.random.default_rng(1).standard_normal(1000)
        res = adf_test(x, level=0.05)
        assert isinstance(res, AdfResult)
        assert res.reject_unit_root

    def test_random_walk_does_not_reject(self):
        x = np.cumsum(np.random.default_rng(1).standard_normal(1000))
        assert not adf_test(x, level=0.05).reject_unit_root

    def test_rejection_consistent_with_critical_value(self):
        x = np.random.default_rng(2).standard_normal(400)
        for level, crit in ADF_CRITICAL_VALUES.items():
            res = adf_test(x, level=level)
            assert res.reject_unit_root == (res.statistic < crit)

    def test_linear_trend_without_noise_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            adf_test(np.arange(100.0), n_lags=2)

    def test_constant_series_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            adf_test(np.full(50, 3.0))

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            adf_test(np.random.default_rng(3).standard_normal(6), n_lags=4)

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="level"):
            adf_test(np.random.default_rng(3).standard_normal(50), level=0.2)

    def test_default_lag_rule(self):
        assert default_adf_lags(100) == 12
        assert default_adf_lags(2000) == 25


class TestFindMinAlpha:
    def test_white_noise_needs_no_differencing(self):
        panel = np.random.default_rng(5).standard_normal((500, 4))
        assert find_min_alpha(panel, (0.0, 0.2, 0.5)) == 0.0

    def test_random_walks_need_full_differencing(self):
        # frozen from the per-grid-point ADF oracle: a residual order of 0.5
        # is still nonstationary, so the walk needs alpha = 1
        panel = np.cumsum(np.random.default_rng(11).standard_normal((800, 6)), axis=0)
        assert find_min_alpha(panel, (0.0, 0.5, 1.0)) == 1.0

    def test_long_memory_panel_needs_partial_differencing(self):
        # ARFIMA(0, 0.45, 0), T=300: oracle run selects 0.4 from this grid
        panel = generate_arfima_panel(6, 300, 0.45, seed=21)
        assert find_min_alpha(panel, (0.0, 0.2, 0.4, 0.6)) == 0.4

    def test_no_grid_value_qualifies(self):
        panel = np.cumsum(np.random.default_rng(12).standard_normal((400, 3)), axis=0)
        with pytest.raises(ValueError, match="no grid value"):
            find_min_alpha(panel, (0.0, 0.1))

    def test_too_short_for_default_lags_fails_before_the_grid(self):
        # T = 10 gives 6 default lags: 8 ADF parameters, 3 observations
        panel = np.random.default_rng(15).standard_normal((10, 2))
        with pytest.raises(ValueError, match=r"T = 10 .* n_lags = 6"):
            find_min_alpha(panel, (0.0, 0.5, 1.0))

    def test_negative_n_lags_is_rejected_not_read_as_nonstationary(self):
        panel = np.random.default_rng(16).standard_normal((500, 4))
        with pytest.raises(ValueError, match="n_lags must be >= 0"):
            find_min_alpha(panel, (0.0, 0.5), n_lags=-2)

    def test_grid_validation(self):
        panel = np.random.default_rng(13).standard_normal((100, 2))
        with pytest.raises(ValueError, match="empty"):
            find_min_alpha(panel, ())
        with pytest.raises(ValueError, match="ascending"):
            find_min_alpha(panel, (0.2, 0.1))


def test_integrate_then_difference_is_identity():
    from multitar.synthetic import fractional_integrate

    x = np.random.default_rng(14).standard_normal(600)
    z = fractional_integrate(x, 0.3)
    back = fracdiff_apply(z, FracDiffSpec(0.3, 600))
    np.testing.assert_allclose(back, x, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 1500), alpha=st.floats(0.0, 1.0, exclude_max=True),
       extra_weights=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
def test_integrate_then_difference_is_identity_property(n, alpha, extra_weights,
                                                        seed):
    # any truncation at least the series length keeps every weight in reach
    x = np.random.default_rng(seed).standard_normal(n)
    z = fractional_integrate(x, alpha)
    back = fracdiff_apply(z, FracDiffSpec(alpha, n + extra_weights))
    np.testing.assert_allclose(back, x, atol=1e-9)


def stacked(fn, x):
    """Oracle: ``fn`` applied to each trailing position of ``x`` as a 1-D
    series, stacked back into the shape of ``x``."""
    cols = x.reshape(x.shape[0], -1)
    out = np.stack([fn(cols[:, j]) for j in range(cols.shape[1])], axis=1)
    return out.reshape(x.shape)


class TestTimeAxis:
    """Both filters run along axis 0 of a (T, ...) array, column by column."""

    @pytest.mark.parametrize("shape", [(300, 5), (300, 3, 4)])
    @pytest.mark.parametrize("alpha,n_weights",
                             [(0.0, 300), (0.3, 300), (1.0, 300), (0.3, 40)])
    def test_fracdiff_apply_equals_stacked_series(self, shape, alpha, n_weights):
        x = np.random.default_rng(21).standard_normal(shape)
        spec = FracDiffSpec(alpha, n_weights)
        np.testing.assert_array_equal(
            fracdiff_apply(x, spec), stacked(lambda c: fracdiff_apply(c, spec), x)
        )

    @pytest.mark.parametrize("shape", [(300, 5), (300, 3, 4)])
    @pytest.mark.parametrize("order", [0.0, 0.3, 0.45])
    def test_fractional_integrate_equals_stacked_series(self, shape, order):
        x = np.random.default_rng(22).standard_normal(shape)
        np.testing.assert_array_equal(
            fractional_integrate(x, order),
            stacked(lambda c: fractional_integrate(c, order), x),
        )

    def test_arfima_panel_draws_one_series_after_another(self):
        # column j integrates the j-th run of n_steps innovations
        rng = np.random.default_rng(25)
        draws = [1.5 * rng.standard_normal(200) for _ in range(4)]
        np.testing.assert_array_equal(
            generate_arfima_panel(4, 200, 0.3, sigma=1.5, seed=25),
            np.column_stack([fractional_integrate(e, 0.3) for e in draws]),
        )

    def test_zero_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="time axis"):
            fracdiff_apply(2.0, FracDiffSpec(0.3, 4))
        with pytest.raises(ValueError, match="time axis"):
            fractional_integrate(2.0, 0.3)


def test_import_does_not_load_scipy_signal():
    # scipy.signal takes about a second to import and nothing here needs it
    src = os.path.dirname(os.path.dirname(multitar.__file__))
    code = ("import sys, multitar, multitar.cli; "
            "sys.exit('scipy.signal' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

"""Fractional differencing and unit-root testing.

Expected values for the seeded fixtures were computed once with the stated
oracles (direct time-domain convolution, generalized binomial recursion,
per-grid-point ADF sweeps) and frozen here.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitar import fracdiff
from multitar.fracdiff import (
    ADF_CRITICAL_VALUES,
    AdfResult,
    _adf_screen,
    adf_test,
    default_adf_lags,
    find_min_alpha,
    fracdiff_apply,
    fracdiff_weights,
)
import multitar
from multitar.synthetic import (fractional_integrate, generate_arfima_panel,
                                generate_tar_panel)


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
        out = fracdiff_apply(x, 0.0, n_weights=257)
        np.testing.assert_array_equal(out, x)

    def test_alpha_one_first_differences(self):
        out = fracdiff_apply([1.0, 2.0, 4.0], 1.0, n_weights=3)
        np.testing.assert_array_equal(out, [1.0, 1.0, 2.0])

    def test_fft_matches_direct_summation(self):
        x = np.random.default_rng(42).standard_normal(1024)
        out = fracdiff_apply(x, 0.2, n_weights=1024)
        np.testing.assert_allclose(out, direct_filter(x, 0.2), atol=1e-10)

    # 2T - 1 is 5-smooth for none of these T, so the transform is padded
    @pytest.mark.parametrize("t", [50, 97, 1000, 1200, 2000, 3001])
    def test_fft_bit_identical_to_fftconvolve(self, t):
        from scipy.signal import fftconvolve  # the oracle only
        x = np.random.default_rng(t).standard_normal((t, 3))
        for n_weights in (t, 37):
            w = fracdiff_weights(0.37, n_weights)
            out = fracdiff_apply(x, 0.37, n_weights=n_weights)
            want = np.column_stack([fftconvolve(c, w)[:t] for c in x.T])
            np.testing.assert_array_equal(out, want)

    def test_truncated_weights_honored(self):
        x = np.random.default_rng(7).standard_normal(200)
        out = fracdiff_apply(x, 0.3, n_weights=16)
        np.testing.assert_allclose(out, direct_filter(x, 0.3, 16), atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((2, 512))
        lhs = fracdiff_apply(2.5 * x - 1.1 * y, 0.35, n_weights=512)
        rhs = (2.5 * fracdiff_apply(x, 0.35, n_weights=512)
               - 1.1 * fracdiff_apply(y, 0.35, n_weights=512))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_alpha_then_complement_approximates_first_difference(self):
        x = np.cumsum(np.random.default_rng(9).standard_normal(4096))
        composed = fracdiff_apply(fracdiff_apply(x, 0.3, n_weights=4096), 0.7,
                                  n_weights=4096)
        exact = np.empty_like(x)
        exact[0] = x[0]
        exact[1:] = np.diff(x)
        interior = slice(256, -256)
        corr = np.corrcoef(composed[interior], exact[interior])[0, 1]
        assert corr > 0.99

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            fracdiff_apply([1.0, np.nan], 0.2, n_weights=2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            fracdiff_apply(np.zeros(10), 1.5, n_weights=10)
        with pytest.raises(ValueError):
            fracdiff_apply(np.zeros(10), 0.2, n_weights=0)


def adf_oracle(x, n_lags):
    """Oracle: the ADF t-ratio from normal equations in 50-digit arithmetic,
    with the level centred."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = len(x) - 1 - n_lags
        level = [mpmath.mpf(v) for v in x[n_lags:-1]]
        mean = mpmath.fsum(level) / m
        dx = [mpmath.mpf(b) - mpmath.mpf(a) for a, b in zip(x, x[1:])]
        design = mpmath.matrix([
            [1, level[r] - mean] + [dx[n_lags - i + r] for i in range(1, n_lags + 1)]
            for r in range(m)])
        y = mpmath.matrix(dx[n_lags:])
        inv = mpmath.inverse(design.T * design)
        beta = inv * (design.T * y)
        ssr = mpmath.fsum(e ** 2 for e in y - design * beta)
        return float(beta[1] / mpmath.sqrt(ssr / (m - n_lags - 2) * inv[1, 1]))


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

    def test_near_constant_log_level_matches_extended_precision(self):
        # the level is far from its spread, so normal equations would square a
        # bad condition number (measured error 5e-16 relative)
        noise = np.random.default_rng(1).standard_normal((4, 300))
        for eps, row in zip((1e-6, 1e-6, 1e-4, 1e-4), noise):
            x = np.log(100.0 + eps * row)
            assert adf_test(x, 8).statistic == pytest.approx(adf_oracle(x, 8),
                                                             rel=1e-12)

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

    def test_no_grid_value_names_the_failing_column_and_why(self):
        # a constant column's ADF regression is degenerate at every order:
        # "constant series" at 0, a collinear design after differencing
        noise = np.random.default_rng(13).standard_normal(400)
        panel = np.column_stack([noise, np.full(400, 2.0)])
        with pytest.raises(ValueError, match=re.escape(
                "no grid value achieves panel-wide stationarity; extend the "
                "grid (at alpha = 0.5, column 1 fails: degenerate regression: "
                "collinear design matrix)")):
            find_min_alpha(panel, (0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
        walks = np.cumsum(np.random.default_rng(12).standard_normal((400, 3)), axis=0)
        with pytest.raises(ValueError, match=r"\(at alpha = 0\.1, column 0 fails: "
                           r"ADF statistic -?[\d.]+ keeps the unit root\)$"):
            find_min_alpha(walks, (0.0, 0.1))

    def test_too_short_for_default_lags_fails_before_the_grid(self):
        # T = 10 gives 6 default lags: 8 ADF parameters, 3 observations
        panel = np.random.default_rng(15).standard_normal((10, 2))
        with pytest.raises(ValueError, match=r"T = 10 .* n_lags = 6"):
            find_min_alpha(panel, (0.0, 0.5, 1.0))

    def test_negative_n_lags_is_rejected_not_read_as_nonstationary(self):
        panel = np.random.default_rng(16).standard_normal((500, 4))
        with pytest.raises(ValueError, match="n_lags must be >= 0"):
            find_min_alpha(panel, (0.0, 0.5), n_lags=-2)

    def test_unknown_level_is_rejected_not_read_as_nonstationary(self):
        panel = np.random.default_rng(17).standard_normal((500, 4))
        with pytest.raises(ValueError,
                           match=r"^level must be one of \[0\.01, 0\.05, 0\.1\]$"):
            find_min_alpha(panel, (0.0, 0.5), level=0.2)

    def test_fractional_n_lags_is_rejected(self):
        panel = np.random.default_rng(18).standard_normal((500, 4))
        with pytest.raises(ValueError, match=r"^n_lags must be an integer, got 1\.5$"):
            find_min_alpha(panel, (0.0, 0.5), n_lags=1.5)

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
    back = fracdiff_apply(z, 0.3, n_weights=600)
    np.testing.assert_allclose(back, x, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 1500), alpha=st.floats(0.0, 1.0, exclude_max=True),
       extra_weights=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
def test_integrate_then_difference_is_identity_property(n, alpha, extra_weights,
                                                        seed):
    # any truncation at least the series length keeps every weight in reach
    x = np.random.default_rng(seed).standard_normal(n)
    z = fractional_integrate(x, alpha)
    back = fracdiff_apply(z, alpha, n_weights=n + extra_weights)
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
        np.testing.assert_array_equal(
            fracdiff_apply(x, alpha, n_weights=n_weights),
            stacked(lambda c: fracdiff_apply(c, alpha, n_weights=n_weights), x),
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
            fracdiff_apply(2.0, 0.3, n_weights=4)
        with pytest.raises(ValueError, match="time axis"):
            fractional_integrate(2.0, 0.3)


def test_import_does_not_load_scipy_signal():
    # no scipy module at all: scipy.signal takes about a second to import and
    # nothing here needs it, and only the Polya filter imports scipy.special
    src = os.path.dirname(os.path.dirname(multitar.__file__))
    code = ("import sys, multitar, multitar.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Columns whose ADF regressions the screen must clear, or must leave to
# adf_test: a constant or linear column is degenerate; a near-constant log
# level, a log walk with tiny steps or noise far from the intercept's scale
# makes the unscaled Gram ill conditioned or rank deficient, and the Gram of
# huge noise overflows.
_COLUMN_KINDS = ("noise", "walk", "arfima", "constant", "linear",
                 "near-constant log", "log walk", "tiny noise", "huge noise")


@st.composite
def screen_cases(draw):
    n_lags = draw(st.integers(0, 6))
    t = draw(st.sampled_from([2 * n_lags + 4, 2 * n_lags + 5, 60, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=4)):
        e, scale = rng.standard_normal(t), 10.0 ** rng.uniform(-8, -1)
        columns.append({
            "noise": e,
            "walk": np.cumsum(e),
            "arfima": fractional_integrate(e, rng.uniform(0.0, 0.9)),
            "constant": np.full(t, rng.uniform(-5.0, 5.0)),
            "linear": rng.uniform(-1.0, 1.0) * np.arange(t) + rng.uniform(-3.0, 3.0),
            "near-constant log": np.log(100.0 + scale * e),
            "log walk": np.log(100.0) + np.cumsum(scale * e),
            "tiny noise": scale ** 2 * e,
            "huge noise": 1e160 / scale * e,
        }[kind])
    grid = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), min_size=1,
                         max_size=5, unique=True))
    level = draw(st.sampled_from(sorted(ADF_CRITICAL_VALUES)))
    return np.column_stack(columns), sorted(grid), level, n_lags


def _search(panel, grid, level, n_lags):
    try:
        return find_min_alpha(panel, grid, level=level, n_lags=n_lags)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(case=screen_cases())
def test_screen_leaves_the_search_unchanged(case):
    # the screen patched to clear nothing is the plain adf_test loop
    screened = _search(*case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracdiff, "_adf_screen", lambda diff, n_lags, level:
                   np.full(diff.shape[1], np.nan))
        assert _search(*case) == screened


@settings(max_examples=150, deadline=None)
@given(case=screen_cases())
def test_screen_clears_only_rejections_within_its_bound(case):
    panel, grid, level, n_lags = case
    for alpha in grid:
        diff = fracdiff_apply(panel, alpha, n_weights=panel.shape[0])
        stats = _adf_screen(diff, n_lags, level)
        for j in np.flatnonzero(~np.isnan(stats)):
            result = adf_test(diff[:, j], n_lags, level)
            assert result.statistic < ADF_CRITICAL_VALUES[level]
            assert abs(stats[j] - result.statistic) <= 1e-8 * abs(result.statistic)


def test_screen_clears_every_column_of_a_log_panel():
    # the log of a generated level panel, as the pipeline searches it: no
    # column needs adf_test, and the t-ratios match it to 1e-12
    panel, _ = generate_tar_panel(n_entities=5, n_layers=2, n_steps=1000, seed=3)
    values = np.log(panel.values).reshape(1000, -1)
    stats = _adf_screen(values, default_adf_lags(1000), 0.05)
    want = [adf_test(c).statistic for c in values.T]
    np.testing.assert_allclose(stats, want, rtol=1e-12)

"""Stationarity preprocessing: fractional differencing and unit-root testing.

The differencing operator ``(1 - L)^alpha`` is expanded into its binomial
weight sequence and applied as a causal one-sided filter along the time
axis (axis 0) of a ``(T, ...)`` array, as one real FFT convolution for the
whole array; the integer orders ``alpha = 0`` and ``alpha = 1``
short-circuit to the exact sparse filters so they stay bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft

# Large-sample Dickey-Fuller critical values, constant-only regression.
ADF_CRITICAL_VALUES = {0.01: -3.43, 0.05: -2.86, 0.10: -2.57}


@dataclass(frozen=True)
class FracDiffSpec:
    """Differencing order plus the truncation length of the weight filter."""

    alpha: float
    n_weights: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.n_weights < 1:
            raise ValueError(f"n_weights must be >= 1, got {self.n_weights}")


@dataclass(frozen=True)
class AdfResult:
    """Outcome of an augmented Dickey-Fuller regression."""

    statistic: float
    n_lags: int
    reject_unit_root: bool


def fracdiff_weights(alpha: float, n: int) -> np.ndarray:
    """First ``n`` binomial weights of ``(1 - L)^alpha``.

    ``w_0 = 1`` and ``w_k = w_{k-1} * (k - 1 - alpha) / k``; for
    ``0 < alpha < 1`` the weights are negative from ``k = 1`` on and decay
    hyperbolically.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _binomial_weights(alpha, n)


def _binomial_weights(alpha: float, n: int) -> np.ndarray:
    # unchecked recursion; a negative alpha gives the inverse filter's weights
    w = np.empty(n)
    w[0] = 1.0
    if n > 1:
        k = np.arange(1, n, dtype=np.float64)
        w[1:] = np.cumprod((k - 1.0 - alpha) / k)
    return w


def _causal_filter(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``out[t] = sum_k w[k] * x[t-k]`` along axis 0, truncated to ``len(x)``.

    The transform length is the one ``scipy.signal.fftconvolve`` picks, so
    each column is bit-identical to ``fftconvolve(x[:, j], w)[:T]``.
    """
    t = x.shape[0]
    n = fft.next_fast_len(t + w.shape[0] - 1, True)
    w_hat = fft.rfft(w, n).reshape((-1,) + (1,) * (x.ndim - 1))
    return fft.irfft(fft.rfft(x, n, axis=0) * w_hat, n, axis=0)[:t]


def fracdiff_apply(series, spec: FracDiffSpec) -> np.ndarray:
    """Apply the truncated fractional difference filter along axis 0.

    ``series`` is a ``(T, ...)`` array and every trailing position is
    filtered as its own series:
    ``out[t] = sum_{k=0..min(t, n_weights-1)} w_k * series[t-k]``.  The FFT
    path agrees with direct summation to within 1e-10 absolute error; the
    exact sparse filters are used for integer orders.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("series must have a time axis")
    t = x.shape[0]
    if t < 1:
        raise ValueError("series must have at least one observation")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains NaN or Inf")
    n = min(spec.n_weights, t)
    if spec.alpha == 0.0 or n == 1:
        return x.copy()  # w_0 = 1; later weights vanish (alpha 0) or are truncated
    if spec.alpha == 1.0:
        out = np.empty_like(x)
        out[0] = x[0]
        out[1:] = x[1:] - x[:-1]
        return out
    return _causal_filter(x, _binomial_weights(spec.alpha, n))


def default_adf_lags(n_obs: int) -> int:
    """Schwert-style lag rule ``floor(12 * (T/100)^0.25)``."""
    return int(np.floor(12.0 * (n_obs / 100.0) ** 0.25))


def adf_test(series, n_lags: int | None = None, level: float = 0.05) -> AdfResult:
    """Augmented Dickey-Fuller test with constant, no trend.

    Regresses the first difference on an intercept, the lagged level and
    ``n_lags`` lagged differences, and compares the t-ratio of the lagged
    level against the large-sample critical value for ``level``.

    Raises ``ValueError`` for series that are too short or give a degenerate
    regression (constant series, collinear design, zero residual variance).
    """
    if level not in ADF_CRITICAL_VALUES:
        raise ValueError(f"level must be one of {sorted(ADF_CRITICAL_VALUES)}")
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains NaN or Inf")
    if n_lags is None:
        n_lags = default_adf_lags(x.shape[0])
    if n_lags < 0:
        raise ValueError("n_lags must be >= 0")
    t = x.shape[0]
    if t <= n_lags + 3:
        raise ValueError(f"series too short: need length > {n_lags + 3}, got {t}")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate regression: constant series")

    dx = np.diff(x)
    m = t - 1 - n_lags
    cols = [np.ones(m), x[n_lags:t - 1]]
    for i in range(1, n_lags + 1):
        cols.append(dx[n_lags - i:t - 1 - i])
    design = np.column_stack(cols)
    y = dx[n_lags:]

    n_par = design.shape[1]
    if m <= n_par:
        raise ValueError("degenerate regression: more parameters than observations")
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < n_par:
        raise ValueError("degenerate regression: collinear design matrix")
    resid = y - design @ beta
    ssr = float(resid @ resid)
    if ssr <= 0.0:
        raise ValueError("degenerate regression: zero residual variance")
    sigma2 = ssr / (m - n_par)
    xtx_inv = np.linalg.inv(design.T @ design)
    stat = float(beta[1] / np.sqrt(sigma2 * xtx_inv[1, 1]))
    return AdfResult(
        statistic=stat,
        n_lags=int(n_lags),
        reject_unit_root=bool(stat < ADF_CRITICAL_VALUES[level]),
    )


def find_min_alpha(columns, alpha_grid, level: float = 0.05,
                   n_lags: int | None = None) -> float:
    """Smallest grid order that makes every column of a panel stationary.

    ``columns`` is a (T, n_series) array; each candidate ``alpha`` is applied
    with full-length weights and accepted when the ADF test rejects the unit
    root for every series.  Columns whose ADF regression is degenerate count
    as non-stationary for that candidate.  A panel too short for the ADF
    regression at ``n_lags`` fails before any candidate is tried.
    """
    panel = np.asarray(columns, dtype=np.float64)
    if panel.ndim == 1:
        panel = panel[:, None]
    if panel.ndim != 2:
        raise ValueError("columns must be a (T, n_series) array")
    if not np.all(np.isfinite(panel)):
        raise ValueError("panel contains NaN or Inf")
    grid = [float(a) for a in alpha_grid]
    if not grid:
        raise ValueError("alpha_grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha_grid must be strictly ascending")
    t = panel.shape[0]
    lags = default_adf_lags(t) if n_lags is None else n_lags
    if lags < 0:
        raise ValueError("n_lags must be >= 0")
    if t <= 2 * lags + 3:
        raise ValueError(f"T = {t} is too short for an ADF regression with "
                         f"n_lags = {lags} (need T > {2 * lags + 3}); no alpha can pass")

    for alpha in grid:
        diff = fracdiff_apply(panel, FracDiffSpec(alpha=alpha,
                                                  n_weights=panel.shape[0]))
        for j in range(diff.shape[1]):
            try:
                if not adf_test(diff[:, j], n_lags, level).reject_unit_root:
                    break
            except ValueError:
                break
        else:
            return alpha
    raise ValueError(
        "no grid value achieves panel-wide stationarity; extend the grid"
    )

"""Seeded synthetic panels for tests and demos.

The main generator draws a sparse stable coefficient tensor, runs the
lag-one autoregression it defines on Gaussian innovations, fractionally
integrates the result and exponentiates, so that the pipeline's
log-transform plus fractional differencing recovers the autoregressive panel
exactly (up to float round-off) when run at the generating order.
"""

from __future__ import annotations

import datetime

import numpy as np

from .fracdiff import _binomial_weights, _causal_filter
from .panel import PanelSeries

DEFAULT_LAYERS = ("price", "volume", "iv10", "iv30")


def fractional_integrate(series, order: float) -> np.ndarray:
    """Apply the inverse filter ``(1 - L)^-order`` along axis 0 of a
    ``(T, ...)`` array, with all ``T`` weights.

    Composing with the forward filter of the same order and truncation is
    the exact identity on the observed window.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("series must have a time axis")
    if not 0.0 <= order < 1.0:
        raise ValueError("order must lie in [0, 1)")
    if order == 0.0:
        return x.copy()
    return _causal_filter(x, _binomial_weights(-order, x.shape[0]))


def generate_arfima_panel(n_series: int, n_steps: int, d: float,
                          sigma: float = 1.0, seed: int = 0) -> np.ndarray:
    """(T, n_series) panel of independent ARFIMA(0, d, 0) paths."""
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal((n_series, n_steps))
    return fractional_integrate(noise.T, d)


def sparse_stable_coefficient(n_entities: int, n_layers: int,
                              support_fraction: float = 0.05,
                              spectral_norm: float = 0.6,
                              seed: int = 0) -> np.ndarray:
    """Sparse coefficient tensor (I, J, I, J) with a stable companion matrix.

    Nonzero entries are drawn with magnitude in [0.5, 1] and random sign,
    then the whole tensor is rescaled so the (I*J, I*J) matricization has
    the requested operator 2-norm, which bounds the spectral radius below 1.
    """
    if not 0.0 < support_fraction <= 1.0:
        raise ValueError("support_fraction must lie in (0, 1]")
    if not 0.0 < spectral_norm < 1.0:
        raise ValueError("spectral_norm must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    p = n_entities * n_layers
    n_support = max(1, round(support_fraction * p * p))
    flat = np.zeros(p * p)
    idx = rng.choice(p * p, size=n_support, replace=False)
    flat[idx] = rng.uniform(0.5, 1.0, size=n_support) * rng.choice((-1.0, 1.0),
                                                                   size=n_support)
    mat = flat.reshape(p, p)
    mat *= spectral_norm / np.linalg.norm(mat, 2)
    return mat.reshape(n_entities, n_layers, n_entities, n_layers)


def generate_tar_panel(n_entities: int = 10, n_layers: int = 4,
                       n_steps: int = 2000, support_fraction: float = 0.05,
                       noise_scale: float = 0.1, integration_order: float = 0.3,
                       spectral_norm: float = 0.6, seed: int = 0,
                       burn_in: int = 200):
    """Level panel driven by a sparse lag-one tensor autoregression.

    Returns ``(PanelSeries, B_star)`` where the panel holds positive levels
    (exponentiated fractionally integrated states) and ``B_star`` is the
    (I, J, I, J) coefficient that generated the underlying dynamics.
    """
    for name, n in (("n_entities", n_entities), ("n_layers", n_layers),
                    ("n_steps", n_steps)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    b_star = sparse_stable_coefficient(
        n_entities, n_layers, support_fraction, spectral_norm, seed=seed + 1
    )
    p = n_entities * n_layers
    b_mat = b_star.reshape(p, p)

    total = n_steps + burn_in
    state = np.zeros((total, p))
    noise = noise_scale * rng.standard_normal((total, p))
    for t in range(1, total):
        state[t] = state[t - 1] @ b_mat + noise[t]

    levels = fractional_integrate(state[burn_in:], integration_order)
    values = np.exp(levels).reshape(n_steps, n_entities, n_layers)

    start = datetime.date(2001, 1, 1)
    dates = [(start + datetime.timedelta(days=t)).isoformat()
             for t in range(n_steps)]
    # Labels are assigned in sorted order (an axis's numbers in one width) so
    # that axis j of the cube and of b_star still means layer j after ingestion.
    entities, layers = ([f"{c}{k:0{max(2, len(str(n - 1)))}d}" for k in range(n)]
                        for c, n in (("E", n_entities), ("L", n_layers)))
    if n_layers <= len(DEFAULT_LAYERS):
        layers = sorted(DEFAULT_LAYERS[:n_layers])
    panel = PanelSeries(dates=dates, entities=entities, layers=layers,
                        values=values)
    return panel, b_star

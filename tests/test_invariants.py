"""Metamorphic properties of a whole run, and the guards no run reaches."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitar import multinet
from multitar.fracdiff import adf_test, find_min_alpha, fracdiff_apply
from multitar.multinet import MultilayerNetwork, from_coefficient
from multitar.panel import PanelSeries
from multitar.pipeline import (
    PipelineConfig,
    compute_measures,
    filter_network,
    fit_model,
    prepare_panel,
)
from multitar.regression import (
    FitConfig,
    TarModel,
    closed_form_fit,
    fit_lambda_grid,
    predicted_r2,
)
from multitar.synthetic import (
    fractional_integrate,
    generate_tar_panel,
    sparse_stable_coefficient,
)


def _run(panel, config):
    """Every computing stage of a pipeline run, in memory."""
    differenced, fracdiff_info = prepare_panel(panel, config)
    model, fit_info = fit_model(differenced, config)
    net = multinet.from_coefficient(model.coefficient_tensor(), panel.entities,
                                    panel.layers)
    filtered, _ = filter_network(net, config)
    return (fracdiff_info, fit_info, model.coefficient_tensor(), filtered,
            compute_measures(filtered, config))


@pytest.mark.parametrize("ranks", ["full", (3, 2, 3, 2)])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), perm=st.permutations(range(8)))
@example(seed=3, perm=list(range(7, -1, -1)))
def test_relabelling_entities_permutes_the_run(ranks, seed, perm):
    # entity i of the relabelled panel is entity perm[i] of the original, so
    # B, the network and the node measures are the original's with both
    # entity axes taken in perm order; the layer matrices do not move
    panel, _ = generate_tar_panel(n_entities=8, n_layers=3, n_steps=400, seed=seed)
    relabelled = PanelSeries(panel.dates, [panel.entities[i] for i in perm],
                             panel.layers, panel.values[:, perm])
    config = PipelineConfig(ranks=ranks, retain_fraction=0.2)
    fd, fit, b, net, measures = _run(panel, config)
    fd_p, fit_p, b_p, net_p, measures_p = _run(relabelled, config)

    assert fd_p["alpha"] == fd["alpha"]
    assert (fit_p["lambda"], fit_p["n_sweeps"]) == (fit["lambda"], fit["n_sweeps"])
    np.testing.assert_allclose(b_p, b[perm][:, :, perm], rtol=0,
                               atol=1e-12 * np.abs(b).max())
    assert net_p.entity_labels == tuple(net.entity_labels[i] for i in perm)
    np.testing.assert_array_equal(net_p.kept, net.kept[:, :, perm][:, :, :, perm])
    np.testing.assert_allclose(net_p.blocks, net.blocks[:, :, perm][:, :, :, perm],
                               rtol=0, atol=1e-12 * np.abs(b).max())
    np.testing.assert_allclose(net_p.p_values, net.p_values[:, :, perm][:, :, :, perm],
                               rtol=1e-9, atol=1e-12)
    assort, overlap, strength, coreness = measures
    assort_p, overlap_p, strength_p, coreness_p = measures_p
    np.testing.assert_allclose(assort_p, assort, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(overlap_p, overlap)
    np.testing.assert_allclose(strength_p, strength[perm], rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(coreness_p, coreness[perm])


@pytest.mark.parametrize("ranks", ["full", (3, 2, 3, 2)])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), c=st.floats(1e-3, 1e3))
@example(seed=3, c=7.3)
@example(seed=0, c=1e-3)
def test_a_constant_factor_drops_out_at_alpha_zero(ranks, seed, c):
    # at alpha 0 the filter is the identity, so scaling the panel by c shifts
    # each log series by log c, which the fit's centring removes; at alpha > 0
    # the filter turns that shift into a trend
    panel, _ = generate_tar_panel(n_entities=8, n_layers=3, n_steps=400, seed=seed)
    scaled = PanelSeries(panel.dates, panel.entities, panel.layers, c * panel.values)
    config = PipelineConfig(alpha=0.0, ranks=ranks, retain_fraction=0.2)
    _, fit, b, net, _ = _run(panel, config)
    _, fit_c, b_c, net_c, _ = _run(scaled, config)

    assert (fit_c["lambda"], fit_c["n_sweeps"]) == (fit["lambda"], fit["n_sweeps"])
    np.testing.assert_allclose(b_c, b, rtol=0, atol=1e-12 * np.abs(b).max())
    np.testing.assert_array_equal(net_c.kept, net.kept)


def _tar_model(**changes):
    """A valid 2 x 2 model with ``changes`` applied to its fields."""
    fields = dict(intercept=np.zeros((1, 2)), core=np.ones((2, 2)),
                  factors=(np.eye(2), np.eye(2)), ridge=0.0, x_mean=np.zeros(2),
                  y_mean=np.zeros(2))
    return TarModel(**(fields | changes))


def _network(entities=("a", "b"), blocks=np.zeros((1, 1, 2, 2)),
             kept=np.zeros((1, 1, 2, 2))):
    return MultilayerNetwork(entity_labels=entities, layer_labels=["x"], blocks=blocks,
                             kept=kept, p_values=np.zeros((1, 1, 2, 2)))


def _config_file(text):
    """``PipelineConfig.from_file`` on ``text``, written to ``run.conf`` in the
    working directory."""
    with open("run.conf", "w", encoding="utf-8") as fh:
        fh.write(text)
    return PipelineConfig.from_file("run.conf")


def _one_date_panel(entities=("a", "b")):
    return PanelSeries(["2020-01-01"], entities, ["x"], np.ones((1, 2, 1)))


# Each guard that no run reaches, called directly, with its whole message.
GUARDS = {
    "model-empty-core-mode": (lambda: _tar_model(core=np.ones((0, 2))),
                              "every mode extent must be >= 1, got shape (0, 2)"),
    "model-factor-count": (lambda: _tar_model(factors=(np.ones((3, 2)),)),
                           "need one factor per core mode: 1 factors for order-2 core"),
    "model-factor-not-a-matrix": (lambda: _tar_model(factors=(np.ones(2), np.eye(2))),
                                  "factor 0 is not a matrix"),
    "model-factor-width": (lambda: _tar_model(factors=(np.ones((3, 2)), np.ones((3, 3)))),
                           "factor 1 has 3 columns but core mode 1 has extent 2"),
    "model-negative-ridge": (lambda: _tar_model(ridge=-1.0),
                             "ridge must be finite and >= 0"),
    "model-coefficient-shape": (
        lambda: _tar_model(x_mean=np.zeros(3)),
        "coefficient shape (2, 2) does not match regressor dims (3,) + response dims (2,)"),
    "model-intercept-shape": (lambda: _tar_model(intercept=np.zeros(2)),
                              "intercept must have shape (1, *response_dims)"),
    # 3 differences regressed on 4 columns (intercept, level, 2 lagged differences)
    "adf-more-parameters": (lambda: adf_test(np.arange(6.0) ** 2, n_lags=2),
                            "degenerate regression: more parameters than observations"),
    # the differences of a line equal the intercept column; on 9 rows the
    # Householder step that clears that column is exact (norm 3, vector 1/4
    # below its first row), so the residual is exactly 0
    "adf-zero-residual-variance": (lambda: adf_test(np.arange(10.0), n_lags=0),
                                   "degenerate regression: zero residual variance"),
    "lambda-grid-empty-split": (lambda: fit_lambda_grid(np.ones((2, 2, 1)), "full"),
                                "train_fraction 0.9 leaves an empty split for 1 samples"),
    "network-shape": (lambda: _network(kept=np.zeros((1, 1, 2, 1))),
                      "blocks, kept, p_values must all have shape (1, 1, 2, 2)"),
    "network-non-finite-weight": (
        lambda: _network(blocks=np.array([[[[0.0, np.inf], [0.0, 0.0]]]])),
        "block weights must be finite"),
    "network-repeated-label": (lambda: _network(entities=("a", "a")),
                               "entity and layer labels must be unique"),
    "network-label-count": (lambda: from_coefficient(np.zeros((2, 1, 2, 1)), ["a"], ["x"]),
                            "label counts do not match coefficient extents"),
    # the order is checked first, before the series and before the one-weight
    # shortcut that a single observation takes
    "fracdiff-alpha": (lambda: fracdiff_apply([1.0], 1.5),
                       "alpha must lie in [0, 1], got 1.5"),
    "fracdiff-n-weights": (lambda: fracdiff_apply([np.nan], 0.2, n_weights=0),
                           "n_weights must be >= 1, got 0"),
    "fracdiff-empty-series": (lambda: fracdiff_apply(np.empty((0, 2)), 0.3),
                              "series must have at least one observation"),
    "adf-not-1d": (lambda: adf_test(np.zeros((20, 2))), "series must be 1-D"),
    "adf-non-finite": (lambda: adf_test(np.r_[np.arange(19.0), np.inf]),
                       "series contains NaN or Inf"),
    "adf-negative-lags": (lambda: adf_test(np.arange(20.0) ** 2, n_lags=-1),
                          "n_lags must be >= 0"),
    "alpha-search-not-2d": (lambda: find_min_alpha(np.zeros((20, 2, 2)), (0.1,)),
                            "columns must be a (T, n_series) array"),
    "alpha-search-non-finite": (lambda: find_min_alpha(np.r_[np.arange(19.0), np.nan], (0.1,)),
                                "panel contains NaN or Inf"),
    "panel-repeated-label": (lambda: _one_date_panel(entities=("a", "a")),
                             "entity and layer labels must be unique"),
    "config-alpha": (lambda: PipelineConfig(alpha=1.5), "alpha must lie in [0, 1]"),
    "config-adf-lags": (lambda: PipelineConfig(adf_lags=-1), "adf_lags must be >= 0"),
    "config-lag": (lambda: PipelineConfig(lag=0), "lag must be >= 1"),
    "config-missing-policy": (lambda: PipelineConfig(missing_policy="drop"),
                              "missing_policy must be 'reject' or 'ffill'"),
    "config-file-no-equals": (lambda: _config_file("alpha 0.3\n"),
                              "run.conf:1: expected 'key = value'"),
    "config-file-duplicate-key": (lambda: _config_file("alpha = 0.3\nalpha = 0.2\n"),
                                  "run.conf:2: duplicate key 'alpha'"),
    "config-file-not-a-boolean": (
        lambda: _config_file("log_transform = maybe\n"),
        "run.conf:1: bad value for 'log_transform': not a boolean: 'maybe'"),
    # ceil(0.05 T) reaches T only at T = 1
    "burn-in-whole-panel": (
        lambda: prepare_panel(_one_date_panel(), PipelineConfig(alpha=0.3, drop_burn_in=True)),
        "burn-in drop would remove the whole panel"),
    "fit-empty-lambda-grid": (lambda: FitConfig(lambda_grid=()), "lambda_grid is empty"),
    "pair-no-data-mode": (lambda: closed_form_fit(np.zeros(5), np.zeros((5, 2)), 0.0),
                          "x and y need a sample mode plus at least one data mode"),
    "pair-sample-extents": (lambda: closed_form_fit(np.zeros((5, 2)), np.zeros((4, 2)), 0.0),
                            "sample extents differ: 5 vs 4"),
    "r2-shape": (lambda: predicted_r2(_tar_model(), np.zeros((3, 2)), np.zeros((3, 3))),
                 "y_test shape does not match predictions"),
    "synthetic-order": (lambda: fractional_integrate(np.zeros(3), 1.0),
                        "order must lie in [0, 1)"),
    "synthetic-support": (lambda: sparse_stable_coefficient(2, 1, support_fraction=0.0),
                          "support_fraction must lie in (0, 1]"),
    "synthetic-spectral-norm": (lambda: sparse_stable_coefficient(2, 1, spectral_norm=1.0),
                                "spectral_norm must lie in (0, 1)"),
}


@pytest.mark.parametrize("call, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_message(call, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a row writes the file it reads
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()

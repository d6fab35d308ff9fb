"""Metamorphic properties of a whole run, and the guards no run reaches."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitar import multinet
from multitar.fracdiff import adf_test
from multitar.multinet import MultilayerNetwork
from multitar.panel import PanelSeries
from multitar.pipeline import (
    PipelineConfig,
    compute_measures,
    filter_network,
    fit_model,
    prepare_panel,
)
from multitar.regression import TarModel, fit_lambda_grid
from multitar.synthetic import generate_tar_panel


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
}


@pytest.mark.parametrize("call, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()

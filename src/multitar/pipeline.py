"""End-to-end orchestration: configuration, the stage table, and exports.

The stages (log-transform and fractional differencing, ridge selection and
ALS fit, network blocks, per-block filtering, layer measures) are written
once, as the rows of :data:`STAGES`; :func:`run_stage` runs a row, then
writes its files.  :func:`run_pipeline` chains the rows in memory and writes
a manifest recording every resolved parameter, so the run can be reproduced
from the manifest alone; each staged CLI command runs one row.  Identical
config, panel and seed produce byte-identical artifacts at a fixed BLAS
library and thread count; the fit's bytes depend on the thread count.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import multinet
from .fracdiff import (ADF_CRITICAL_VALUES, check_alpha_grid,
                       default_adf_lags, find_min_alpha, fracdiff_apply)
from .multinet import MultilayerNetwork
from .panel import (CUBE, PanelSeries, _check_labels, _read_long_csv, csv_field,
                    export_panel, write_cube)
from .regression import FitConfig, check_ranks, fit_lambda_grid

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
_XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
_GRAPHML_SCHEMA = "http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd"
# ElementTree's escapes; a raw CR would read back as LF, so it is a reference
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})
_XML_ATTR = _XML_TEXT | str.maketrans({'"': "&quot;", "\n": "&#10;", "\t": "&#09;"})
_GRAPHML_HEAD = f"""<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="{GRAPHML_NS}" xmlns:xsi="{_XSI_NS}" \
xsi:schemaLocation="{GRAPHML_NS} {_GRAPHML_SCHEMA}">
  <key id="d_entity" for="node" attr.name="entity" attr.type="string" />
  <key id="d_layer" for="node" attr.name="layer" attr.type="string" />
  <key id="d_strength" for="node" attr.name="strength" attr.type="double" />
  <key id="d_coreness" for="node" attr.name="coreness" attr.type="long" />
  <key id="d_weight" for="edge" attr.name="weight" attr.type="double" />
  <key id="d_pvalue" for="edge" attr.name="p_value" attr.type="double" />
  <graph id="multilayer" edgedefault="directed">"""

NETWORK_HEADER = ["src_entity", "src_layer", "dst_entity", "dst_layer",
                  "weight", "p_value", "kept"]

# Artifact names under ``out_dir``, keyed as in the manifest's "outputs" map.
OUTPUTS = {"differenced_panel": "differenced.csv", "model": "model",
           "network_csv": "network.csv", "network_graphml": "network.graphml",
           "network_dot": "network.dot", "assortativity": "assortativity.csv",
           "edge_overlap": "edge_overlap.csv", "node_measures": "node_measures.csv"}
_MATRICES = ("assortativity", "edge_overlap", "node_measures")  # by export_matrices
# Files that only the next staged command reads; run_pipeline writes none.
HANDOFFS = {"panel": "panel.csv", "panel_cube": "panel.csv" + CUBE,
            "differenced_cube": "differenced.csv" + CUBE,
            "network_full": "network_full.csv"}


class PipelineError(RuntimeError):
    """Stage-tagged failure; ``stage`` names the pipeline step that died."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig(FitConfig):
    """Every tunable of a pipeline run; unknown config keys are rejected.
    The fit knobs and their checks are those of :class:`FitConfig`."""

    alpha: float | None = None          # fixed differencing order; None = search
    alpha_grid: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    adf_level: float = 0.05
    adf_lags: int | None = None         # None = floor(12 * (T/100)^0.25)
    ranks: object = "full"
    lag: int = 1
    filter_method: str = "polya"
    filter_a: float = 1.0
    retain_fraction: float = 0.1
    overlap_normalized: bool = False
    log_transform: bool = True
    log_epsilon: float = 0.0
    missing_policy: str = "reject"
    drop_burn_in: bool = False
    out_dir: str = "run"

    def __post_init__(self):
        super().__post_init__()
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.adf_level not in ADF_CRITICAL_VALUES:
            raise ValueError("adf_level must be 0.01, 0.05 or 0.10")
        if self.adf_lags is not None and self.adf_lags < 0:
            raise ValueError("adf_lags must be >= 0")
        if self.filter_method not in ("polya", "hard"):
            raise ValueError("filter_method must be 'polya' or 'hard'")
        if not 0.0 < self.retain_fraction <= 1.0:
            raise ValueError("retain_fraction must lie in (0, 1]")
        if not 0.0 <= self.filter_a < math.inf:
            raise ValueError("filter_a must be finite and >= 0")
        if self.lag < 1:
            raise ValueError("lag must be >= 1")
        if not 0.0 <= self.log_epsilon < math.inf:
            raise ValueError("log_epsilon must be finite and >= 0")
        if self.missing_policy not in ("reject", "ffill"):
            raise ValueError("missing_policy must be 'reject' or 'ffill'")
        object.__setattr__(self, "alpha_grid", check_alpha_grid(self.alpha_grid))
        object.__setattr__(self, "ranks", check_ranks(self.ranks))

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Parse the flat ``key = value`` config format with typed validation;
        a fault on a line, a byte that is not UTF-8 too, names the line."""
        values = {}
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, raw in enumerate(fh, start=1):
                where = f"{path}:{line_no}: "
                # surrogateescape reads a byte that is not UTF-8 as U+DC80-DCFF
                bad = next((c for c in raw if "\udc80" <= c <= "\udcff"), None)
                if bad is not None:
                    raise ValueError(
                        f"{where}byte {ord(bad) - 0xdc00:#04x} is not UTF-8")
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{where}expected 'key = value'")
                key, _, val = (s.strip() for s in line.partition("="))
                if key not in _DEFAULTS:
                    raise ValueError(f"{where}unknown key {key!r}")
                if key in values:
                    raise ValueError(f"{where}duplicate key {key!r}")
                try:
                    values[key] = _parse_config_value(key, val)
                    cls(**{key: values[key]})  # the value's own range check
                except ValueError as exc:
                    raise ValueError(f"{where}{exc}") from None
        return cls(**values)

    def resolved(self) -> dict:
        """JSON-friendly view of every field, in the config file's words."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _WORDS and value == f.default:
                value = _WORDS[f.name][0]
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}
# The fields whose default does not give their type: the word that stands for
# the default, and a value of the type that any other text is read as.
_WORDS = {"alpha": ("search", 0.0), "adf_lags": ("auto", 0), "ranks": ("full", (0,))}


def _parse_config_value(key: str, val: str):
    """Read the text of field ``key``, as a config file or a flag gives it."""
    word, example = _WORDS.get(key, (None, _DEFAULTS[key]))
    try:
        return _DEFAULTS[key] if val == word else _parse_as(example, val)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None


def _parse_as(example, val: str):
    """``val`` read as the type of ``example``; a tuple is a comma list."""
    if isinstance(example, tuple):
        return tuple(_parse_as(example[0], s) for s in val.split(","))
    if isinstance(example, bool):
        if val.lower() in ("true", "yes", "1"):
            return True
        if val.lower() in ("false", "no", "0"):
            return False
        raise ValueError(f"not a boolean: {val!r}")
    return type(example)(val)


def _fmt(value: float) -> str:
    """17-significant-digit rendering; round-trips float64 exactly."""
    return "%.17g" % value


# ---------------------------------------------------------------------------
# pipeline stages


def prepare_panel(panel: PanelSeries, config: PipelineConfig):
    """Log-transform and fractionally difference the panel.

    Returns ``(differenced_panel, info)`` where ``info`` records the
    differencing order, how it was chosen and the ADF settings.
    """
    values = panel.values
    if config.log_transform:
        shifted = values + config.log_epsilon
        if np.any(shifted <= 0.0):
            t, i, j = np.unravel_index(int(np.argmax(shifted <= 0.0)),
                                       shifted.shape)
            raise ValueError(
                f"nonpositive value at (date={panel.dates[t]}, "
                f"entity={panel.entities[i]}, layer={panel.layers[j]}); "
                "log transform needs positive inputs or log_epsilon > 0"
            )
        values = np.log(shifted)

    t_len = values.shape[0]
    n_lags = config.adf_lags if config.adf_lags is not None else default_adf_lags(t_len)
    if config.alpha is not None:
        alpha, source = float(config.alpha), "fixed"
    else:
        alpha = find_min_alpha(values.reshape(t_len, -1), config.alpha_grid,
                               level=config.adf_level, n_lags=n_lags)
        source = "search"

    diff = fracdiff_apply(values, alpha)

    n_dropped = 0
    dates = panel.dates
    if config.drop_burn_in:
        n_dropped = math.ceil(0.05 * t_len)
        if n_dropped >= t_len:
            raise ValueError("burn-in drop would remove the whole panel")
        diff = diff[n_dropped:]
        dates = dates[n_dropped:]

    out = PanelSeries(dates=dates, entities=panel.entities,
                      layers=panel.layers, values=diff)
    info = {
        "alpha": alpha,
        "alpha_source": source,
        "adf_level": config.adf_level,
        "adf_lags": n_lags,
        "log_transform": config.log_transform,
        "dropped_burn_in": n_dropped,
    }
    return out, info


def fit_model(panel: PanelSeries, config: PipelineConfig):
    """Select the ridge weight on a chronological split.

    Returns ``(model, info)``; the model is the one the lambda search
    trained on the first ``train_fraction`` of lagged pairs with the
    selected lambda.
    """
    model, report, table = fit_lambda_grid(panel.values, config.ranks, config,
                                           lag=config.lag)
    n_pairs = panel.values.shape[0] - config.lag
    n_train = int(n_pairs * config.train_fraction)
    info = {
        "lambda": model.ridge,
        "r2_table": [[lam, None if isinstance(r2, str) else r2] for lam, r2 in table.items()],
        "unscored": [[lam, r2] for lam, r2 in table.items() if isinstance(r2, str)],
        "ranks": list(model.core.shape),
        "n_train": n_train,
        "n_test": n_pairs - n_train,
        "n_sweeps": report.n_sweeps,
        "converged": report.converged,
        "objective_final": report.objective_trace[-1],
        "predicted_r2": report.predicted_r2,
    }
    return model, info


def filter_network(net: MultilayerNetwork, config: PipelineConfig):
    """Filter every block and report kept counts and thresholds per block.

    A block's threshold is its largest kept p-value (``polya``) or its
    smallest kept |weight| (``hard``)."""
    filtered = multinet.apply_filter(net, method=config.filter_method,
                                     retain_fraction=config.retain_fraction,
                                     a=config.filter_a)
    kept = filtered.kept
    kept_counts = kept.sum(axis=(2, 3)).astype(int)
    if config.filter_method == "polya":
        thresholds = np.where(kept, filtered.p_values, -np.inf).max(axis=(2, 3))
    else:
        thresholds = np.where(kept, np.abs(filtered.blocks), np.inf).min(axis=(2, 3))
    info = {
        "method": config.filter_method,
        "a": config.filter_a,
        "retain_fraction": config.retain_fraction,
        "kept_counts": kept_counts.tolist(),
        "thresholds": thresholds.tolist(),
        "total_kept": int(kept_counts.sum()),
        "total_edges": int(kept.size),
    }
    return filtered, info


def compute_measures(net: MultilayerNetwork, config: PipelineConfig):
    assort = multinet.assortativity_matrix(net)
    overlap = multinet.edge_overlap_matrix(net,
                                           normalized=config.overlap_normalized)
    strength = multinet.node_strength(net)
    coreness = multinet.k_coreness(net)
    return assort, overlap, strength, coreness


# ---------------------------------------------------------------------------
# exports


def export_network(net: MultilayerNetwork, path, fmt: str = "csv") -> str:
    """Write the network in one of the supported formats.

    ``csv`` lists every edge (kept or not) and round-trips exactly through
    :func:`import_network`; ``graphml`` and ``dot`` describe the filtered
    graph for external renderers, with node strength/coreness attached.
    """
    writers = {"csv": _write_network_csv, "graphml": _write_graphml, "dot": _write_dot}
    if fmt not in writers:
        raise ValueError(f"unknown format {fmt!r}")
    measures = () if fmt == "csv" else (multinet.node_strength(net), multinet.k_coreness(net))
    writers[fmt](net, str(path), *measures)
    return str(path)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_network_csv(net: MultilayerNetwork, path: str) -> None:
    entities = [csv_field(e) for e in net.entity_labels]
    layers = [csv_field(l) for l in net.layer_labels]
    # the label product runs in the C order of the grid
    rows = zip(itertools.product(layers, layers, entities, entities),
               net.blocks.ravel().tolist(), net.p_values.ravel().tolist(),
               net.kept.ravel().tolist())
    _write_lines(path, itertools.chain([",".join(NETWORK_HEADER)], (
        f"{src},{src_layer},{dst},{dst_layer},{_fmt(w)},{_fmt(p)},"
        f"{'true' if k else 'false'}"
        for (src_layer, dst_layer, src, dst), w, p, k in rows)))


def import_network(path) -> MultilayerNetwork:
    """Rebuild a network from its edge CSV, whose header and row rules are
    those of :func:`multitar.panel._csv_blocks`; the grid must hold every
    edge exactly once.  Labels keep their order of first appearance in the
    file.  The earliest row fault (field count, refused label, unparsable
    field) is reported before a grid fault (a repeated or missing edge)."""
    (entities, layers), ids, columns, row_nos = _read_long_csv(
        path, NETWORK_HEADER, ((0, 2), (1, 3)), (float, float, _parse_kept),
        "row {row}, column {column}: {error}")
    if not row_nos.size:
        raise ValueError("network CSV contains no edges")
    entities, layers = list(entities), list(layers)
    shape = (len(layers), len(layers), len(entities), len(entities))
    cells = np.ravel_multi_index([ids[1], ids[3], ids[0], ids[2]], shape)
    counts = np.bincount(cells, minlength=math.prod(shape))
    if counts.max() > 1:
        dup = int(np.setdiff1d(np.arange(cells.size),
                               np.unique(cells, return_index=True)[1])[0])
        raise ValueError(f"row {row_nos[dup]}: duplicate of the edge in row "
                         f"{row_nos[int(np.argmax(cells == cells[dup]))]}")
    if counts.min() == 0:
        j, l, i, m = np.unravel_index(int(np.argmin(counts)), shape)
        raise ValueError(
            f"incomplete edge grid: no row for the edge from ({entities[i]!r}, "
            f"{layers[j]!r}) to ({entities[m]!r}, {layers[l]!r})")
    blocks, pv, mask = grids = [np.empty(shape, t) for t in (float, float, bool)]
    for grid, column in zip(grids, columns):
        grid.reshape(-1)[cells] = column
    return MultilayerNetwork(entity_labels=entities, layer_labels=layers,
                             blocks=blocks, kept=mask, p_values=pv)


def _parse_kept(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _node_ids(net: MultilayerNetwork) -> list:
    """Each node's id, ``entity|layer`` with ``\\`` and ``|`` backslash-escaped
    in each label so that no two nodes share one, in (entity, layer) C order."""
    entities, layers = ([s.replace("\\", "\\\\").replace("|", "\\|") for s in labels]
                        for labels in (net.entity_labels, net.layer_labels))
    return [f"{e}|{l}" for e, l in itertools.product(entities, layers)]


def _kept_edges(net: MultilayerNetwork, ids: list):
    """``(source id, target id, weight, p-value)`` of each kept edge, in the
    block order of the edge CSV; ``ids`` is the writer's node id table."""
    j, l, i, k = np.nonzero(net.kept)
    src, dst = ([ids[n] for n in (e * net.n_layers + lay).tolist()]
                for e, lay in ((i, j), (k, l)))
    return zip(src, dst, net.blocks[net.kept].tolist(), net.p_values[net.kept].tolist())


def _graphml_data(key: str, text: str) -> str:
    """A node's ``<data>`` line; empty text closes the tag, as in ElementTree."""
    text = text.translate(_XML_TEXT)
    return (f'      <data key="{key}">{text}</data>' if text
            else f'      <data key="{key}" />')


def _write_graphml(net: MultilayerNetwork, path: str, strength, coreness) -> None:
    ids = [node.translate(_XML_ATTR) for node in _node_ids(net)]
    lines = [_GRAPHML_HEAD]
    nodes = itertools.product(net.entity_labels, net.layer_labels)
    for node, (entity, layer), s, c in zip(ids, nodes, strength.ravel().tolist(),
                                           coreness.ravel().tolist()):
        lines += [f'    <node id="{node}">',
                  _graphml_data("d_entity", entity),
                  _graphml_data("d_layer", layer),
                  f'      <data key="d_strength">{_fmt(s)}</data>',
                  f'      <data key="d_coreness">{int(c)}</data>', "    </node>"]
    for src, dst, w, p in _kept_edges(net, ids):
        lines += [f'    <edge source="{src}" target="{dst}">',
                  f'      <data key="d_weight">{_fmt(w)}</data>',
                  f'      <data key="d_pvalue">{_fmt(p)}</data>', "    </edge>"]
    lines += ["  </graph>", "</graphml>"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(net: MultilayerNetwork, path: str, strength, coreness) -> None:
    ids = [_dot_quote(node) for node in _node_ids(net)]
    lines = ["digraph multilayer {"]
    for j, (layer, strengths, cores) in enumerate(zip(
            net.layer_labels, strength.T.tolist(), coreness.T.tolist())):
        lines += [f"  subgraph cluster_{j} {{", f"    label={_dot_quote(layer)};"]
        lines += [f"    {node} [strength={_fmt(s)}, coreness={int(c)}];"
                  for node, s, c in zip(ids[j::net.n_layers], strengths, cores)]
        lines.append("  }")
    for src, dst, w, _ in _kept_edges(net, ids):
        lines.append(f"  {src} -> {dst} [weight={_fmt(w)}];")
    lines.append("}")
    _write_lines(path, lines)


def export_matrices(assortativity, overlap, strength, coreness,
                    entity_labels, layer_labels, out_dir) -> dict:
    """Write the two layer matrices and the per-node measure table as CSVs."""
    _check_labels(*entity_labels, *layer_labels)
    paths = {key: os.path.join(out_dir, OUTPUTS[key]) for key in _MATRICES}
    layer_labels = [csv_field(l) for l in layer_labels]
    for key, matrix in (("assortativity", assortativity), ("edge_overlap", overlap)):
        _write_lines(paths[key], ["layer," + ",".join(layer_labels)] + [
            label + "," + ",".join(map(_fmt, row))
            for label, row in zip(layer_labels, matrix.tolist())])
    nodes = itertools.product(map(csv_field, entity_labels), layer_labels)
    _write_lines(paths["node_measures"], itertools.chain(
        ["entity,layer,strength,coreness"],
        (f"{entity},{layer},{_fmt(s)},{int(c)}" for (entity, layer), s, c
         in zip(nodes, strength.ravel().tolist(), coreness.ravel().tolist()))))
    return paths


def save_model(model, panel: PanelSeries, info: dict, model_dir) -> None:
    os.makedirs(model_dir, exist_ok=True)
    np.save(os.path.join(model_dir, "coefficient.npy"), model.coefficient_tensor())
    np.save(os.path.join(model_dir, "intercept.npy"), model.intercept)
    np.save(os.path.join(model_dir, "x_mean.npy"), model.x_mean)
    np.save(os.path.join(model_dir, "y_mean.npy"), model.y_mean)
    meta = dict(info)
    meta["entities"] = list(panel.entities)
    meta["layers"] = list(panel.layers)
    _write_json(meta, os.path.join(model_dir, "meta.json"))


def load_model_coefficient(model_dir):
    """``(coefficient, (entities, layers))`` as saved by :func:`save_model`.
    A file that is missing or unreadable, a label list that is missing, or
    a coefficient that is not a float array of shape ``(I, J, I, J)`` for the
    I entities and J layers of the labels fails with the file's path."""
    npy = os.path.join(model_dir, "coefficient.npy")
    coefficient = _read(npy, partial(np.lib.format.read_array, allow_pickle=False))
    if coefficient.dtype.kind != "f":
        raise ValueError(f"{npy}: expected a float array, got {coefficient.dtype}")
    path = os.path.join(model_dir, "meta.json")
    meta = _read(path, lambda fh: json.loads(fh.read().decode("utf-8")))
    for key in ("entities", "layers"):
        labels = meta.get(key) if isinstance(meta, dict) else None
        if not (isinstance(labels, list) and all(isinstance(l, str) for l in labels)):
            raise ValueError(f"{path}: expected a list of labels under {key!r}")
    shape = 2 * (len(meta["entities"]), len(meta["layers"]))
    if coefficient.shape != shape:
        raise ValueError(f"{npy}: expected shape (I, J, I, J) = {shape} for the "
                         f"labels in meta.json, got {coefficient.shape}")
    return coefficient, (meta["entities"], meta["layers"])


def _read(path, read):
    """``read`` applied to the binary file ``path``; a fault names the path."""
    try:
        with open(path, "rb") as fh:
            return read(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # not a .npy array, not UTF-8 or not JSON
        raise ValueError(f"{path}: {exc}") from None


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the stage table


def _ingest_row(panel, config):
    return panel, None, {"panel": partial(export_panel, panel),
                         "panel_cube": partial(write_cube, panel)}


def _fracdiff_row(panel, config):
    differenced, info = prepare_panel(panel, config)
    return differenced, info, {"differenced_panel": partial(export_panel, differenced),
                               "differenced_cube": partial(write_cube, differenced)}


def _fit_row(panel, config):
    model, info = fit_model(panel, config)
    return ((model.coefficient_tensor(), (panel.entities, panel.layers)), info,
            {"model": partial(save_model, model, panel, info)})


def _build_network_row(fitted, config):
    coefficient, (entities, layers) = fitted
    net = multinet.from_coefficient(coefficient, entities, layers)
    return net, None, {"network_full": partial(export_network, net, fmt="csv")}


def _filter_row(net, config):
    filtered, info = filter_network(net, config)
    return filtered, info, {"network_csv": partial(export_network, filtered, fmt="csv")}


def _measure_row(net, config):
    assort, overlap, strength, coreness = compute_measures(net, config)
    return net, None, {
        "network_graphml": lambda path: _write_graphml(net, path, strength, coreness),
        "network_dot": lambda path: _write_dot(net, path, strength, coreness),
        _MATRICES: partial(export_matrices, assort, overlap, strength, coreness,
                           net.entity_labels, net.layer_labels)}


# The stage sequence in run order.  A row takes the previous stage's output
# and the config, only computes, and returns ``(output, info, files)``, info
# None if the stage records nothing; files maps the key in OUTPUTS or HANDOFFS
# of each file the stage writes to its writer.  Rows look the stage functions
# up as module globals when they run, so a patch applies to both drivers.
STAGES = {
    "ingest": _ingest_row,
    "fracdiff": _fracdiff_row,
    "fit": _fit_row,
    "build-network": _build_network_row,
    "filter": _filter_row,
    "measure": _measure_row,
}


def run_stage(name: str, data, config: PipelineConfig, staged: bool = False):
    """Run row ``name`` of :data:`STAGES` on ``data``; only then create
    ``config.out_dir`` and write there the row's files and, for a ``staged``
    command, the :data:`HANDOFFS` and ``<name>.json``.  Returns ``(output,
    info)``; any failure is re-raised as a ``name``-tagged :class:`PipelineError`."""
    try:
        output, info, files = STAGES[name](data, config)
        for key, write in files.items():
            if staged or key not in HANDOFFS:
                os.makedirs(config.out_dir, exist_ok=True)
                # a tuple of keys is the files of one writer, which takes out_dir
                write(config.out_dir if isinstance(key, tuple)
                      else os.path.join(config.out_dir, (OUTPUTS | HANDOFFS)[key]))
        if staged and info is not None:
            _write_json(info, os.path.join(config.out_dir, f"{name}.json"))
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc
    return output, info


def run_pipeline(config: PipelineConfig, panel: PanelSeries) -> dict:
    """Run every row of :data:`STAGES`, writing all artifacts under
    ``config.out_dir``; returns the manifest (also ``manifest.json``).
    The run is built in a temporary sibling of ``out_dir``, which replaces an
    earlier ``out_dir`` whole only once every stage has succeeded, so a failed
    run leaves ``out_dir`` as it was.  An ``out_dir`` that is the working
    directory or one of its ancestors, or that is neither an empty directory
    nor an earlier run's (with ``manifest.json``), is refused first.
    Any stage failure is re-raised as a stage-tagged :class:`PipelineError`.
    """
    out_dir = config.out_dir
    real = os.path.realpath(out_dir)
    try:
        cwd = os.path.realpath(os.getcwd())
    except FileNotFoundError:  # a deleted working directory lies under no out_dir
        cwd = None
    # renaming such a directory aside fails, or deletes the one the process runs in
    if cwd and os.path.commonpath([real, cwd]) == real:
        raise ValueError(f"refusing to replace {out_dir}: it is or holds the "
                         "working directory")
    if os.path.lexists(out_dir) and not (os.path.isdir(out_dir) and (
            not os.listdir(out_dir) or os.path.isfile(os.path.join(out_dir, "manifest.json")))):
        raise ValueError(f"refusing to replace {out_dir}: it is neither an empty "
                         "directory nor an earlier run's (no manifest.json)")
    parent = os.path.dirname(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=".multitar-", dir=parent)
    try:
        run = replace(config, out_dir=os.path.join(work, "new"))
        data, info = panel, {}
        for name in STAGES:
            data, info[name] = run_stage(name, data, run)
        manifest = {
            "config": config.resolved(),
            "panel": {
                "n_dates": panel.n_dates,
                "n_entities": len(panel.entities),
                "n_layers": len(panel.layers),
                "first_date": panel.dates[0],
                "last_date": panel.dates[-1],
                "entities": list(panel.entities),
                "layers": list(panel.layers),
            },
            "fracdiff": info["fracdiff"],
            "fit": info["fit"],
            "filter": info["filter"],
            "measures": {"overlap_normalized": config.overlap_normalized},
            "outputs": dict(OUTPUTS),
        }
        _write_json(manifest, os.path.join(run.out_dir, "manifest.json"))
        if os.path.lexists(out_dir):
            os.rename(out_dir, os.path.join(work, "old"))
        os.rename(run.out_dir, out_dir)
    finally:
        shutil.rmtree(work)
    return manifest

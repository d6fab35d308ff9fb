"""End-to-end orchestration: configuration, the stage table, and exports.

The stages (log-transform and fractional differencing, ridge selection and
ALS fit, network blocks, per-block filtering, layer measures) are written
once, as the rows of :data:`STAGES`.  :func:`run_pipeline` chains them in
memory and writes a manifest recording every resolved parameter, so the run
can be reproduced from the manifest alone; each staged CLI command runs one
row.  Identical config, panel and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from array import array
from dataclasses import dataclass, fields

import numpy as np

from . import multinet
from .fracdiff import (ADF_CRITICAL_VALUES, FracDiffSpec, default_adf_lags,
                       find_min_alpha, fracdiff_apply)
from .multinet import MultilayerNetwork
from .panel import (PanelSeries, _check_labels, _check_row_labels, _csv_rows,
                    csv_field, export_panel)
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
        object.__setattr__(self, "alpha_grid",
                           tuple(float(v) for v in self.alpha_grid))
        object.__setattr__(self, "ranks", check_ranks(self.ranks))

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Parse the flat ``key = value`` config format with typed validation."""
        values = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected 'key = value'")
                key, _, val = (s.strip() for s in line.partition("="))
                if key not in _DEFAULTS:
                    raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
                if key in values:
                    raise ValueError(f"{path}:{line_no}: duplicate key {key!r}")
                values[key] = _parse_config_value(key, val)
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

    diff = fracdiff_apply(values, FracDiffSpec(alpha=alpha, n_weights=t_len))

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
        "r2_table": [[lam, table[lam]] for lam in config.lambda_grid],
        "ranks": list(model.coefficient.ranks),
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
    writers = {"graphml": _write_graphml, "dot": _write_dot}
    if fmt == "csv":
        _write_network_csv(net, str(path))
    elif fmt in writers:
        writers[fmt](net, str(path), multinet.node_strength(net),
                     multinet.k_coreness(net))
    else:
        raise ValueError(f"unknown format {fmt!r}")
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
    those of :func:`multitar.panel._csv_rows`; the grid must hold every edge
    exactly once.  Labels keep their order of first appearance in the file.
    The earliest row fault (field count, refused label, unparsable field)
    is reported before a grid fault (a repeated or missing edge)."""
    entities, layers = {}, {}  # label -> id in order of first appearance
    # per row: its (src layer, dst layer, src entity, dst entity) ids
    axes, ids, row_nos = (layers, layers, entities, entities), [], array("q")
    weights, p_values, kept = columns = array("d"), array("d"), array("b")
    try:
        for row_no, row in _csv_rows(path, NETWORK_HEADER):
            try:
                weights.append(float(row[4]))
                p_values.append(float(row[5]))
                kept.append(_parse_kept(row[6]))
            except ValueError as exc:
                # the fields of this row already appended name the failing one
                parsed = sum(map(len, columns)) - 3 * len(row_nos)
                raise ValueError(f"row {row_no}, column "
                                 f"{NETWORK_HEADER[4 + parsed]}: {exc}") from None
            ids.extend((layers.setdefault(row[1], len(layers)),
                        layers.setdefault(row[3], len(layers)),
                        entities.setdefault(row[0], len(entities)),
                        entities.setdefault(row[2], len(entities))))
            row_nos.append(row_no)
    except ValueError:
        _check_row_labels(axes, ids, row_nos)  # an earlier row's fault wins
        raise
    if not row_nos:
        raise ValueError("network CSV contains no edges")
    ids = np.reshape(ids, (-1, 4))
    _check_row_labels(axes, ids, row_nos)
    entities, layers = list(entities), list(layers)
    shape = (len(layers), len(layers), len(entities), len(entities))
    cells = np.ravel_multi_index(ids.T, shape)
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


def _node_id(entity: str, layer: str) -> str:
    """``entity|layer`` with ``\\`` and ``|`` backslash-escaped in each label,
    so that no two (entity, layer) pairs share an id."""
    return "|".join(s.replace("\\", "\\\\").replace("|", "\\|")
                    for s in (entity, layer))


def _kept_edges(net: MultilayerNetwork):
    """``(source id, target id, weight, p-value)`` of each kept edge, in the
    block order of the edge CSV."""
    ent, lay, kept = net.entity_labels, net.layer_labels, net.kept
    for j, l, i, k, w, p in zip(*(a.tolist() for a in np.nonzero(kept)),
                                net.blocks[kept].tolist(),
                                net.p_values[kept].tolist()):
        yield _node_id(ent[i], lay[j]), _node_id(ent[k], lay[l]), w, p


def _graphml_data(key: str, text: str) -> str:
    """A node's ``<data>`` line; empty text closes the tag, as in ElementTree."""
    text = text.translate(_XML_TEXT)
    return (f'      <data key="{key}">{text}</data>' if text
            else f'      <data key="{key}" />')


def _write_graphml(net: MultilayerNetwork, path: str, strength,
                   coreness) -> None:
    lines = [_GRAPHML_HEAD]
    nodes = itertools.product(net.entity_labels, net.layer_labels)
    for (entity, layer), s, c in zip(nodes, strength.ravel().tolist(),
                                     coreness.ravel().tolist()):
        lines += [f'    <node id="{_node_id(entity, layer).translate(_XML_ATTR)}">',
                  _graphml_data("d_entity", entity),
                  _graphml_data("d_layer", layer),
                  f'      <data key="d_strength">{_fmt(s)}</data>',
                  f'      <data key="d_coreness">{int(c)}</data>', "    </node>"]
    for src, dst, w, p in _kept_edges(net):
        lines += [f'    <edge source="{src.translate(_XML_ATTR)}" '
                  f'target="{dst.translate(_XML_ATTR)}">',
                  f'      <data key="d_weight">{_fmt(w)}</data>',
                  f'      <data key="d_pvalue">{_fmt(p)}</data>', "    </edge>"]
    lines += ["  </graph>", "</graphml>"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(net: MultilayerNetwork, path: str, strength, coreness) -> None:
    lines = ["digraph multilayer {"]
    for j, (layer, strengths, cores) in enumerate(zip(
            net.layer_labels, strength.T.tolist(), coreness.T.tolist())):
        lines += [f"  subgraph cluster_{j} {{", f"    label={_dot_quote(layer)};"]
        for entity, s, c in zip(net.entity_labels, strengths, cores):
            lines.append(f"    {_dot_quote(_node_id(entity, layer))} "
                         f"[strength={_fmt(s)}, coreness={int(c)}];")
        lines.append("  }")
    for src, dst, w, _ in _kept_edges(net):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [weight={_fmt(w)}];")
    lines.append("}")
    _write_lines(path, lines)


def export_matrices(assortativity, overlap, strength, coreness,
                    entity_labels, layer_labels, out_dir) -> dict:
    """Write the two layer matrices and the per-node measure table as CSVs."""
    _check_labels(*entity_labels, *layer_labels)
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, OUTPUTS[key])
             for key in ("assortativity", "edge_overlap", "node_measures")}
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
    """``(coefficient, (entities, layers))`` as saved by :func:`save_model`."""
    coefficient = np.load(os.path.join(model_dir, "coefficient.npy"))
    with open(os.path.join(model_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    return coefficient, (meta["entities"], meta["layers"])


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the stage table


def _out(config: PipelineConfig, key: str) -> str:
    return os.path.join(config.out_dir, OUTPUTS[key])


def _fracdiff_row(panel, config):
    differenced, info = prepare_panel(panel, config)
    export_panel(differenced, _out(config, "differenced_panel"))
    return differenced, info


def _fit_row(panel, config):
    model, info = fit_model(panel, config)
    save_model(model, panel, info, _out(config, "model"))
    return (model.coefficient_tensor(), (panel.entities, panel.layers)), info


def _build_network_row(fitted, config):
    coefficient, (entities, layers) = fitted
    return multinet.from_coefficient(coefficient, entities, layers), None


def _filter_row(net, config):
    filtered, info = filter_network(net, config)
    export_network(filtered, _out(config, "network_csv"), "csv")
    return filtered, info


def _measure_row(net, config):
    assort, overlap, strength, coreness = compute_measures(net, config)
    _write_graphml(net, _out(config, "network_graphml"), strength, coreness)
    _write_dot(net, _out(config, "network_dot"), strength, coreness)
    export_matrices(assort, overlap, strength, coreness,
                    net.entity_labels, net.layer_labels, config.out_dir)
    return net, None


# The stage sequence in run order.  A row takes the previous stage's output
# and the config, writes the stage's artifacts to out_dir and returns
# ``(output, info)``, info None if the stage records nothing.  Rows look the
# stage functions up as module globals when they run, so a patch applies to
# run_pipeline and the CLI alike.
STAGES = {
    "fracdiff": _fracdiff_row,
    "fit": _fit_row,
    "build-network": _build_network_row,
    "filter": _filter_row,
    "measure": _measure_row,
}


def run_stage(name: str, data, config: PipelineConfig):
    """Run row ``name`` of :data:`STAGES` on ``data``; returns its
    ``(output, info)`` and re-raises any failure as a ``name``-tagged
    :class:`PipelineError`."""
    try:
        return STAGES[name](data, config)
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def run_pipeline(config: PipelineConfig, panel: PanelSeries) -> dict:
    """Run every row of :data:`STAGES`, writing all artifacts under
    ``config.out_dir``; returns the manifest (also ``manifest.json``).
    Any stage failure is re-raised as a stage-tagged :class:`PipelineError`.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    data, info = panel, {}
    for name in STAGES:
        data, info[name] = run_stage(name, data, config)
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
    _write_json(manifest, os.path.join(config.out_dir, "manifest.json"))
    return manifest

"""Multilayer network assembly and diagnostics.

The coefficient tensor of the fitted autoregression doubles as a directed
weighted multilayer network: entry ``B[i, j, k, l]`` is the edge from entity
``i`` in layer ``j`` to entity ``k`` in layer ``l``.  Blocks are stored as an
``(n_layers, n_layers, n_entities, n_entities)`` grid; a parallel boolean
grid marks which edges survived filtering, and measures only see kept edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import netfilter


@dataclass(frozen=True)
class MultilayerNetwork:
    """Directed weighted multilayer network in block form.

    ``blocks[j, l, i, k]`` is the weight from (entity i, layer j) to
    (entity k, layer l); ``kept[j, l, i, k]`` marks surviving edges and
    ``p_values`` holds filter p-values (NaN before filtering or for methods
    without p-values).
    """

    entity_labels: tuple
    layer_labels: tuple
    blocks: np.ndarray
    kept: np.ndarray
    p_values: np.ndarray

    def __post_init__(self):
        e = tuple(str(s) for s in self.entity_labels)
        l = tuple(str(s) for s in self.layer_labels)
        blocks = np.asarray(self.blocks, dtype=np.float64)
        kept = np.asarray(self.kept, dtype=bool)
        pv = np.asarray(self.p_values, dtype=np.float64)
        shape = (len(l), len(l), len(e), len(e))
        if blocks.shape != shape or kept.shape != shape or pv.shape != shape:
            raise ValueError(f"blocks, kept, p_values must all have shape {shape}")
        if not np.all(np.isfinite(blocks)):
            raise ValueError("block weights must be finite")
        if len(set(e)) != len(e) or len(set(l)) != len(l):
            raise ValueError("entity and layer labels must be unique")
        object.__setattr__(self, "entity_labels", e)
        object.__setattr__(self, "layer_labels", l)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "p_values", pv)

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_layers(self) -> int:
        return len(self.layer_labels)


@dataclass(frozen=True)
class LayerMatrix:
    """Square layer-by-layer summary; ``kind`` is 'assortativity' or 'overlap'."""

    values: np.ndarray
    kind: str


def from_coefficient(b, entity_labels, layer_labels) -> MultilayerNetwork:
    """Arrange a coefficient tensor of shape (I, J, I, J) into layer blocks.

    ``blocks[j, l, i, k] = b[i, j, k, l]``; all edges start out kept.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 4 or b.shape[0] != b.shape[2] or b.shape[1] != b.shape[3]:
        raise ValueError(
            f"expected coefficient shape (I, J, I, J), got {b.shape}"
        )
    n_e, n_l = b.shape[0], b.shape[1]
    if len(entity_labels) != n_e or len(layer_labels) != n_l:
        raise ValueError("label counts do not match coefficient extents")
    blocks = np.ascontiguousarray(b.transpose(1, 3, 0, 2))
    return MultilayerNetwork(
        entity_labels=tuple(entity_labels),
        layer_labels=tuple(layer_labels),
        blocks=blocks,
        kept=np.ones(blocks.shape, dtype=bool),
        p_values=np.full(blocks.shape, np.nan),
    )


def apply_filter(net: MultilayerNetwork, method: str = "polya",
                 retain_fraction: float = 0.1, a: float = 1.0) -> MultilayerNetwork:
    """Filter every layer-pair block as an independent complete digraph, the
    whole block grid in one call.

    Self-loops on the block diagonal participate like any other edge.
    Returns a new network with updated keep masks and p-values.
    """
    if method not in ("polya", "hard"):
        raise ValueError(f"method must be 'polya' or 'hard', got {method!r}")
    g = netfilter.WeightedDigraph(net.blocks)
    if method == "polya":
        res = netfilter.polya_filter(g, a, retain_fraction)
    else:
        res = netfilter.hard_threshold_filter(g, retain_fraction)
    return replace(net, kept=res.kept, p_values=res.p_values)


def assortativity_matrix(net: MultilayerNetwork) -> LayerMatrix:
    """Pearson correlation between per-entity intra-layer degree sequences.

    Degrees are in-degree plus out-degree on kept edges of each layer's
    diagonal block.  Entries where either sequence is constant are undefined
    and reported as NaN rather than 0.
    """
    n_l = net.n_layers
    degrees = np.empty((n_l, net.n_entities))
    for j in range(n_l):
        intra = net.kept[j, j]
        degrees[j] = intra.sum(axis=1) + intra.sum(axis=0)
    values = np.full((n_l, n_l), np.nan)
    for j in range(n_l):
        for l in range(n_l):
            a = degrees[j] - degrees[j].mean()
            b = degrees[l] - degrees[l].mean()
            denom = np.sqrt((a @ a) * (b @ b))
            if denom > 0.0:
                values[j, l] = 1.0 if j == l else float((a @ b) / denom)
    return LayerMatrix(values=values, kind="assortativity")


def edge_overlap_matrix(net: MultilayerNetwork, normalized: bool = False) -> LayerMatrix:
    """Count ordered entity pairs linked intra-layer in both of two layers.

    Self-loops are excluded.  With ``normalized`` the count is divided by the
    size of the union of the two edge sets (0 when the union is empty).
    """
    n_l, n_e = net.n_layers, net.n_entities
    off_diag = ~np.eye(n_e, dtype=bool)
    intra = np.array([net.kept[j, j] & off_diag for j in range(n_l)])
    values = np.zeros((n_l, n_l))
    for j in range(n_l):
        for l in range(n_l):
            inter = int(np.count_nonzero(intra[j] & intra[l]))
            if normalized:
                union = int(np.count_nonzero(intra[j] | intra[l]))
                values[j, l] = inter / union if union else 0.0
            else:
                values[j, l] = inter
    return LayerMatrix(values=values, kind="overlap")


def node_strength(net: MultilayerNetwork) -> np.ndarray:
    """Sum of absolute weights over kept edges incident to each node.

    Returns an (n_entities, n_layers) array; every kept edge contributes its
    magnitude once at the source and once at the target, so a kept self-loop
    counts twice at its node.
    """
    w = np.abs(net.blocks) * net.kept
    out_strength = w.sum(axis=(1, 3)).T  # (entity, source layer)
    in_strength = w.sum(axis=(0, 2)).T   # (entity, target layer)
    return out_strength + in_strength


def k_coreness(net: MultilayerNetwork) -> np.ndarray:
    """Core number of every node on the binarized multilayer projection.

    The projection is an undirected simple graph on entity-layer nodes with
    an edge when either direction is kept in any block; self-loops are
    dropped.  Returns an (n_entities, n_layers) integer array.
    """
    n_e, n_l = net.n_entities, net.n_layers
    n = n_e * n_l
    # adjacency[(e, j), (k, l)] from blocks[j, l, e, k]
    adj = np.ascontiguousarray(net.kept.transpose(2, 0, 3, 1)).reshape(n, n)
    adj = adj | adj.T
    np.fill_diagonal(adj, False)
    return _core_numbers(adj).reshape(n_e, n_l)


def _core_numbers(adj: np.ndarray) -> np.ndarray:
    """Batagelj-Zaversnik peeling on a boolean adjacency matrix."""
    n = adj.shape[0]
    degree = adj.sum(axis=1).astype(np.int64)
    order = np.argsort(degree, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    # bin_start[d] = first position with degree >= d in the sorted order
    max_deg = int(degree.max()) if n else 0
    counts = np.bincount(degree, minlength=max_deg + 1)
    bin_start = np.concatenate(([0], np.cumsum(counts)[:-1]))

    deg = degree.copy()
    core = np.zeros(n, dtype=np.int64)
    neighbors = [np.flatnonzero(adj[v]) for v in range(n)]
    for i in range(n):
        v = order[i]
        core[v] = deg[v]
        for u in neighbors[v]:
            if deg[u] > deg[v]:
                du = deg[u]
                pu, pw = position[u], bin_start[du]
                w = order[pw]
                if u != w:
                    order[pu], order[pw] = w, u
                    position[u], position[w] = pw, pu
                bin_start[du] += 1
                deg[u] -= 1
    return core

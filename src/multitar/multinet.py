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


def assortativity_matrix(net: MultilayerNetwork) -> np.ndarray:
    """Pearson correlation between per-entity intra-layer degree sequences.

    Degrees are in-degree plus out-degree on kept edges of each layer's
    diagonal block.  Entries where either sequence is constant are undefined
    and reported as NaN rather than 0.  Returns an (n_layers, n_layers) array.
    """
    n_l = net.n_layers
    intra = net.kept[np.arange(n_l), np.arange(n_l)]
    degrees = intra.sum(axis=2) + intra.sum(axis=1)
    centred = degrees - degrees.mean(axis=1, keepdims=True)
    # Pair by pair, not one centred @ centred.T: the matrix product sums in
    # another order and would change the last bits of the correlations.
    values = np.full((n_l, n_l), np.nan)
    for j in range(n_l):
        for l in range(n_l):
            a, b = centred[j], centred[l]
            denom = np.sqrt((a @ a) * (b @ b))
            if denom > 0.0:
                values[j, l] = 1.0 if j == l else float((a @ b) / denom)
    return values


def edge_overlap_matrix(net: MultilayerNetwork, normalized: bool = False) -> np.ndarray:
    """Count ordered entity pairs linked intra-layer in both of two layers.

    Self-loops are excluded.  With ``normalized`` the count is divided by the
    size of the union of the two edge sets (0 when the union is empty).
    Returns an (n_layers, n_layers) array.
    """
    n_l, n_e = net.n_layers, net.n_entities
    intra = net.kept[np.arange(n_l), np.arange(n_l)] & ~np.eye(n_e, dtype=bool)
    flat = intra.reshape(n_l, -1).astype(np.int64)
    inter = flat @ flat.T
    if not normalized:
        return inter.astype(np.float64)
    size = np.diag(inter)
    union = size[:, None] + size[None, :] - inter
    return np.divide(inter, union, out=np.zeros((n_l, n_l)), where=union > 0)


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
    dropped.  Cores are peeled by level: at level ``k`` (the smallest live
    degree, never below the previous level) every live node of degree at
    most ``k`` gets core ``k`` and is removed at once.  Returns an
    (n_entities, n_layers) integer array.
    """
    n_e, n_l = net.n_entities, net.n_layers
    n = n_e * n_l
    # adjacency[(e, j), (k, l)] from blocks[j, l, e, k]
    adj = np.ascontiguousarray(net.kept.transpose(2, 0, 3, 1)).reshape(n, n)
    adj = adj | adj.T
    np.fill_diagonal(adj, False)
    degree = adj.sum(axis=1)
    core = np.zeros(n, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    k = 0
    while live.any():
        k = max(k, int(degree[live].min()))
        removed = live & (degree <= k)
        core[removed] = k
        live &= ~removed
        degree -= adj[removed].sum(axis=0)
    return core.reshape(n_e, n_l)

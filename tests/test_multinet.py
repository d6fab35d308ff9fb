"""Multilayer assembly and measures against brute-force oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multitar import netfilter
from multitar.multinet import (
    MultilayerNetwork,
    apply_filter,
    assortativity_matrix,
    edge_overlap_matrix,
    from_coefficient,
    k_coreness,
    node_strength,
)


def make_network(kept, blocks=None):
    """Network from explicit masks (and optional weights)."""
    n_l, _, n_e, _ = kept.shape
    if blocks is None:
        blocks = np.where(kept, 1.0, 0.0)
    return MultilayerNetwork(
        entity_labels=[f"E{i}" for i in range(n_e)],
        layer_labels=[f"L{j}" for j in range(n_l)],
        blocks=blocks,
        kept=kept,
        p_values=np.full(kept.shape, np.nan),
    )


def random_network(rng, n_e, n_l, keep_prob=0.25):
    blocks = rng.standard_normal((n_l, n_l, n_e, n_e))
    kept = rng.random((n_l, n_l, n_e, n_e)) < keep_prob
    return make_network(kept, blocks)


# ---------------------------------------------------------------------------
# brute-force oracles


def strength_oracle(net):
    out = np.zeros((net.n_entities, net.n_layers))
    for j in range(net.n_layers):
        for l in range(net.n_layers):
            for i in range(net.n_entities):
                for k in range(net.n_entities):
                    if net.kept[j, l, i, k]:
                        w = abs(net.blocks[j, l, i, k])
                        out[i, j] += w
                        out[k, l] += w
    return out


def coreness_oracle(net):
    """Naive repeated deletion: strip all nodes below k, loop until stable."""
    n_e, n_l = net.n_entities, net.n_layers
    nodes = [(i, j) for i in range(n_e) for j in range(n_l)]
    edges = set()
    for j in range(net.n_layers):
        for l in range(net.n_layers):
            for i in range(n_e):
                for k in range(n_e):
                    if net.kept[j, l, i, k] and (i, j) != (k, l):
                        edges.add(frozenset([(i, j), (k, l)]))
    core = {v: 0 for v in nodes}
    k = 1
    alive = set(nodes)
    live_edges = set(edges)
    while alive:
        while True:
            degree = {v: 0 for v in alive}
            for e in live_edges:
                for v in e:
                    degree[v] += 1
            doomed = {v for v in alive if degree[v] < k}
            if not doomed:
                break
            alive -= doomed
            live_edges = {e for e in live_edges if not (e & doomed)}
        for v in alive:
            core[v] = k
        k += 1
    out = np.zeros((n_e, n_l), dtype=int)
    for (i, j), c in core.items():
        out[i, j] = c
    return out


def pearson_oracle(a, b):
    am, bm = a - np.mean(a), b - np.mean(b)
    den = np.sqrt(np.sum(am ** 2) * np.sum(bm ** 2))
    return np.sum(am * bm) / den if den > 0 else np.nan


class TestFromCoefficient:
    def test_single_entry_lands_in_right_block(self):
        b = np.zeros((3, 4, 3, 4))
        b[0, 1, 2, 3] = 5.0
        net = from_coefficient(b, [f"E{i}" for i in range(3)],
                               [f"L{j}" for j in range(4)])
        assert net.blocks[1, 3, 0, 2] == 5.0
        assert np.count_nonzero(net.blocks) == 1
        assert net.kept.all()

    def test_symmetry_transported_per_block(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 2, 4, 2))
        b = 0.5 * (b + b.transpose(2, 1, 0, 3))  # B[i,j,k,l] == B[k,j,i,l]
        net = from_coefficient(b, list("abcd"), list("xy"))
        for j in range(2):
            for l in range(2):
                np.testing.assert_allclose(net.blocks[j, l],
                                           net.blocks[j, l].T, atol=1e-15)

    def test_round_trip_against_quadruple_loop(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 2, 3, 2))
        net = from_coefficient(b, list("abc"), list("xy"))
        for i in range(3):
            for j in range(2):
                for k in range(3):
                    for l in range(2):
                        assert net.blocks[j, l, i, k] == b[i, j, k, l]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            from_coefficient(np.zeros((3, 2, 2, 3)), list("abc"), list("xy"))


class TestApplyFilter:
    def test_retain_all_keeps_masks(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((4, 2, 4, 2))
        net = from_coefficient(b, list("abcd"), list("xy"))
        filtered = apply_filter(net, method="polya", retain_fraction=1.0)
        assert filtered.kept.all()

    @pytest.mark.parametrize("method", ["polya", "hard"])
    def test_dominant_edge_survives_per_block(self, method):
        rng = np.random.default_rng(3)
        n_e = 4
        b = 0.01 * rng.standard_normal((n_e, 2, n_e, 2))
        dominant = {}
        for j in range(2):
            for l in range(2):
                i, k = rng.integers(0, n_e, 2)
                b[i, j, k, l] = 50.0
                dominant[(j, l)] = (i, k)
        net = from_coefficient(b, [f"E{i}" for i in range(n_e)], list("xy"))
        filtered = apply_filter(net, method=method,
                                retain_fraction=1.0 / n_e ** 2)
        for (j, l), (i, k) in dominant.items():
            assert filtered.kept[j, l].sum() == 1
            assert filtered.kept[j, l, i, k]

    @pytest.mark.parametrize("method", ["polya", "hard"])
    def test_dense_block_retention(self, method):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((26, 4, 26, 4))
        net = from_coefficient(b, [f"E{i:02d}" for i in range(26)],
                               [f"L{j}" for j in range(4)])
        filtered = apply_filter(net, method=method, retain_fraction=0.1)
        counts = filtered.kept.sum(axis=(2, 3))
        assert np.all(np.abs(counts - 67.6) <= 1.0)

    def test_polya_fills_pvalues(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 2, 3, 2))
        net = from_coefficient(b, list("abc"), list("xy"))
        filtered = apply_filter(net, method="polya", retain_fraction=0.5)
        assert np.isfinite(filtered.p_values).all()
        filtered_hard = apply_filter(net, method="hard", retain_fraction=0.5)
        assert np.isnan(filtered_hard.p_values).all()

    @pytest.mark.parametrize("method", ["polya", "hard"])
    def test_one_filter_call_for_the_whole_grid(self, method, monkeypatch):
        calls = []
        for name in ("polya_filter", "hard_threshold_filter"):
            real = getattr(netfilter, name)

            def counting(g, *args, name=name, real=real):
                calls.append((name, g.weights.shape))
                return real(g, *args)

            monkeypatch.setattr(netfilter, name, counting)
        rng = np.random.default_rng(7)
        net = from_coefficient(rng.standard_normal((5, 3, 5, 3)),
                               list("abcde"), list("xyz"))
        apply_filter(net, method=method, retain_fraction=0.2)
        name = "polya_filter" if method == "polya" else "hard_threshold_filter"
        assert calls == [(name, (3, 3, 5, 5))]

    def test_unknown_method(self):
        net = from_coefficient(np.zeros((2, 2, 2, 2)), list("ab"), list("xy"))
        with pytest.raises(ValueError, match="method"):
            apply_filter(net, method="disparity")

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n_e=st.integers(1, 5),
        n_l=st.integers(1, 3),
        retain=st.floats(0.0, 1.0, exclude_min=True),
        a=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        scale=st.floats(1e-3, 1e3),
    )
    def test_retention_and_polya_block_scale_invariance(self, data, n_e, n_l,
                                                         retain, a, scale):
        b = data.draw(arrays(np.float64, (n_e, n_l, n_e, n_l),
                             elements=st.floats(-10.0, 10.0,
                                                allow_subnormal=False)))
        net = from_coefficient(b, [f"E{i}" for i in range(n_e)],
                               [f"L{j}" for j in range(n_l)])
        for method in ("polya", "hard"):
            kept = apply_filter(net, method=method, retain_fraction=retain,
                                a=a).kept
            assert np.all(kept.sum(axis=(2, 3)) == math.ceil(retain * n_e ** 2))

        j, l = data.draw(st.tuples(st.integers(0, n_l - 1),
                                   st.integers(0, n_l - 1)))
        blocks = net.blocks.copy()
        blocks[j, l] *= scale
        scaled = dataclasses.replace(net, blocks=blocks)
        p = apply_filter(net, retain_fraction=retain, a=a).p_values
        p_scaled = apply_filter(scaled, retain_fraction=retain, a=a).p_values
        np.testing.assert_allclose(p_scaled, p, rtol=0.0, atol=1e-12)


class TestAssortativity:
    def test_identical_intra_topology_gives_one(self):
        rng = np.random.default_rng(6)
        intra = rng.random((5, 5)) < 0.4
        kept = np.zeros((2, 2, 5, 5), dtype=bool)
        kept[0, 0] = intra
        kept[1, 1] = intra
        m = assortativity_matrix(make_network(kept))
        assert m.shape == (2, 2)
        assert m[0, 1] == pytest.approx(1.0)

    def test_reversed_degree_sequences_give_minus_one(self):
        # layer 0 total degrees (1, 2, 3), layer 1 the reverse (3, 2, 1)
        kept = np.zeros((2, 2, 3, 3), dtype=bool)
        kept[0, 0, 2, 0] = kept[0, 0, 2, 1] = kept[0, 0, 1, 2] = True
        kept[1, 1, 0, 2] = kept[1, 1, 0, 1] = kept[1, 1, 1, 0] = True
        net = make_network(kept)
        deg0 = kept[0, 0].sum(1) + kept[0, 0].sum(0)
        deg1 = kept[1, 1].sum(1) + kept[1, 1].sum(0)
        assert list(deg0) == [1, 2, 3] and list(deg1) == [3, 2, 1]
        m = assortativity_matrix(net)
        assert m[0, 1] == pytest.approx(-1.0)
        assert m[1, 0] == pytest.approx(-1.0)

    def test_matches_scalar_formula_on_random_masks(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, 10, 3)
        m = assortativity_matrix(net)
        degs = [net.kept[j, j].sum(1) + net.kept[j, j].sum(0) for j in range(3)]
        for j in range(3):
            for l in range(3):
                if j == l:
                    continue
                assert m[j, l] == pytest.approx(pearson_oracle(degs[j], degs[l]),
                                                abs=1e-12)
        np.testing.assert_allclose(m, m.T, atol=1e-15)
        assert np.all((m[np.isfinite(m)] >= -1.0) & (m[np.isfinite(m)] <= 1.0))

    def test_constant_degree_sequence_flagged_nan(self):
        kept = np.zeros((2, 2, 4, 4), dtype=bool)
        kept[0, 0] = ~np.eye(4, dtype=bool)  # complete: constant degrees
        kept[1, 1, 0, 1] = True
        m = assortativity_matrix(make_network(kept))
        assert np.isnan(m[0, 1]) and np.isnan(m[1, 0]) and np.isnan(m[0, 0])
        assert m[1, 1] == 1.0


class TestEdgeOverlap:
    def test_identical_masks_count_edges(self):
        rng = np.random.default_rng(8)
        intra = rng.random((6, 6)) < 0.3
        np.fill_diagonal(intra, False)
        kept = np.zeros((2, 2, 6, 6), dtype=bool)
        kept[0, 0] = intra
        kept[1, 1] = intra
        m = edge_overlap_matrix(make_network(kept))
        e = intra.sum()
        assert m[0, 1] == e and m[0, 0] == e and m[1, 1] == e

    def test_disjoint_masks_give_zero(self):
        kept = np.zeros((2, 2, 4, 4), dtype=bool)
        kept[0, 0, 0, 1] = True
        kept[1, 1, 2, 3] = True
        m = edge_overlap_matrix(make_network(kept))
        assert m[0, 1] == 0.0

    def test_self_loops_excluded(self):
        kept = np.zeros((2, 2, 3, 3), dtype=bool)
        kept[0, 0] = np.eye(3, dtype=bool)
        kept[1, 1] = np.eye(3, dtype=bool)
        m = edge_overlap_matrix(make_network(kept))
        assert np.all(m == 0.0)

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, 8, 4)
        m = edge_overlap_matrix(net)
        for j in range(4):
            for l in range(4):
                count = 0
                for i in range(8):
                    for k in range(8):
                        if i != k and net.kept[j, j, i, k] and net.kept[l, l, i, k]:
                            count += 1
                assert m[j, l] == count
        np.testing.assert_array_equal(m, m.T)

    def test_normalized_fraction(self):
        rng = np.random.default_rng(10)
        net = random_network(rng, 8, 3)
        m = edge_overlap_matrix(net, normalized=True)
        assert np.all((m >= 0.0) & (m <= 1.0))
        np.testing.assert_allclose(np.diag(m), 1.0)

    def test_normalized_matches_pair_enumeration_oracle(self):
        kept = np.random.default_rng(16).random((4, 4, 7, 7)) < 0.4
        # layers 2 and 3 keep no intra-layer edge but self-loops, so their
        # union is empty and the fraction is 0
        kept[2, 2] = False
        kept[3, 3] = np.eye(7, dtype=bool)
        net = make_network(kept)
        m = edge_overlap_matrix(net, normalized=True)
        for j in range(4):
            for l in range(4):
                inter = union = 0
                for i in range(7):
                    for k in range(7):
                        a, b = net.kept[j, j, i, k], net.kept[l, l, i, k]
                        if i != k:
                            inter += bool(a and b)
                            union += bool(a or b)
                assert m[j, l] == (inter / union if union else 0.0)
        assert m[2, 3] == 0.0 and m[0, 1] > 0.0


class TestNodeStrength:
    def test_isolated_node_zero(self):
        kept = np.zeros((1, 1, 3, 3), dtype=bool)
        kept[0, 0, 0, 1] = True
        s = node_strength(make_network(kept))
        assert s[2, 0] == 0.0

    def test_single_negative_cross_layer_edge(self):
        kept = np.zeros((2, 2, 2, 2), dtype=bool)
        blocks = np.zeros((2, 2, 2, 2))
        kept[0, 1, 0, 1] = True      # (entity 0, layer 0) -> (entity 1, layer 1)
        blocks[0, 1, 0, 1] = -2.0
        s = node_strength(make_network(kept, blocks))
        assert s[0, 0] == 2.0
        assert s[1, 1] == 2.0
        assert s.sum() == 4.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, 7, 3)
        np.testing.assert_allclose(node_strength(net), strength_oracle(net),
                                   atol=1e-12)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(12)
        net = random_network(rng, 5, 2)
        flipped = MultilayerNetwork(
            entity_labels=net.entity_labels,
            layer_labels=net.layer_labels,
            blocks=-net.blocks,
            kept=net.kept,
            p_values=net.p_values,
        )
        np.testing.assert_array_equal(node_strength(net), node_strength(flipped))


class TestKCoreness:
    def test_tree_and_isolates(self):
        # path E0-E1-E2 in layer 0 plus an isolated entity
        kept = np.zeros((1, 1, 4, 4), dtype=bool)
        kept[0, 0, 0, 1] = True
        kept[0, 0, 1, 2] = True
        c = k_coreness(make_network(kept))
        assert list(c[:, 0]) == [1, 1, 1, 0]

    def test_complete_graph(self):
        kept = np.ones((1, 1, 6, 6), dtype=bool)
        c = k_coreness(make_network(kept))
        assert np.all(c == 5)

    def test_matches_naive_peeling_on_random_networks(self):
        rng = np.random.default_rng(13)
        nets = [random_network(rng, 10, 4, keep_prob=0.08) for _ in range(10)]
        # a long path, edges in random directions: one peeling round per
        # pair of ends
        path = np.zeros((1, 1, 120, 120), dtype=bool)
        flip = rng.random(119) < 0.5
        path[0, 0, np.where(flip, np.arange(1, 120), np.arange(119)),
             np.where(flip, np.arange(119), np.arange(1, 120))] = True
        nets.append(make_network(path))
        # a 7-clique across two layers with pendant and isolated nodes: the
        # level jumps 0 -> 1 -> 6
        clique = np.zeros((2, 2, 6, 6), dtype=bool)
        members = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1)]
        for i, j in members:
            for k, l in members:
                clique[j, l, i, k] = (i, j) != (k, l)
        # (3, 1) hangs off the clique and (4, 0) off (3, 1)
        clique[1, 1, 0, 3] = clique[0, 1, 4, 3] = True
        nets.append(make_network(clique))
        for net in nets:
            np.testing.assert_array_equal(k_coreness(net), coreness_oracle(net))
        assert set(k_coreness(nets[-2]).ravel()) == {1}
        np.testing.assert_array_equal(k_coreness(nets[-1]),
                                      [[6, 6], [6, 6], [6, 6], [6, 1],
                                       [1, 0], [0, 0]])

    def test_invariant_under_weight_rescaling(self):
        rng = np.random.default_rng(14)
        net = random_network(rng, 6, 2)
        scaled = MultilayerNetwork(
            entity_labels=net.entity_labels,
            layer_labels=net.layer_labels,
            blocks=1e6 * net.blocks,
            kept=net.kept,
            p_values=net.p_values,
        )
        np.testing.assert_array_equal(k_coreness(net), k_coreness(scaled))


def test_asymmetric_dependency_survives_pipeline():
    """A block with B[j,l,i,k] != B[j,l,k,i] keeps that asymmetry end to end."""
    rng = np.random.default_rng(15)
    b = 0.01 * rng.standard_normal((5, 2, 5, 2))
    b[0, 0, 1, 0] = 9.0   # strong 0 -> 1, nothing back
    net = from_coefficient(b, list("abcde"), list("xy"))
    filtered = apply_filter(net, method="polya", retain_fraction=0.2)
    assert filtered.kept[0, 0, 0, 1]
    assert filtered.blocks[0, 0, 0, 1] != filtered.blocks[0, 0, 1, 0]
    assert not np.allclose(filtered.blocks[0, 0], filtered.blocks[0, 0].T)

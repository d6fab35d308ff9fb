"""Urn-based edge filtering checked against exact binomial and
Beta-binomial tails."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from multitar.netfilter import (
    WeightedDigraph,
    _MAX_TERMS,
    hard_threshold_filter,
    polya_filter,
    polya_pvalue,
)


def binomial_tail(w, s, k):
    """Oracle: exact P(X >= w) for X ~ Binomial(s, 1/k), integer arguments."""
    p = 1.0 / k
    return sum(math.comb(s, x) * p ** x * (1.0 - p) ** (s - x)
               for x in range(w, s + 1))


def beta_binomial_tail(w, s, k, a):
    """Oracle: P(X >= w) for X ~ BetaBinomial(s, 1/a, (k - 1)/a) at integer
    w and s, summed in 50-digit arithmetic."""
    with mpmath.workdps(50):
        m = 1 / mpmath.mpf(a)
        b = (k - 1) * m
        total = mpmath.fsum(mpmath.binomial(s, x) * mpmath.beta(x + m, s - x + b)
                            for x in range(w, s + 1))
        return float(total / mpmath.beta(m, b))


def urn_sum(w, s, k, m):
    """Oracle: the finite sum over j < m for real w, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        w, s = mpmath.mpf(w), mpmath.mpf(s)
        b = mpmath.mpf((k - 1) * m)
        total = mpmath.fsum(mpmath.rf(b, j) / mpmath.factorial(j)
                            * mpmath.beta(w + j, s - w + 1 + b) for j in range(m))
        return float(total / mpmath.beta(w, s - w + 1))


class TestPolyaPvalue:
    def test_zero_weight_is_certain(self):
        assert polya_pvalue(0.0, 12.5, 4, 1.0) == 1.0

    def test_single_edge_is_certain(self):
        assert polya_pvalue(7.0, 7.0, 1, 1.0) == 1.0

    def test_weight_above_strength_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            polya_pvalue(5.0, 4.0, 3, 1.0)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="k"):
            polya_pvalue(1.0, 4.0, 0, 1.0)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            polya_pvalue(-1.0, 4.0, 2, 1.0)
        with pytest.raises(ValueError):
            polya_pvalue(1.0, 4.0, 2, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_a_rejected(self, bad):
        with pytest.raises(ValueError, match="a must be finite"):
            polya_pvalue(1.0, 4.0, 2, bad)
        g = WeightedDigraph(3, [0, 0, 1], [1, 2, 2], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="a must be finite"):
            polya_filter(g, bad, 0.5)

    def test_large_integer_inverse_a_takes_the_rule(self, monkeypatch):
        # 1/a = 1e8 is an integer, but far too many terms to sum; the closed
        # form is the only path that calls betaln
        def refuse(*args):
            raise AssertionError("closed form taken")

        monkeypatch.setattr(special, "betaln", refuse)
        assert 0.0 < polya_pvalue(10.0, 20.0, 4, 1e-8) < 1.0
        assert 0.0 < polya_pvalue(10.0, 20.0, 4, 1.0 / (_MAX_TERMS + 1)) < 1.0
        with pytest.raises(AssertionError, match="closed form"):
            polya_pvalue(10.0, 20.0, 4, 1.0 / _MAX_TERMS)

    def test_small_a_matches_binomial_tail(self):
        for w in range(0, 21):
            got = polya_pvalue(float(w), 20.0, 4, 1e-8)
            assert abs(got - binomial_tail(w, 20, 4)) < 1e-4

    def test_a_exactly_zero_uses_binomial_limit(self):
        for w in (1, 5, 10):
            got = polya_pvalue(float(w), 10.0, 2, 0.0)
            assert abs(got - binomial_tail(w, 10, 2)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_integer_weight_is_the_beta_binomial_tail(self, m):
        rng = np.random.default_rng(10 + m)
        for _ in range(40):
            s = int(rng.integers(1, 101))
            k = int(rng.integers(2, 101))
            w = int(rng.integers(1, s + 1))
            got = polya_pvalue(float(w), float(s), k, 1.0 / m)
            want = beta_binomial_tail(w, s, k, 1.0 / m)
            assert abs(got - want) <= 1e-12 * want, (w, s, k, got, want)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16])
    def test_real_weight_is_the_finite_sum(self, m):
        rng = np.random.default_rng(20 + m)
        for _ in range(30):
            s = float(rng.uniform(0.01, 100.0))
            k = int(rng.integers(2, 101))
            w = float(rng.uniform(0.0, s))
            got = polya_pvalue(w, s, k, 1.0 / m)
            want = urn_sum(w, s, k, m)
            assert abs(got - want) <= 1e-11 * want, (w, s, k, got, want)

    def test_deep_tail_matches_the_mixture_integral(self):
        # the mixture over the urn share X ~ Beta(1, k - 1), integrated
        # adaptively; the old 128-node rule gave 1.1e-16 here
        w, s, k = 45.29, 56.21, 24
        with mpmath.workdps(30):
            want = float(mpmath.quad(
                lambda x: (k - 1) * (1 - x) ** (k - 2)
                * mpmath.betainc(w, s - w + 1, 0, x, regularized=True), [0, 1]))
        got = polya_pvalue(w, s, k, 1.0)
        assert abs(want - 5.0107387187e-12) < 1e-21
        assert abs(got - want) <= 1e-12 * want

    def test_rule_error_within_its_stated_bound(self):
        # 1/a not an integer: the 128-node rule, whose docstring states an
        # absolute error below 3e-5 for s, k <= 200 and 1e-3 <= a <= 20; the
        # first two cases are the largest errors seen measuring it
        cases = [(83, 169, 127, 13.446707368964663),
                 (94, 175, 65, 7.179660447009888)]
        rng = np.random.default_rng(30)
        while len(cases) < 40:
            a = float(np.exp(rng.uniform(math.log(1e-3), math.log(20.0))))
            s = int(rng.integers(2, 201))
            k = s if rng.random() < 0.5 else int(rng.integers(2, 201))
            cases.append((int(rng.integers(1, s + 1)), s, k, a))
        errors = [abs(polya_pvalue(float(w), float(s), k, a)
                      - beta_binomial_tail(w, s, k, a))
                  for w, s, k, a in cases]
        assert max(errors) < 3e-5

    def test_monotone_in_weight(self):
        for a in (0.1, 1.0, 10.0):
            values = [polya_pvalue(w, 30.0, 5, a) for w in np.linspace(0, 30, 61)]
            assert all(b <= x for x, b in zip(values, values[1:]))

    def test_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = float(rng.uniform(0.1, 50.0))
            w = float(rng.uniform(0.0, s))
            k = int(rng.integers(1, 12))
            a = float(rng.uniform(0.0, 5.0))
            p = polya_pvalue(w, s, k, a)
            assert 0.0 <= p <= 1.0


class TestWeightedDigraph:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedDigraph(3, [0, 0], [1, 1], [1.0, 2.0])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedDigraph(2, [0], [2], [1.0])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            WeightedDigraph(2, [0], [1], [np.inf])

    def test_from_dense_enumerates_all_pairs(self):
        m = np.arange(9.0).reshape(3, 3)
        g = WeightedDigraph.from_dense(m)
        assert g.n_edges == 9
        np.testing.assert_array_equal(g.weights.reshape(3, 3), m)


def complete_digraph(n, weight=1.0):
    m = np.full((n, n), weight)
    np.fill_diagonal(m, 0.0)
    src, tgt = np.nonzero(m)
    return WeightedDigraph(n, src, tgt, m[src, tgt])


class TestPolyaFilter:
    def test_equal_weights_keep_by_tie_break(self):
        g = complete_digraph(5)
        res = polya_filter(g, a=1.0, retain_fraction=0.1)
        assert res.kept.sum() == 2
        # all p equal, all |w| equal: lexicographic (source, target) wins
        kept_edges = sorted(zip(g.sources[res.kept], g.targets[res.kept]))
        assert kept_edges == [(0, 1), (0, 2)]
        assert np.allclose(res.p_values, res.p_values[0])

    def test_dominant_star_edge_has_strictly_smallest_pvalue(self):
        # hub 0 sends 99% of its strength down one edge
        n_leaves = 6
        weights = [99.0] + [1.0 / (n_leaves - 1)] * (n_leaves - 1)
        g = WeightedDigraph(
            n_leaves + 1,
            [0] * n_leaves,
            list(range(1, n_leaves + 1)),
            weights,
        )
        res = polya_filter(g, a=1.0, retain_fraction=1.0 / n_leaves)
        assert res.p_values[0] < res.p_values[1:].min()
        assert res.kept[0] and res.kept[1:].sum() == 0

    def test_retain_all(self):
        g = complete_digraph(4)
        res = polya_filter(g, a=1.0, retain_fraction=1.0)
        assert res.kept.all()
        assert res.method == "polya"

    def test_retention_accuracy(self):
        rng = np.random.default_rng(1)
        g = WeightedDigraph.from_dense(rng.lognormal(0, 1, (9, 9)))
        for frac in (0.07, 0.25, 0.5, 0.99):
            res = polya_filter(g, a=1.0, retain_fraction=frac)
            assert abs(res.kept.sum() / g.n_edges - frac) <= 1.0 / g.n_edges

    def test_kept_pvalues_below_threshold(self):
        rng = np.random.default_rng(2)
        g = WeightedDigraph.from_dense(rng.lognormal(0, 1.5, (7, 7)))
        res = polya_filter(g, a=1.0, retain_fraction=0.3)
        assert np.all(res.p_values[res.kept] <= res.threshold_used)

    def test_global_rescaling_leaves_pvalues_unchanged(self):
        rng = np.random.default_rng(3)
        w = rng.lognormal(0, 1, (8, 8)) * rng.choice((-1.0, 1.0), (8, 8))
        base = polya_filter(WeightedDigraph.from_dense(w), 1.0, 0.5)
        for c in (1e-6, 3.7, 1e8):
            scaled = polya_filter(WeightedDigraph.from_dense(c * w), 1.0, 0.5)
            np.testing.assert_allclose(scaled.p_values, base.p_values, atol=1e-10)
            np.testing.assert_array_equal(scaled.kept, base.kept)

    def test_star_source_rescaling_invariance(self):
        # each target has a single in-edge, so the min over endpoints is the
        # hub's share-based p-value and scaling the hub's edges cannot move it
        weights = np.array([5.0, 1.0, 0.25, 0.25])
        g1 = WeightedDigraph(5, [0, 0, 0, 0], [1, 2, 3, 4], weights)
        g2 = WeightedDigraph(5, [0, 0, 0, 0], [1, 2, 3, 4], 123.0 * weights)
        r1 = polya_filter(g1, 1.0, 0.5)
        r2 = polya_filter(g2, 1.0, 0.5)
        np.testing.assert_allclose(r1.p_values, r2.p_values, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 6))
        r1 = polya_filter(WeightedDigraph.from_dense(w), 2.0, 0.2)
        r2 = polya_filter(WeightedDigraph.from_dense(w), 2.0, 0.2)
        np.testing.assert_array_equal(r1.kept, r2.kept)
        np.testing.assert_array_equal(r1.p_values, r2.p_values)

    def test_empty_graph_rejected(self):
        g = WeightedDigraph(2, [], [], [])
        with pytest.raises(ValueError, match="empty"):
            polya_filter(g, 1.0, 0.5)

    def test_bad_retain_fraction(self):
        g = complete_digraph(3)
        with pytest.raises(ValueError, match="retain_fraction"):
            polya_filter(g, 1.0, 0.0)
        with pytest.raises(ValueError, match="retain_fraction"):
            polya_filter(g, 1.0, 1.5)


class TestHardThreshold:
    def test_top_magnitudes_kept(self):
        g = WeightedDigraph(10, list(range(10)), [(i + 1) % 10 for i in range(10)],
                            [float(v) for v in range(1, 11)])
        res = hard_threshold_filter(g, 0.3)
        assert sorted(g.weights[res.kept]) == [8.0, 9.0, 10.0]
        assert res.threshold_used == 8.0
        assert res.method == "hard_threshold"

    def test_all_equal_weights_half_kept_by_tie_break(self):
        g = complete_digraph(4)  # 12 edges
        res = hard_threshold_filter(g, 0.5)
        assert res.kept.sum() == 6
        kept_edges = sorted(zip(g.sources[res.kept], g.targets[res.kept]))
        assert kept_edges == [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3)]

    def test_matches_sort_oracle_with_negative_weights(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(40)
        g = WeightedDigraph(40, np.arange(40), (np.arange(40) + 1) % 40, w)
        res = hard_threshold_filter(g, 0.1)
        expected = set(np.argsort(-np.abs(w), kind="stable")[:4])
        assert set(np.flatnonzero(res.kept)) == expected

    def test_pvalues_are_nan(self):
        res = hard_threshold_filter(complete_digraph(3), 0.5)
        assert np.isnan(res.p_values).all()

    def test_retention_accuracy(self):
        rng = np.random.default_rng(6)
        g = WeightedDigraph.from_dense(rng.standard_normal((8, 8)))
        for frac in (0.05, 0.33, 0.8):
            res = hard_threshold_filter(g, frac)
            assert abs(res.kept.sum() / g.n_edges - frac) <= 1.0 / g.n_edges

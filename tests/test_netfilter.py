"""Urn-based edge filtering checked against exact binomial and
Beta-binomial tails."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 1.0])
    def test_subnormal_weight_is_certain(self, a):
        # betaln overflows at a subnormal first argument; p rounds to 1
        assert polya_pvalue(1e-310, 2.0, 2, a) == 1.0

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
        g = WeightedDigraph([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
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
    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            WeightedDigraph([[0.0, np.inf], [0.0, 0.0]])

    def test_every_entry_is_an_edge(self):
        m = np.arange(9.0).reshape(3, 3)
        g = WeightedDigraph(m)
        assert g.n_edges == 9
        np.testing.assert_array_equal(g.weights, m)
        assert WeightedDigraph(np.zeros((2, 3, 4, 4))).n_edges == 96

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 3, 2), (0, 0),
                                       (2, 0, 0), (0, 3, 3)])
    def test_non_square_or_empty_rejected(self, shape):
        with pytest.raises(ValueError, match="shape|empty"):
            WeightedDigraph(np.zeros(shape))


def complete_digraph(n, weight=1.0):
    """Equal weights on every ordered pair of distinct nodes; the zero
    diagonal is n more edges."""
    m = np.full((n, n), weight)
    np.fill_diagonal(m, 0.0)
    return WeightedDigraph(m)


def kept_pairs(res):
    return [tuple(int(v) for v in ik) for ik in np.argwhere(res.kept)]


class TestPolyaFilter:
    def test_equal_weights_keep_by_tie_break(self):
        g = complete_digraph(5)  # 25 edges, 20 of weight 1
        res = polya_filter(g, a=1.0, retain_fraction=0.1)
        assert res.kept.sum() == 3
        # all off-diagonal p equal, all |w| equal: (source, target) order wins
        assert kept_pairs(res) == [(0, 1), (0, 2), (0, 3)]
        off_diagonal = res.p_values[~np.eye(5, dtype=bool)]
        assert np.allclose(off_diagonal, off_diagonal[0])
        assert np.all(np.diag(res.p_values) == 1.0)

    def test_dominant_star_edge_has_strictly_smallest_pvalue(self):
        # hub 0 sends 99% of its strength down one edge; the other nodes send
        # unit weights everywhere, so no leaf's in-view alone singles out its
        # hub edge (a leaf whose only nonzero in-edge came from the hub would
        # give every hub edge the same smallest p-value)
        n = 7
        w = np.ones((n, n))
        np.fill_diagonal(w, 0.0)
        w[0, 1:] = [99.0] + [0.2] * (n - 2)
        res = polya_filter(WeightedDigraph(w), a=1.0, retain_fraction=1.0 / n ** 2)
        others = np.ones((n, n), dtype=bool)
        others[0, 1] = False
        assert res.p_values[0, 1] < res.p_values[others].min()
        assert kept_pairs(res) == [(0, 1)]

    def test_retain_all(self):
        g = complete_digraph(4)
        res = polya_filter(g, a=1.0, retain_fraction=1.0)
        assert res.kept.all()
        assert res.kept.shape == res.p_values.shape == (4, 4)

    def test_retention_accuracy(self):
        rng = np.random.default_rng(1)
        g = WeightedDigraph(rng.lognormal(0, 1, (9, 9)))
        for frac in (0.07, 0.25, 0.5, 0.99):
            res = polya_filter(g, a=1.0, retain_fraction=frac)
            assert abs(res.kept.sum() / g.n_edges - frac) <= 1.0 / g.n_edges

    def test_kept_pvalues_below_threshold(self):
        # the largest kept p-value is the block's threshold; no dropped edge
        # lies below it
        rng = np.random.default_rng(2)
        g = WeightedDigraph(rng.lognormal(0, 1.5, (7, 7)))
        res = polya_filter(g, a=1.0, retain_fraction=0.3)
        assert res.p_values[res.kept].max() <= res.p_values[~res.kept].min()

    def test_global_rescaling_leaves_pvalues_unchanged(self):
        rng = np.random.default_rng(3)
        w = rng.lognormal(0, 1, (8, 8)) * rng.choice((-1.0, 1.0), (8, 8))
        base = polya_filter(WeightedDigraph(w), 1.0, 0.5)
        for c in (1e-6, 3.7, 1e8):
            scaled = polya_filter(WeightedDigraph(c * w), 1.0, 0.5)
            np.testing.assert_allclose(scaled.p_values, base.p_values, atol=1e-10)
            np.testing.assert_array_equal(scaled.kept, base.kept)

    def test_star_source_rescaling_invariance(self):
        # each target's only nonzero in-edge comes from the hub, so its
        # in-view share is whole whatever the scale, and the hub's out-view
        # is share-based: scaling the hub's edges cannot move a p-value
        w = np.zeros((5, 5))
        w[0, 1:] = [5.0, 1.0, 0.25, 0.25]
        r1 = polya_filter(WeightedDigraph(w), 1.0, 0.5)
        r2 = polya_filter(WeightedDigraph(123.0 * w), 1.0, 0.5)
        np.testing.assert_allclose(r1.p_values, r2.p_values, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 6))
        r1 = polya_filter(WeightedDigraph(w), 2.0, 0.2)
        r2 = polya_filter(WeightedDigraph(w), 2.0, 0.2)
        np.testing.assert_array_equal(r1.kept, r2.kept)
        np.testing.assert_array_equal(r1.p_values, r2.p_values)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 1.0, 2.0])
    def test_equal_inputs_give_equal_pvalues(self, a):
        # every edge of an all-ones matrix has the same share, strength and
        # degree at both endpoints, so it must get the same p-value; the
        # ranking then falls to (source, target) order
        for n in (2, 3, 5, 7, 10):
            res = polya_filter(WeightedDigraph(np.ones((n, n))), a, 0.5)
            assert np.unique(res.p_values).size == 1
            assert kept_pairs(res) == [divmod(e, n) for e in
                                       range(math.ceil(0.5 * n * n))]

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 1.0])
    def test_subnormal_share_gives_finite_pvalues(self, a):
        g = WeightedDigraph(np.array([[2.5e-308, 10.0], [3.0, 4.0]]))
        p = polya_filter(g, a, 1.0).p_values
        assert np.all(np.isfinite(p))
        assert p[0, 0] == 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            polya_filter(WeightedDigraph(np.zeros((0, 0))), 1.0, 0.5)

    def test_bad_retain_fraction(self):
        g = complete_digraph(3)
        with pytest.raises(ValueError, match="retain_fraction"):
            polya_filter(g, 1.0, 0.0)
        with pytest.raises(ValueError, match="retain_fraction"):
            polya_filter(g, 1.0, 1.5)


class TestHardThreshold:
    def test_top_magnitudes_kept(self):
        # a ring 0 -> 1 -> ... -> 9 -> 0 with weights 1..10, zeros elsewhere
        w = np.zeros((10, 10))
        w[np.arange(10), (np.arange(10) + 1) % 10] = np.arange(1.0, 11.0)
        res = hard_threshold_filter(WeightedDigraph(w), 0.03)
        assert sorted(w[res.kept]) == [8.0, 9.0, 10.0]
        assert np.abs(w[res.kept]).min() == 8.0

    def test_all_equal_weights_half_kept_by_tie_break(self):
        g = complete_digraph(4)  # 16 edges, 12 of weight 1
        res = hard_threshold_filter(g, 0.5)
        assert res.kept.sum() == 8
        assert kept_pairs(res) == [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2),
                                   (1, 3), (2, 0), (2, 1)]

    def test_matches_sort_oracle_with_negative_weights(self):
        # a ring of 40 nodes, zeros elsewhere; the 160 kept edges are the 40
        # ring edges and then zero edges in (source, target) order
        rng = np.random.default_rng(5)
        w = np.zeros((40, 40))
        w[np.arange(40), (np.arange(40) + 1) % 40] = rng.standard_normal(40)
        res = hard_threshold_filter(WeightedDigraph(w), 0.1)
        expected = np.argsort(-np.abs(w.ravel()), kind="stable")[:160]
        assert set(np.flatnonzero(res.kept)) == set(expected)

    def test_pvalues_are_nan(self):
        res = hard_threshold_filter(complete_digraph(3), 0.5)
        assert res.p_values.shape == (3, 3)
        assert np.isnan(res.p_values).all()

    def test_retention_accuracy(self):
        rng = np.random.default_rng(6)
        g = WeightedDigraph(rng.standard_normal((8, 8)))
        for frac in (0.05, 0.33, 0.8):
            res = hard_threshold_filter(g, frac)
            assert abs(res.kept.sum() / g.n_edges - frac) <= 1.0 / g.n_edges


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_l=st.integers(1, 3), n=st.integers(1, 6),
       retain=st.floats(0.0, 1.0, exclude_min=True),
       a=st.sampled_from([0.0, 0.5, 1.0, 0.3, None]),
       integer=st.booleans())
def test_stack_filters_each_matrix_alone(data, n_l, n, retain, a, integer):
    # integer weights in a small range make ties in |w| and p common
    elements = (st.integers(-3, 3).map(float) if integer
                else st.floats(-10.0, 10.0, allow_subnormal=False))
    w = data.draw(arrays(np.float64, (n_l, n_l, n, n), elements=elements))

    def run(weights):
        g = WeightedDigraph(weights)
        if a is None:
            return hard_threshold_filter(g, retain)
        return polya_filter(g, a, retain)

    stacked = run(w)
    assert stacked.p_values.shape == stacked.kept.shape == w.shape
    for j in range(n_l):
        for l in range(n_l):
            alone = run(w[j, l])
            np.testing.assert_array_equal(stacked.p_values[j, l], alone.p_values)
            np.testing.assert_array_equal(stacked.kept[j, l], alone.kept)

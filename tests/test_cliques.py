import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquebounds import (
    Graph,
    ResourceLimitError,
    binom,
    clique_counts,
    complete_graph,
    contribution_table,
    contribution_upper_bound,
    count_cliques,
    count_cliques_touching,
    cycle_graph,
    enumerate_cliques,
    path_graph,
    random_graph,
)
from cliquebounds import cliques
from oracles import nx_cliques_by_order, per_clique_shares, petersen, subset_clique_count
from strategies import block_glued_graph, graphs, random_pdbgs


class TestBinom:
    def test_zero_extension(self):
        assert binom(2, 3) == 0
        assert binom(3, -1) == 0
        assert binom(-2, 0) == 0
        assert binom(4, 0) == 1
        assert binom(5, 2) == 10


class TestCountCliques:
    def test_k5_triangles(self):
        assert count_cliques(complete_graph(5), 3) == 10

    def test_c5_triangle_free(self):
        assert count_cliques(cycle_graph(5), 3) == 0

    def test_petersen_triangle_free(self):
        assert count_cliques(petersen(), 3) == 0
        assert subset_clique_count(petersen(), 3) == 0

    def test_degenerate_orders(self):
        g = cycle_graph(4)
        assert count_cliques(g, 0) == 1
        assert count_cliques(g, 1) == 4
        assert count_cliques(g, 2) == g.edge_count()

    def test_negative_order(self):
        with pytest.raises(ValueError):
            count_cliques(cycle_graph(3), -1)
        with pytest.raises(ValueError):
            clique_counts(cycle_graph(3), -1)

    def test_order_past_n_builds_no_profile(self):
        tracemalloc.start()
        try:
            assert count_cliques(complete_graph(3), 10**6) == 0
            assert count_cliques_touching(complete_graph(3), 10**6, [0]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert count_cliques(complete_graph(3), 4) == 0
        assert count_cliques(complete_graph(3), 3) == 1

    def test_order_past_any_graph_is_refused_before_allocating(self):
        # no graph has a clique of more than 64 vertices, and a profile of
        # 10^6 slots would take 8 MiB (of 10^9, gigabytes)
        assert clique_counts(complete_graph(3), 64)[3:] == [1] + [0] * 61
        tracemalloc.start()
        try:
            for s_max in (65, 10**6):
                with pytest.raises(ResourceLimitError, match=f"capped at s <= 64, got {s_max}"):
                    clique_counts(path_graph(4), s_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("mask, shown", [(1 << 10, "0x400"), (-1, "-0x1"), (1 << 4, "0x10")])
    def test_mask_outside_the_graph_is_a_value_error(self, mask, shown):
        with pytest.raises(ValueError, match=f"^vertex mask {shown} has bits outside the 4 vertices"):
            clique_counts(path_graph(4), 2, mask)
        assert clique_counts(path_graph(4), 2, 0b1011) == [1, 3, 1]

    def test_profile_has_every_order_up_to_the_top(self):
        assert clique_counts(cycle_graph(4), 0) == [1]
        assert clique_counts(cycle_graph(4), 1) == [1, 4]
        assert clique_counts(complete_graph(4), 6) == [1, 4, 6, 4, 1, 0, 0]

    def test_expansion_budget_names_the_count(self, monkeypatch):
        # below the top order, every clique of K8 tries its extensions once
        spent = sum(binom(8, k) for k in range(1, 5))
        monkeypatch.setattr(cliques, "CLIQUE_EXPANSION_BUDGET", spent)
        assert clique_counts(complete_graph(8), 5) == [binom(8, k) for k in range(6)]
        monkeypatch.setattr(cliques, "CLIQUE_EXPANSION_BUDGET", spent - 1)
        with pytest.raises(ResourceLimitError, match=f"gave up after {spent - 1} extensions"):
            clique_counts(complete_graph(8), 5)
        with pytest.raises(ResourceLimitError):
            count_cliques_touching(complete_graph(8), 5, [0])

    def test_listing_budget_names_the_listing(self, monkeypatch):
        # listing the s-cliques tries one extension per clique of each order 1..s
        spent = sum(binom(8, k) for k in range(1, 6))
        monkeypatch.setattr(cliques, "CLIQUE_EXPANSION_BUDGET", spent)
        assert len(list(enumerate_cliques(complete_graph(8), 5))) == binom(8, 5)
        monkeypatch.setattr(cliques, "CLIQUE_EXPANSION_BUDGET", spent - 1)
        with pytest.raises(ResourceLimitError, match=f"listing gave up after {spent - 1} extensions"):
            list(enumerate_cliques(complete_graph(8), 5))
        with pytest.raises(ResourceLimitError):
            contribution_table(complete_graph(8), 5, {0})

    def test_negative_order_is_refused_when_listing_starts(self):
        listing = enumerate_cliques(complete_graph(3), -1)
        with pytest.raises(ValueError, match=r"^clique order must be >= 0, got -1$"):
            next(listing)

    def test_listing_k40_is_refused(self):
        # 76,904,685 8-cliques: refused before 2 * 10^6 of them are listed
        listed = 0
        with pytest.raises(ResourceLimitError, match="listing gave up"):
            for _ in enumerate_cliques(complete_graph(40), 8):
                listed += 1
        assert listed < cliques.CLIQUE_EXPANSION_BUDGET

    @pytest.mark.parametrize("n", range(13))
    def test_complete_graph_binomials(self, n):
        g = complete_graph(n)
        for s in range(n + 1):
            assert count_cliques(g, s) == binom(n, s)

    def test_exhaustive_against_subset_oracle(self, reps_by_n):
        for n in range(7):
            for g in reps_by_n[n]:
                profile = clique_counts(g, 5)
                for s in range(6):
                    assert count_cliques(g, s) == subset_clique_count(g, s) == profile[s]

    def test_enumeration_matches_count(self):
        rng = random.Random(2)
        for _ in range(25):
            g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.8), rng.randrange(1 << 30))
            for s in (2, 3, 4):
                cliques = list(enumerate_cliques(g, s))
                assert len(cliques) == count_cliques(g, s)
                assert len(set(cliques)) == len(cliques)


class TestCountCliquesTouching:
    def test_k4_through_one_vertex(self):
        assert count_cliques_touching(complete_graph(4), 3, {0}) == 3

    def test_empty_touch_set(self):
        assert count_cliques_touching(cycle_graph(5), 2, set()) == 0

    def test_negative_order(self):
        # refused whatever the touch set, empty or not
        for touch in ([], [0]):
            with pytest.raises(ValueError, match="clique order must be >= 0, got -1"):
                count_cliques_touching(cycle_graph(5), -1, touch)

    def test_touch_vertex_outside_the_graph(self):
        with pytest.raises(ValueError, match="^touch set contains vertices outside the graph$"):
            count_cliques_touching(cycle_graph(5), 2, [7])

    def test_k5_edges_touching_pair(self):
        assert count_cliques_touching(complete_graph(5), 2, {0, 1}) == 7

    @given(graphs(min_n=1, max_n=6), st.integers(1, 4))
    @settings(max_examples=60)
    def test_complement_identity(self, g, s):
        touch = set(range(0, g.n, 2))
        rest = g.induced(v for v in range(g.n) if v not in touch)
        assert count_cliques_touching(g, s, touch) == count_cliques(g, s) - count_cliques(rest, s)


class TestAgainstNetworkx:
    """clique_counts, count_cliques, count_cliques_touching and
    enumerate_cliques for s <= 5 against networkx's clique listing, far past
    the subset oracle's n <= 6."""

    def assert_matches(self, g, rng):
        touch = {v for v in range(g.n) if rng.random() < 0.3}
        by_order = nx_cliques_by_order(g, 5)
        assert clique_counts(g, 5) == [len(expected) for expected in by_order], g
        for s, expected in enumerate(by_order):
            assert count_cliques(g, s) == len(expected), (g, s)
            assert list(enumerate_cliques(g, s)) == expected, (g, s)
            meeting = sum(1 for c in expected if touch.intersection(c))
            assert count_cliques_touching(g, s, touch) == meeting, (g, s, touch)

    def test_random_pdbg_specs(self):
        rng = random.Random(808)
        for g in random_pdbgs():
            self.assert_matches(g, rng)

    def test_seeded_block_glued_graphs(self):
        rng = random.Random(2718)
        for _ in range(500):
            self.assert_matches(block_glued_graph(rng, 16), rng)

    def test_seeded_random_graphs(self):
        rng = random.Random(4040)
        for _ in range(40):
            n = rng.randint(20, 40)
            self.assert_matches(random_graph(n, rng.uniform(0.2, 0.6), rng.randrange(1 << 30)), rng)

    def test_touching_never_builds_a_subgraph(self, monkeypatch):
        def refuse(self, vertices):
            raise AssertionError("induced subgraph built")

        monkeypatch.setattr(Graph, "induced", refuse)
        assert count_cliques_touching(complete_graph(6), 3, {0, 1}) == 16


class TestContributionTable:
    def test_triangle_split(self):
        tab = contribution_table(complete_graph(3), 2, {0, 1})
        assert tab.shares == {0: Fraction(3, 2), 1: Fraction(3, 2)}
        assert tab.total() == 3

    def test_refusals_are_named(self):
        with pytest.raises(ValueError, match=r"^clique order must be >= 1, got 0$"):
            contribution_table(complete_graph(3), 0, {0})
        with pytest.raises(ValueError, match="^marked set contains vertices outside the graph$"):
            contribution_table(complete_graph(3), 2, {0, 3})

    def test_empty_marked(self):
        tab = contribution_table(complete_graph(3), 2, set())
        assert tab.shares == {}
        assert tab.total() == 0

    def test_k4_all_marked(self):
        tab = contribution_table(complete_graph(4), 3, range(4))
        assert all(v == 1 for v in tab.shares.values())
        assert tab.total() == 4

    def test_sums_to_touching_count_300_random(self):
        rng = random.Random(1234)
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.uniform(0.1, 0.9), rng.randrange(1 << 30))
            s = rng.randint(1, 4)
            marked = {v for v in range(n) if rng.random() < 0.5}
            tab = contribution_table(g, s, marked)
            assert tab.total() == count_cliques_touching(g, s, marked)

    def test_shares_match_the_per_clique_sums(self):
        rng = random.Random(4321)
        graphs_ = [complete_graph(9), petersen()]
        graphs_ += [
            random_graph(rng.randint(1, 11), rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
            for _ in range(150)
        ]
        for g in graphs_:
            s = rng.randint(1, 5)
            marked = {v for v in range(g.n) if rng.random() < 0.5}
            tab = contribution_table(g, s, marked)
            assert tab == contribution_table(g, s, sorted(marked))
            assert tab.shares == per_clique_shares(g, s, marked), (g, s, marked)


class TestContributionUpperBound:
    def test_base_case_vanishes(self):
        assert contribution_upper_bound(1, 1, 3) == 0

    def test_no_outside_neighbors(self):
        assert contribution_upper_bound(5, 0, 3) == Fraction(10, 3)

    def test_hand_value(self):
        assert contribution_upper_bound(4, 2, 2) == 3

    def test_parameter_contract(self):
        with pytest.raises(ValueError):
            contribution_upper_bound(2, 3, 2)
        with pytest.raises(ValueError):
            contribution_upper_bound(2, 1, 0)

    def test_convolution_identity_full_grid(self):
        for d in range(13):
            for a in range(d + 1):
                for s in range(1, 9):
                    total = sum(
                        Fraction(binom(a, t) * binom(d - a, s - t - 1), s - t)
                        for t in range(s)
                    )
                    assert contribution_upper_bound(d, a, s) == total

    def test_caps_actual_contribution(self):
        rng = random.Random(909)
        for _ in range(120):
            n = rng.randint(2, 8)
            g = random_graph(n, rng.uniform(0.3, 0.9), rng.randrange(1 << 30))
            marked = {v for v in range(n) if rng.random() < 0.6}
            s = rng.randint(1, 4)
            tab = contribution_table(g, s, marked)
            for v in marked:
                d = g.degree(v)
                outside = sum(1 for u in g.neighbors(v) if u not in marked)
                assert tab.shares[v] <= contribution_upper_bound(d, outside, s)

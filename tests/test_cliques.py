import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquebounds import (
    BlockSpec,
    Graph,
    ResourceLimitError,
    VertexWeights,
    binom,
    clique_counts,
    complete_graph,
    compute_weights,
    contribution_table,
    contribution_upper_bound,
    count_cliques,
    count_cliques_touching,
    cycle_graph,
    disjoint_union,
    enumerate_cliques,
    enumerate_graphs,
    from_edges,
    generate_pdbg,
    path_graph,
    random_graph,
)
from cliquebounds import cliques
from cliquebounds import graphs as graph_module
from cliquebounds.cliques import block_clique_counts
from oracles import (
    nx_cliques_by_order,
    per_clique_shares,
    petersen,
    subset_clique_count,
    subset_dp_weights,
)
from strategies import block_glued_graph, blocky_families, graphs, random_pdbgs, relabeled


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


class TestBlockSummedProfile:
    """``block_clique_counts`` sums the profile over the blocks that the
    weights were composed over, in closed form on clique blocks. At every
    top order up to 8 it equals the whole-graph expansion and networkx."""

    @staticmethod
    def assert_matches(g: Graph, w=None, tops=range(9)):
        w = compute_weights(g) if w is None else w
        expected = [len(group) for group in nx_cliques_by_order(g, 8)]
        assert clique_counts(g, 8) == expected, g
        for top in tops:
            assert block_clique_counts(g, top, w) == expected[: top + 1], (g, top)

    def test_every_class_up_to_8_vertices(self):
        for n in range(9):
            for g in enumerate_graphs(n):
                self.assert_matches(g, tops=(8,))

    def test_blocky_families(self):
        for seed in range(5):
            for g in blocky_families(random.Random(seed)):
                self.assert_matches(g)

    def test_clique_trees_and_forests_at_64_vertices(self):
        rng = random.Random(64)

        def clique_tree(n: int) -> Graph:
            """A random tree of clique blocks of order 2 to 16 on n vertices."""
            orders = [16]
            while sum(orders) - len(orders) + 1 < n:
                orders.append(min(rng.randint(2, 16), n + 1 - (sum(orders) - len(orders) + 1)))
            orders.sort(reverse=True)
            parents = tuple(rng.randrange(i) for i in range(1, len(orders)))
            return generate_pdbg(BlockSpec(tuple(orders), parents))

        for _ in range(2):
            forest = disjoint_union(clique_tree(30), complete_graph(16), clique_tree(17), Graph(1, (0,)))
            for g in (clique_tree(64), forest):
                assert g.n == 64
                self.assert_matches(relabeled(g, rng), tops=(2, 5, 8))

    def test_weights_built_directly_read_their_blocks(self, count_calls):
        rng = random.Random(27)
        graphs = [block_glued_graph(rng, 12) for _ in range(40)]
        weights = [subset_dp_weights(g) for g in graphs]
        dfs = count_calls("_block_masks", graph_module)
        for g, w in zip(graphs, weights):
            # the oracle's weights hold the blocks they were given
            self.assert_matches(g, w)
        assert dfs == []

    def test_orders_below_two_read_no_block(self):
        w = VertexWeights((), (), 0, None)
        assert block_clique_counts(complete_graph(5), 0, w) == [1]
        assert block_clique_counts(complete_graph(5), 1, w) == [1, 5]
        with pytest.raises(ValueError, match=r"^clique order must be >= 0, got -1$"):
            block_clique_counts(complete_graph(5), -1, w)
        with pytest.raises(ResourceLimitError, match="capped at s <= "):
            block_clique_counts(complete_graph(5), 10**9, w)

    def test_budget_binds_only_inside_non_clique_blocks(self, monkeypatch):
        # K8 less one edge glued to a K40 at vertex 0: only the K8 less one
        # edge expands, trying 8 + 27 + 50 + 55 extensions below order 5
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)][1:]
        edges += [(u, v) for u in [0, *range(8, 47)] for v in range(max(u + 1, 8), 47)]
        g = from_edges(47, edges)
        w = compute_weights(g)
        assert sorted(w.blocks.clique) == [False, True]
        monkeypatch.setattr(cliques, "CLIQUE_EXPANSION_BUDGET", 140)
        assert block_clique_counts(g, 5, w)[5] == binom(8, 5) - binom(6, 3) + binom(40, 5)
        monkeypatch.setattr(cliques, "CLIQUE_EXPANSION_BUDGET", 139)
        with pytest.raises(ResourceLimitError, match="^clique counting gave up after 139 extensions$"):
            block_clique_counts(g, 5, w)


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

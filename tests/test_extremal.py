import random

import pytest

from cliquebounds import (
    BlockDecomposition,
    BlockSpec,
    Graph,
    block_decomposition,
    complete_graph,
    components_are_cliques,
    compute_weights,
    cycle_graph,
    disjoint_union,
    extremal_predicate,
    from_edges,
    generate_pdbg,
    is_connected,
    is_parent_dominated,
    path_graph,
    random_graph,
)
from cliquebounds import graphs as graph_module
from oracles import (
    bowtie,
    dfs_weights,
    edge_stack_block_decomposition,
    nx_block_decomposition,
    nx_components_are_cliques,
    nx_is_block_graph,
    nx_is_parent_dominated,
    permutation_hamiltonian_cycle,
    petersen,
)
from strategies import block_glued_graph, random_pdbgs


class TestBlockDecomposition:
    def test_bowtie(self):
        d = block_decomposition(bowtie())
        assert sorted(len(b) for b in d.blocks) == [3, 3]
        assert d.cut_vertices == frozenset({2})

    def test_path(self):
        d = block_decomposition(path_graph(4))
        assert sorted(len(b) for b in d.blocks) == [2, 2, 2]
        assert d.cut_vertices == frozenset({1, 2})

    def test_cycle(self):
        d = block_decomposition(cycle_graph(5))
        assert len(d.blocks) == 1
        assert d.cut_vertices == frozenset()

    def test_isolated_vertices_are_singleton_blocks(self):
        d = block_decomposition(from_edges(3, [(0, 1)]))
        assert sorted(sorted(b) for b in d.blocks) == [[0, 1], [2]]

    def test_edge_partition_500_random(self):
        rng = random.Random(606)
        for _ in range(500):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.uniform(0.1, 0.7), rng.randrange(1 << 30))
            d = block_decomposition(g)
            covered = []
            for blk in d.blocks:
                covered.extend(
                    (u, v) for u in blk for v in blk if u < v and g.has_edge(u, v)
                )
            assert sorted(covered) == sorted(g.edges())
            assert len(covered) == len(set(covered))

    def test_tree_edges_form_forest(self):
        rng = random.Random(607)
        for _ in range(100):
            g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.6), rng.randrange(1 << 30))
            d = block_decomposition(g)
            nodes = len(d.blocks) + len(d.cut_vertices)
            seen = set()
            comps = 0
            adj: dict = {}
            for bi, v in d.tree_edges:
                adj.setdefault(("b", bi), []).append(("c", v))
                adj.setdefault(("c", v), []).append(("b", bi))
            for bi in range(len(d.blocks)):
                adj.setdefault(("b", bi), [])
            for v in d.cut_vertices:
                adj.setdefault(("c", v), [])
            for start in adj:
                if start in seen:
                    continue
                comps += 1
                stack = [start]
                seen.add(start)
                while stack:
                    for nb in adj[stack.pop()]:
                        if nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
            # acyclic iff edges = nodes - components
            assert len(d.tree_edges) == nodes - comps


def _mapped_back(d: BlockDecomposition, ids: list[int], n: int) -> BlockDecomposition:
    """A decomposition of g.induced(ids) in the ids of g (n vertices)."""
    blocks_at: list[tuple[int, ...]] = [()] * n
    for i, v in enumerate(ids):
        blocks_at[v] = d.blocks_at[i]
    return BlockDecomposition(
        tuple(frozenset(ids[i] for i in b) for b in d.blocks),
        frozenset(ids[i] for i in d.cut_vertices),
        tuple((bi, ids[i]) for bi, i in d.tree_edges),
        d.clique,
        tuple(blocks_at),
    )


class TestAgainstEdgeStackPass:
    """The vertex-mask pass against the retired edge-stack pass, field for
    field with block order, on the whole graph and on a vertex mask."""

    @staticmethod
    def assert_matches(g, mask):
        assert block_decomposition(g) == edge_stack_block_decomposition(g), g
        d = block_decomposition(g, mask)
        assert d == edge_stack_block_decomposition(g, mask), (g, mask)
        ids = [v for v in range(g.n) if mask >> v & 1]
        assert d == _mapped_back(block_decomposition(g.induced(ids)), ids, g.n), (g, mask)

    def test_every_class_up_to_7(self, reps_by_n, reps7):
        rng = random.Random(1973)
        for g in [g for n in range(7) for g in reps_by_n[n]] + reps7:
            self.assert_matches(g, rng.randrange(1 << g.n))

    def test_seeded_random_graphs_up_to_30(self):
        rng = random.Random(1974)
        for _ in range(2000):
            n = rng.randint(1, 30)
            g = random_graph(n, rng.uniform(0.02, 0.5), rng.randrange(1 << 30))
            self.assert_matches(g, rng.randrange(1 << n))

    def test_bits_past_n_are_ignored(self):
        g = bowtie()
        assert block_decomposition(g, ~0) == block_decomposition(g)
        assert block_decomposition(g, 1 << 7) == block_decomposition(Graph(5, (0,) * 5), 0)


class TestRecognizers:
    def test_parent_dominated_needs_a_connected_block_graph(self):
        assert is_parent_dominated(bowtie())
        assert not is_parent_dominated(cycle_graph(4))
        assert not is_parent_dominated(disjoint_union(complete_graph(3), complete_graph(3)))
        assert is_parent_dominated(complete_graph(1))
        assert is_parent_dominated(path_graph(5))

    def test_parent_dominated_basics(self):
        assert is_parent_dominated(generate_pdbg(BlockSpec((5, 4, 4, 3))))
        assert is_parent_dominated(complete_graph(6))
        assert is_parent_dominated(from_edges(0, []))
        assert is_parent_dominated(complete_graph(1))

    def test_parent_dominated_rejects_sandwich(self):
        # K4 - bridge - triangle chain: the edge block's triangle child
        # outweighs it under the only max-order rooting
        g = from_edges(
            7,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)],
        )
        assert nx_is_block_graph(g)
        assert not is_parent_dominated(g)

    def test_parent_dominated_200_random_specs(self):
        for g in random_pdbgs():
            assert is_parent_dominated(g)

    def test_tie_rooting_accepted(self):
        # two K3 blocks joined by a path of K2 blocks: max blocks tie and a
        # middle edge block has a bigger child either way
        g = from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
        assert nx_is_block_graph(g)
        assert not is_parent_dominated(g)

    def test_components_are_cliques(self):
        assert components_are_cliques(disjoint_union(complete_graph(4), complete_graph(4)))
        assert not components_are_cliques(path_graph(3))
        assert components_are_cliques(from_edges(0, []))
        assert components_are_cliques(from_edges(3, []))

    def test_is_hamiltonian(self):
        # the package's Hamiltonicity rule: the s = 1 cycle form for n >= 3,
        # checked by permutations up to n = 8 and by the DFS oracle's c above
        def ham(g):
            verdict = g.n >= 3 and extremal_predicate(g, 1, 1, compute_weights(g))
            if g.n <= 8:
                assert verdict == permutation_hamiltonian_cycle(g), g
            else:
                assert verdict == (max(dfs_weights(g)[1]) == g.n), g
            return verdict

        assert ham(cycle_graph(5))
        assert ham(complete_graph(4))
        assert not ham(petersen())
        assert not ham(complete_graph(2))
        assert not ham(path_graph(4))


class TestExtremalPredicate:
    def test_refusals_are_named(self):
        g = bowtie()
        w = compute_weights(g)
        with pytest.raises(ValueError, match=r"^clique order must be >= 1, got 0$"):
            extremal_predicate(g, 0, 1, w)
        with pytest.raises(ValueError, match=r"^theorem must be 1 or 2, got 3$"):
            extremal_predicate(g, 2, 3, w)

    def test_bowtie_cycle_form(self):
        g = bowtie()
        assert extremal_predicate(g, 2, 1, compute_weights(g))

    def test_c5_path_form(self):
        g = cycle_graph(5)
        assert not extremal_predicate(g, 2, 2, compute_weights(g))

    def test_tree_vacuous_cycle_form(self):
        g = path_graph(5)
        w = compute_weights(g)
        assert extremal_predicate(g, 3, 1, w)

    def test_s1_cycle_form_degenerate_small_n(self):
        two = from_edges(2, [(0, 1)])
        assert extremal_predicate(two, 1, 1, compute_weights(two))
        empty2 = from_edges(2, [])
        assert extremal_predicate(empty2, 1, 1, compute_weights(empty2))
        one = from_edges(1, [])
        assert not extremal_predicate(one, 1, 1, compute_weights(one))

    def test_s1_cycle_form_matches_hamiltonicity_from_n3(self, reps_by_n, reps7):
        hamiltonian = 0
        for g in [g for n in range(3, 7) for g in reps_by_n[n]] + reps7:
            verdict = extremal_predicate(g, 1, 1, compute_weights(g))
            assert verdict == permutation_hamiltonian_cycle(g), g
            hamiltonian += verdict
        assert hamiltonian > 300
        # the Petersen graph's longest cycles have 9 of its 10 vertices
        pet = petersen()
        assert max(dfs_weights(pet)[1]) == 9
        assert not extremal_predicate(pet, 1, 1, compute_weights(pet))

    def test_path_form_s1_always(self):
        g = random_graph(6, 0.4, 3)
        assert extremal_predicate(g, 1, 2, compute_weights(g))

    def test_heavy_set_of_every_vertex_reads_the_weights_decomposition(
        self, reps7, count_calls
    ):
        graphs = [g for g in reps7 if is_connected(g)] + [bowtie(), petersen()]
        weights = [compute_weights(g) for g in graphs]
        calls = count_calls("_block_masks", graph_module)
        built = count_calls("_decomposition", graph_module)
        for g, w in zip(graphs, weights):
            extremal_predicate(g, 2, 1, w)
        assert calls == [] and built == []

    def test_path_form_never_builds_a_subgraph(self, reps7, monkeypatch):
        weights = [compute_weights(g) for g in reps7]

        def refuse(self, vertices):
            raise AssertionError("induced subgraph built")

        monkeypatch.setattr(Graph, "induced", refuse)
        for g, w in zip(reps7, weights):
            for s in range(2, 6):
                extremal_predicate(g, s, 2, w)
                extremal_predicate(g, s, 1, w)

    def test_smaller_heavy_set_decomposes_its_subgraph(self, count_calls):
        # K4 with a pendant vertex: at s = 3 the heavy set is the K4
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        w = compute_weights(g)
        calls = count_calls("_block_masks", graph_module)
        assert extremal_predicate(g, 3, 1, w)
        assert calls == [(g, 0b01111)]


class TestAgainstNetworkx:
    """Blocks, cut vertices, clique flags, component counts, the
    parent-dominated recognizer, the clique-component test and both
    heavy-set predicates against the networkx oracle. The heavy sets are
    written here from the paper's definition."""

    @staticmethod
    def assert_matches(g):
        d = block_decomposition(g)
        nxd = nx_block_decomposition(g)
        assert len(d.blocks) == len(nxd.blocks) and set(d.blocks) == nxd.blocks, g
        assert d.cut_vertices == nxd.cut_vertices, g
        assert dict(zip(d.blocks, d.clique)) == nxd.clique, g
        assert d.components == nxd.components, g
        assert [set(bs) for bs in d.blocks_at] == [
            {i for i, b in enumerate(d.blocks) if v in b} for v in range(g.n)
        ], g
        assert is_parent_dominated(g) == nx_is_parent_dominated(g), g
        assert components_are_cliques(g) == nx_components_are_cliques(g), g

    def test_every_class_up_to_7(self, reps_by_n, reps7):
        parent_dominated = 0
        for g in [g for n in range(7) for g in reps_by_n[n]] + reps7:
            self.assert_matches(g)
            parent_dominated += is_parent_dominated(g)
            w = compute_weights(g)
            for s in range(2, 6):
                heavy = g.induced(v for v in range(g.n) if w.c[v] >= s)
                assert extremal_predicate(g, s, 1, w) == nx_is_parent_dominated(heavy), (g, s)
                heavy = g.induced(v for v in range(g.n) if w.p[v] >= s - 1)
                assert extremal_predicate(g, s, 2, w) == nx_components_are_cliques(heavy), (g, s)
        assert parent_dominated > 50

    def test_seeded_block_glued_graphs(self):
        rng = random.Random(2718)
        for _ in range(500):
            g = block_glued_graph(rng, 16)
            self.assert_matches(g)
            w = compute_weights(g)
            for s in range(2, 6):
                heavy = g.induced(v for v in range(g.n) if w.c[v] >= s)
                assert extremal_predicate(g, s, 1, w) == nx_is_parent_dominated(heavy), (g, s)
                heavy = g.induced(v for v in range(g.n) if w.p[v] >= s - 1)
                assert extremal_predicate(g, s, 2, w) == nx_components_are_cliques(heavy), (g, s)

    def test_random_pdbg_specs(self):
        for g in random_pdbgs():
            self.assert_matches(g)
            assert nx_is_parent_dominated(g)

    def test_oracle_rejects_what_it_should(self):
        assert not nx_is_parent_dominated(
            from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
        )
        assert not nx_is_block_graph(cycle_graph(4))
        assert not nx_is_block_graph(disjoint_union(complete_graph(3), complete_graph(3)))
        assert nx_is_block_graph(from_edges(0, []))

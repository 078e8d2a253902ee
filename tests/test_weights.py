import copy
import dataclasses
import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings

from cliquebounds import (
    BlockSpec,
    Graph,
    ResourceLimitError,
    VertexWeights,
    block_decomposition,
    complete_graph,
    compute_weights,
    compute_weights_block_graph,
    cycle_graph,
    disjoint_union,
    extremal_predicate,
    from_edges,
    generate_pdbg,
    longest_path_from,
    parse_graph6,
    path_graph,
    random_clique_forest,
    random_graph,
    write_graph6,
)
from cliquebounds import graphs as graph_module
from cliquebounds import weights
from cliquebounds.cli import main
from cliquebounds.graphs import _block_masks, iter_bits, reachable
from cliquebounds.weights import (
    _DP_BYTES_PER_SLOT,
    _cycle_table,
    _has_hamiltonian_cycle,
    _paths_from,
)
from oracles import (
    bowtie,
    dfs_longest_paths_from,
    dfs_weights,
    greedy_longest_path_from,
    per_bit_max_len_from,
    per_bit_paths_from,
    permutation_hamiltonian_cycle,
    petersen,
    subset_dp_weights,
    tree_dp_block_graph_weights,
)
from strategies import block_glued_graph, graphs, random_pdbgs, relabeled


class TestComputeWeights:
    def test_cycle_symmetry(self):
        w = compute_weights(cycle_graph(5))
        assert w.p == (4,) * 5
        assert w.c == (5,) * 5
        assert w.circumference == 5

    def test_star(self):
        w = compute_weights(from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert w.p == (2,) * 4
        assert w.c == (2,) * 4

    def test_petersen(self):
        w = compute_weights(petersen())
        assert set(w.p) == {9}
        assert set(w.c) == {9}
        assert w.circumference == 9

    def test_carries_its_block_decomposition(self, reps_by_n):
        for g in [bowtie(), petersen()] + reps_by_n[5]:
            blocks = compute_weights(g).blocks
            assert blocks == _block_masks(g) == block_decomposition(g), g

    def test_empty_graph(self):
        w = compute_weights(from_edges(0, []))
        assert w == compute_weights(from_edges(0, []))
        assert w.circumference == 0

    def test_isolated_vertex_conventions(self):
        w = compute_weights(from_edges(1, []))
        assert w.p == (0,)
        assert w.c == (2,)

    def test_resource_guard(self):
        # the guard is on the largest non-clique block: a 20-cycle is one
        # such block, while K20 is a clique block and runs no DP
        with pytest.raises(ResourceLimitError, match="non-clique block order <= 18"):
            compute_weights(cycle_graph(20), dp_limit=18)
        w = compute_weights(complete_graph(20), dp_limit=18)
        assert w.p == (19,) * 20 and w.c == (20,) * 20

    def test_memory_guard_refuses_before_allocating(self):
        # 2^40 slots fit no desk machine; the guard raises before any table
        with pytest.raises(ResourceLimitError, match="physical memory"):
            compute_weights(cycle_graph(40), dp_limit=64)

    def test_memory_guard_sizes_one_table(self, monkeypatch):
        # K5,6 is an 11-vertex block with no spanning cycle, so it runs the
        # subset DP; each kernel holds one table of 2^11 slots at a time
        g = complete_bipartite(5, 6)
        table = (1 << 11) * _DP_BYTES_PER_SLOT
        for have in (3 * table // 2, table):
            monkeypatch.setattr(weights.os, "sysconf", {"SC_PHYS_PAGES": have, "SC_PAGE_SIZE": 1}.get)
            assert compute_weights(g, dp_limit=11) == subset_dp_weights(g)

        def refuse(adj, n):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(weights, "_cycle_table", refuse)
        monkeypatch.setattr(weights.os, "sysconf", {"SC_PHYS_PAGES": table - 1, "SC_PAGE_SIZE": 1}.get)
        with pytest.raises(ResourceLimitError, match=f"needs about {table} bytes"):
            compute_weights(g, dp_limit=11)

    def test_bytes_per_slot_bound_the_measured_peak(self):
        # K11 minus an edge fills nearly every slot, most with an int above
        # the small-int cache: about the worst case of a non-clique block.
        # Each pass's kernel holds one table, and the guard sizes one.
        size = 11
        adj = [((1 << size) - 1) & ~(1 << v) for v in range(size)]
        adj[0] &= ~2
        adj[1] &= ~1
        from_all = partial(_paths_from, starts=(1 << size) - 1, targets=[0, 1, 5])
        for kernel in (_cycle_table, from_all):
            tracemalloc.start()
            try:
                kernel(adj, size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0.85 * (1 << size) * _DP_BYTES_PER_SLOT <= peak, kernel
            assert peak <= (1 << size) * _DP_BYTES_PER_SLOT, kernel

    def test_exhaustive_against_dfs_oracle(self, reps_by_n):
        for n in range(7):
            for g in reps_by_n[n]:
                p, c = dfs_weights(g)
                w = compute_weights(g)
                assert w.p == tuple(p), f"p mismatch on {g}"
                assert w.c == tuple(c), f"c mismatch on {g}"

    def test_random_against_dfs_oracle(self):
        rng = random.Random(5150)
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.uniform(0.1, 0.45), rng.randrange(1 << 30))
            p, c = dfs_weights(g)
            w = compute_weights(g)
            assert w.p == tuple(p)
            assert w.c == tuple(c)

    @given(graphs(max_n=6))
    @settings(max_examples=80)
    def test_cycle_weight_implies_path_weight(self, g):
        w = compute_weights(g)
        for v in range(g.n):
            assert 0 <= w.p[v] <= max(g.n - 1, 0)
            assert w.c[v] == 2 or 3 <= w.c[v] <= g.n
            if w.c[v] >= 3:
                assert w.p[v] >= w.c[v] - 1

    @given(graphs(min_n=1, max_n=6))
    @settings(max_examples=60)
    def test_monotone_under_induced_subgraphs(self, g):
        w = compute_weights(g)
        keep = [v for v in range(g.n) if v % 2 == 0]
        sub = g.induced(keep)
        ws = compute_weights(sub)
        for i, v in enumerate(keep):
            assert ws.p[i] <= w.p[v]
            assert ws.c[i] <= w.c[v]


class TestAgainstWholeGraphSubsetDP:
    """The per-block weights equal the whole-graph subset DP they replace."""

    def test_every_class_up_to_7(self, reps_by_n, reps7):
        for g in [g for n in range(7) for g in reps_by_n[n]] + reps7:
            assert compute_weights(g) == subset_dp_weights(g), g

    def test_seeded_block_glued_graphs(self):
        rng = random.Random(2718)
        multi_block = 0
        for _ in range(500):
            g = block_glued_graph(rng, 16)
            assert compute_weights(g) == subset_dp_weights(g), g
            multi_block += len(block_decomposition(g).masks) > 1
        assert multi_block > 400

    def test_seeded_random_graphs(self):
        rng = random.Random(1618)
        spanning = 0
        for _ in range(200):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.uniform(0.15, 0.6), rng.randrange(1 << 30))
            w = subset_dp_weights(g)
            assert compute_weights(g) == w, g
            if n >= 3:
                # the cycle search takes any adjacency, connected or not
                found = _has_hamiltonian_cycle(g.adj, n)
                assert found == (w.circumference == n), g
                if n <= 8:
                    assert found == permutation_hamiltonian_cycle(g), g
                spanning += found
        assert spanning > 30

    def test_kernels_match_the_per_bit_loops(self):
        # arbitrary graphs, not only blocks: the kernels take any adjacency
        rng = random.Random(1414)
        for _ in range(150):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.uniform(0.1, 0.7), rng.randrange(1 << 30))
            w = subset_dp_weights(g)
            assert _paths_from(g.adj, n, g.full_mask, [])[0] == list(w.p), g
            assert _cycle_table(g.adj, n) == list(w.c), g
            a = rng.randrange(n)
            targets = rng.sample([v for v in range(n) if v != a], rng.randint(0, n - 1))
            assert _paths_from(g.adj, n, 1 << a, targets) == per_bit_paths_from(g.adj, n, a, targets), g
            # from several starts: per vertex, the best over the starts alone
            starts = rng.sample(range(n), rng.randint(1, n))
            targets = rng.sample(range(n), rng.randint(0, n))
            alone = [per_bit_paths_from(g.adj, n, a, targets) for a in starts]
            assert _paths_from(g.adj, n, sum(1 << a for a in starts), targets) == (
                [max(col) for col in zip(*(p for p, _ in alone))],
                [[max(col) for col in zip(*rows)] for rows in zip(*(r for _, r in alone))],
            ), (g, starts, targets)

    def test_ends_from_every_vertex_are_the_starts(self):
        # a path that ends at b, read backwards, starts at b
        rng = random.Random(1415)
        for _ in range(150):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.uniform(0.1, 0.7), rng.randrange(1 << 30))
            targets = rng.sample(range(n), rng.randint(1, n))
            _, rows = _paths_from(g.adj, n, g.full_mask, targets)
            for b, row in zip(targets, rows):
                assert row == per_bit_paths_from(g.adj, n, b, [])[0], (g, b)

    def test_work_scales_with_the_largest_block(self):
        # 63 bridges: far past any whole-graph DP, instant block by block
        w = compute_weights(path_graph(64), dp_limit=64)
        assert w.p == (63,) * 64 and w.c == (2,) * 64
        g = generate_pdbg(BlockSpec((4,) * 21))
        assert g.n == 64
        assert compute_weights(g) == tree_dp_block_graph_weights(g)


# K4 on 0-3, a 5-cycle on 3-7 (Hamiltonian, not a clique), K(2,3) with parts
# {7, 8} and {9, 10, 11} (no spanning cycle), a triangle at 1 and a bridge
# at 10: every kind of block, and two blocks with two cut vertices each
MIXED_BLOCKS = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7),
    (7, 9), (7, 10), (7, 11), (8, 9), (8, 10), (8, 11), (1, 12), (1, 13), (12, 13), (10, 14),
)


class TestArmComposition:
    """The two passes over the block-cut tree on shapes that stress them: a
    DFS root that is a cut vertex, one cut vertex under many blocks, a deep
    chain, every kind of block, several components, tied child arms and a
    longest arm from the parent side. The weights match the whole-graph
    subset DP (n <= 18) or the block-graph tree DP, and the weights keep
    the graph's ``Blocks``."""

    @staticmethod
    def assert_matches(g: Graph, oracle):
        w = compute_weights(g)
        assert w.blocks == _block_masks(g), g
        assert w == oracle(g), g

    def test_dfs_root_is_a_cut_vertex(self):
        # vertex 0, where the DFS starts, joins a K4, a triangle and a path
        # of 4 edges
        g = parse_graph6("I~_GGE?_G")
        assert block_decomposition(g).cuts & 1
        w = compute_weights(g)
        assert w.p == (7,) * 8 + (6, 6)
        assert w.c == (4,) * 4 + (2,) * 4 + (3, 3)
        rng = random.Random(61)
        for h in [g] + [relabeled(g, rng) for _ in range(20)]:
            self.assert_matches(h, subset_dp_weights)
            self.assert_matches(h, tree_dp_block_graph_weights)

    def test_star_of_20_blocks(self):
        # ten triangles and ten bridges, all at vertex 0 (n = 31)
        spec = BlockSpec((3,) * 10 + (2,) * 10, (0,) * 19, (0,) * 19)
        g = generate_pdbg(spec)
        assert block_decomposition(g).cuts == 1
        rng = random.Random(62)
        for h in [g] + [relabeled(g, rng) for _ in range(10)]:
            self.assert_matches(h, tree_dp_block_graph_weights)

    def test_chain_of_20_blocks_at_n_64(self):
        g = generate_pdbg(BlockSpec((5, 5, 5) + (4,) * 17))
        assert g.n == 64 and len(block_decomposition(g).masks) == 20
        rng = random.Random(63)
        for h in [g] + [relabeled(g, rng) for _ in range(10)]:
            self.assert_matches(h, tree_dp_block_graph_weights)

    def test_mixed_blocks_relabeled(self):
        g = from_edges(15, MIXED_BLOCKS)
        d = block_decomposition(g)
        assert set(iter_bits(d.cuts)) == {1, 3, 7, 10} and d.clique.count(False) == 2
        # the same blocks all at one cut vertex: 7 in g, 0 here
        star = from_edges(14, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
                          + [(0, 4), (4, 5), (5, 6), (6, 7), (7, 0)]
                          + [(0, 9), (0, 10), (8, 9), (8, 10), (0, 11), (8, 11)]
                          + [(0, 12), (12, 13), (13, 0)])
        rng = random.Random(64)
        for base in (g, star):
            for h in [base] + [relabeled(base, rng) for _ in range(20)]:
                self.assert_matches(h, subset_dp_weights)

    def test_components_with_isolated_vertices(self):
        rng = random.Random(65)
        for _ in range(20):
            parts = [Graph(1, (0,)), block_glued_graph(rng, 8), Graph(1, (0,)),
                     with_pendants(cycle_graph(4), [0]), Graph(1, (0,))]
            rng.shuffle(parts)
            g = relabeled(disjoint_union(*parts), rng)
            assert g.n <= 16
            self.assert_matches(g, subset_dp_weights)

    # high fan-out: each cut vertex keeps its two longest child arms and the
    # block of the longest, and every block reads its arm at each cut in O(1)

    def assert_relabeled(self, g: Graph, seed: int, times: int = 10):
        """g and ``times`` seeded relabelings of it against the tree DP when
        every block is a clique, and against the subset DP at n <= 18."""
        oracles = [subset_dp_weights] if g.n <= 18 else []
        if all(block_decomposition(g).clique):
            oracles.append(tree_dp_block_graph_weights)
        assert oracles
        rng = random.Random(seed)
        for h in [g] + [relabeled(g, rng) for _ in range(times)]:
            for oracle in oracles:
                self.assert_matches(h, oracle)

    def test_star_k_1_63(self):
        g = from_edges(64, [(0, v) for v in range(1, 64)])
        assert compute_weights(g).p == (2,) * 64
        self.assert_relabeled(g, 66, 5)

    def test_k8_with_a_pendant_triangle_at_every_vertex(self):
        triangles = [(v, 8 + 2 * v) for v in range(8)] + [(v, 9 + 2 * v) for v in range(8)]
        triangles += [(8 + 2 * v, 9 + 2 * v) for v in range(8)]
        g = from_edges(24, complete_graph(8).edges() + triangles)
        # in through one triangle, across the K8, out through another
        assert compute_weights(g).p == (11,) * 24
        self.assert_relabeled(g, 67)

    def test_tied_child_arms(self):
        # the DFS starts at the pendant vertex 0, so cut vertex 1 hangs two
        # paths of 3 edges and a triangle below a parent arm of 1 edge: the
        # path that gave 1 its longest arm continues along the tied one
        g = from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7),
                            (1, 8), (1, 9), (8, 9)])
        assert compute_weights(g).p == (4, 6, 6, 6, 6, 6, 6, 6, 5, 5)
        self.assert_relabeled(g, 68, 20)

    def test_best_arm_from_the_parent_side(self):
        # the DFS starts at the far end of a path of 5 edges, which is the
        # longest arm of cut vertex 5 for the triangle and bridge below it
        g = from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7),
                            (6, 7), (5, 8), (6, 9)])
        assert compute_weights(g).p == (8,) * 8 + (6, 8)
        self.assert_relabeled(g, 69, 20)

    def test_hamiltonian_block_with_a_chain_at_each_cut(self):
        # a chorded 6-cycle with chains of 3, 3, 2 and 2 edges at vertices
        # 0, 1, 3 and 4
        ring = cycle_graph(6).edges() + [(0, 3)]
        chains = [(0, 6), (6, 7), (7, 8), (1, 9), (9, 10), (10, 11), (3, 12), (12, 13),
                  (4, 14), (14, 15)]
        g = from_edges(16, ring + chains)
        d = block_decomposition(g)
        assert set(iter_bits(d.cuts)) >= {0, 1, 3, 4} and d.clique.count(False) == 1
        w = compute_weights(g)
        # the ring is Hamiltonian; the longest path runs the chain at 0, the
        # ring the long way round from 0 to 1, and the chain at 1
        assert w.c[:6] == (6,) * 6 and max(w.p) == 3 + 5 + 3
        self.assert_relabeled(g, 70)


def cone(g: Graph) -> Graph:
    """G + x: G with a new vertex x = g.n joined to every vertex of G."""
    return Graph(g.n + 1, tuple(row | 1 << g.n for row in g.adj) + (g.full_mask,))


class TestConeIdentity:
    """c of the cone G + x, from the c pass, is p of G, from the p pass,
    plus 2. A cycle through v that avoids x is a path of G through v plus
    one edge; one through x is a path of G through v plus x's two edges.
    So c_{G+x}(v) = p_G(v) + 2 and c_{G+x}(x) = max p_G + 2."""

    def assert_cone_identity(self, g):
        p = compute_weights(g).p
        c = compute_weights(cone(g)).c
        assert c == tuple(pv + 2 for pv in p) + (max(p, default=0) + 2,), g

    def test_every_class_up_to_7(self, reps_by_n, reps7):
        for g in [g for n in range(7) for g in reps_by_n[n]] + reps7:
            self.assert_cone_identity(g)

    def test_seeded_random_graphs(self):
        # n <= 17 keeps the cone within the default DP limit of 18
        rng = random.Random(1729)
        for _ in range(200):
            n = rng.randint(8, 17)
            self.assert_cone_identity(random_graph(n, rng.uniform(0.1, 0.6), rng.randrange(1 << 30)))


def complete_bipartite(a: int, b: int):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def with_pendants(g, at):
    """g with one new pendant vertex hung on each vertex of ``at``."""
    return from_edges(g.n + len(at), g.edges() + [(v, g.n + k) for k, v in enumerate(at)])


def cube():
    return from_edges(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit])


def chorded_c8():
    return from_edges(8, cycle_graph(8).edges() + [(0, 4), (2, 6), (1, 5)])


def theta():
    # two vertices joined by three internally disjoint paths: no spanning cycle
    return from_edges(6, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])


class TestHamiltonianCycleCertificate:
    """A non-clique block with a spanning cycle takes its p and c from that
    cycle and skips the subset DP; its pair rows still come from the DP."""

    def test_search_matches_the_permutation_oracle(self, reps_by_n, reps7):
        checked = 0
        for g in [g for n in range(3, 7) for g in reps_by_n[n]] + reps7:
            if block_decomposition(g).masks != (g.full_mask,):
                continue  # not 2-connected
            checked += 1
            assert _has_hamiltonian_cycle(g.adj, g.n) == permutation_hamiltonian_cycle(g), g
        assert checked > 500

    def test_unbalanced_bipartite_blocks(self):
        # the larger side is an independent set of more than half the
        # vertices; either side may hold vertex 0
        assert not _has_hamiltonian_cycle(complete_bipartite(8, 10).adj, 18)
        assert not _has_hamiltonian_cycle(complete_bipartite(10, 8).adj, 18)
        assert _has_hamiltonian_cycle(complete_bipartite(9, 9).adj, 18)

    def test_search_gives_up_after_its_tries(self, monkeypatch):
        # K8,10 with an edge inside the larger side has no spanning cycle,
        # and no prune sees why: the whole search makes 109,387 reachability
        # checks, one per candidate try that passes the cheaper prunes. It
        # stops after 2^16 + 18^3 tries and leaves the block to the DP.
        g = from_edges(18, complete_bipartite(8, 10).edges() + [(8, 9)])
        checks = []

        def counted(nbr, bit, free):
            checks.append(bit)
            return reachable(nbr, bit, free)

        monkeypatch.setattr(weights, "reachable", counted)
        assert not _has_hamiltonian_cycle(g.adj, 18)
        assert 0 < len(checks) <= (1 << 16) + 18**3

    @pytest.fixture
    def dp_calls(self, monkeypatch):
        """Per call of either pass's subset DP: ("_cycle_table", block
        order), or ("_paths_from", block order, start, targets), where the
        start is "all" for a run from every vertex of the block."""
        calls = []

        def cycles(adj, n):
            calls.append(("_cycle_table", n))
            return _cycle_table(adj, n)

        def paths(adj, n, starts, targets):
            start = "all" if starts == (1 << n) - 1 else starts.bit_length() - 1
            calls.append(("_paths_from", n, start, targets))
            return _paths_from(adj, n, starts, targets)

        monkeypatch.setattr(weights, "_cycle_table", cycles)
        monkeypatch.setattr(weights, "_paths_from", paths)
        return calls

    def test_hamiltonian_blocks_skip_the_dp(self, dp_calls):
        w = compute_weights(complete_bipartite(9, 9))
        assert w.p == (17,) * 18 and w.c == (18,) * 18
        for g in (cube(), chorded_c8()):
            assert compute_weights(g) == subset_dp_weights(g), g
        assert dp_calls == []

    def test_other_blocks_run_the_dp(self, dp_calls):
        for g in (petersen(), complete_bipartite(3, 5), theta()):
            assert compute_weights(g) == subset_dp_weights(g), g
        assert dp_calls == [
            ("_cycle_table", 10), ("_paths_from", 10, "all", []),
            ("_cycle_table", 8), ("_paths_from", 8, "all", []),
            ("_cycle_table", 6), ("_paths_from", 6, "all", []),
        ]

    def test_other_blocks_run_one_path_dp_per_cut_vertex(self, dp_calls):
        # the run from all vertices gives p and every start row; pair rows
        # run from each cut vertex but the last
        for at, runs in (([0], 1), ([0, 3], 2), ([0, 3, 7], 3)):
            g = with_pendants(petersen(), at)
            assert compute_weights(g) == subset_dp_weights(g), g
            assert dp_calls == [("_cycle_table", 10), ("_paths_from", 10, "all", at)] + [
                ("_paths_from", 10, a, at[k + 1:]) for k, a in enumerate(at[:-1])
            ]
            assert len(dp_calls) - 1 == runs
            dp_calls.clear()

    def test_pair_rows_of_hamiltonian_blocks(self, dp_calls):
        for g in (with_pendants(cycle_graph(6), [0, 3]), with_pendants(cycle_graph(8), [0, 2, 5])):
            assert compute_weights(g) == subset_dp_weights(g), g
        # k cut vertices run k - 1 pair DPs: the last needs no row of its own
        assert dp_calls == [
            ("_paths_from", 6, 0, [3]), ("_paths_from", 8, 0, [2, 5]), ("_paths_from", 8, 2, [5]),
        ]


class TestPathPassOnDemand:
    """``compute_weights`` runs the c pass; the p pass (the path DP from
    all vertices, the pair rows and the arms) runs when p is first read.
    Petersen with a pendant runs the path DP from all vertices, a 6-cycle
    with two pendants the pair rows of a Hamiltonian block."""

    GRAPHS = (with_pendants(petersen(), [0]), with_pendants(cycle_graph(6), [0, 3]))

    @pytest.fixture
    def p_pass_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _paths_from(*args)

        monkeypatch.setattr(weights, "_paths_from", counted)
        return calls

    def test_p_pass_runs_once_on_the_first_read(self, p_pass_calls):
        for g in self.GRAPHS:
            w = compute_weights(g)
            assert p_pass_calls == [] and w.c == subset_dp_weights(g).c
            assert w.p == subset_dp_weights(g).p
            ran = len(p_pass_calls)
            assert ran and w.p == subset_dp_weights(g).p and len(p_pass_calls) == ran
            p_pass_calls.clear()

    def test_reading_p_calls_no_guard(self, monkeypatch):
        pending = [compute_weights(g) for g in self.GRAPHS]

        def refuse(*args):
            raise AssertionError("a guard ran while p was read")

        # the dp_limit guard is in compute_weights' own body
        monkeypatch.setattr(weights, "compute_weights", refuse)
        monkeypatch.setattr(weights, "_memory_guard", refuse)
        for g, w in zip(self.GRAPHS, pending):
            assert w.p == subset_dp_weights(g).p, g

    def test_blocks_come_from_the_one_dfs(self, count_calls):
        dfs = count_calls("_block_masks", graph_module)
        for g in self.GRAPHS:
            w = compute_weights(g)
            # reading p, and the blocks at s = 2, where the heavy set is
            # every vertex, runs no second DFS
            assert w.p == subset_dp_weights(g).p and extremal_predicate(g, 2, 1, w) is False
            assert dfs == [(g,)]
            dfs.clear()

    def test_a_copy_fills_its_own_pending_fields(self):
        for g in self.GRAPHS:
            w = compute_weights(g)
            twin = copy.copy(w)
            assert twin.p == subset_dp_weights(g).p and twin.blocks is w.blocks
            assert w.p == twin.p

    def test_given_weights_keep_their_fields(self, count_calls):
        g = from_edges(15, MIXED_BLOCKS)
        o = subset_dp_weights(g)
        given = VertexWeights(o.p, o.c, o.circumference, o.blocks)
        dfs = count_calls("_block_masks", graph_module)
        assert given.blocks is o.blocks and given.p is o.p
        # at s = 2 the heavy set is every vertex: the given blocks are read
        assert extremal_predicate(g, 2, 1, given) is False and dfs == []
        assert given == compute_weights(g) and len(dfs) == 1

    def test_pending_weights_behave_as_given_ones(self, reps_by_n, reps7):
        # every class with n <= 7, so the hash reads every kind of Blocks
        for g in [*self.GRAPHS, *(g for reps in reps_by_n.values() for g in reps), *reps7]:
            o = subset_dp_weights(g)
            given = VertexWeights(o.p, o.c, o.circumference, o.blocks)
            assert compute_weights(g) == given
            assert hash(compute_weights(g)) == hash(given)
            assert repr(compute_weights(g)) == repr(given)
            assert dataclasses.replace(compute_weights(g), c=o.c) == given
            with pytest.raises(dataclasses.FrozenInstanceError):
                compute_weights(g).p = o.p

    @pytest.mark.parametrize(
        "argv, reads_p",
        [
            (["peel", "--trace"], False),
            (["check", "--theorem", "1", "--s", "3"], False),
            (["weights"], True),
            (["check", "--theorem", "2", "--s", "3"], True),
        ],
    )
    def test_commands_run_the_p_pass_only_to_read_p(
        self, argv, reads_p, p_pass_calls, tmp_path, capsys
    ):
        f = tmp_path / "in.g6"
        f.write_text("".join(write_graph6(g) + "\n" for g in self.GRAPHS))
        assert main(argv + [str(f)]) == 0
        assert capsys.readouterr().err == ""
        assert bool(p_pass_calls) == reads_p


class TestLongestPathFrom:
    def test_k3_lex_tiebreak(self):
        assert longest_path_from(complete_graph(3), 0) == (0, 1, 2)

    def test_p3_from_middle(self):
        assert longest_path_from(path_graph(3), 1) == (1, 0)

    def test_c5_length(self):
        path = longest_path_from(cycle_graph(5), 2)
        assert len(path) == 5 and path[0] == 2

    def test_lex_least_against_oracle(self, reps_by_n, reps7):
        for g in [g for n in range(1, 7) for g in reps_by_n[n]] + reps7:
            for v0 in range(g.n):
                path = longest_path_from(g, v0)
                assert path == greedy_longest_path_from(g, v0), (g, v0)
                assert path == dfs_longest_paths_from(g, v0)[0], (g, v0)

    def test_lex_least_on_block_glued_graphs(self):
        rng = random.Random(2718)
        glued = [block_glued_graph(rng, 16) for _ in range(500)]
        rng = random.Random(4)
        glued += [complete_graph(6), petersen(), bowtie()]
        glued += [block_glued_graph(rng, 12) for _ in range(20)]
        for g in glued:
            path = longest_path_from(g, 0)
            assert path == greedy_longest_path_from(g, 0), g
            if g.n <= 8:
                assert path == dfs_longest_paths_from(g, 0)[0], g

    def test_lex_least_on_seeded_random_graphs(self):
        # the 200 graphs of TestAgainstWholeGraphSubsetDP, from every start
        rng = random.Random(1618)
        for _ in range(200):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.uniform(0.15, 0.6), rng.randrange(1 << 30))
            for v0 in range(n):
                assert longest_path_from(g, v0) == greedy_longest_path_from(g, v0), (g, v0)

    @pytest.mark.slow("the breadth-first oracle takes ~8 s on these graphs")
    def test_length_on_random_pdbgs(self):
        for g in random_pdbgs():
            path = longest_path_from(g, 0)
            assert len(path) - 1 == per_bit_max_len_from(g.adj, 0, g.full_mask), g

    def test_resource_guard_names_the_search(self):
        # the search has no guard on n: its one limit is the try budget,
        # which a path from its end vertex stays far below at any n
        for n in (19, 64):
            assert longest_path_from(path_graph(n), 0) == tuple(range(n))

    def test_bad_start(self):
        with pytest.raises(ValueError):
            longest_path_from(path_graph(2), 5)

    def test_step_budget_names_the_count(self, monkeypatch):
        g = random_graph(30, 0.2, 2)
        monkeypatch.setattr(weights, "PATH_SEARCH_BUDGET", 1000)
        with pytest.raises(ResourceLimitError, match=r"gave up after 1000 candidate tries"):
            longest_path_from(g, 0)
        # a search within the budget is unchanged
        assert longest_path_from(complete_graph(6), 0) == tuple(range(6))

    @pytest.mark.parametrize(
        "build, v0, tries",
        [
            (lambda: random_graph(20, 0.2, 2), 0, 4825),
            (lambda: random_graph(12, 0.4, 7), 3, 81),
            # 6 K4 blocks in a chain, with a pendant vertex on each: n = 25
            (lambda: generate_pdbg(BlockSpec((4,) * 6 + (2,) * 6, tuple(range(5)) + tuple(range(6)))),
             0, 757),
        ],
        ids=["gnp_20", "gnp_12", "k4_chain_with_pendants"],
    )
    def test_try_count_is_pinned(self, monkeypatch, build, v0, tries):
        # each search answers at a budget of exactly its candidate count and
        # refuses one below it; a candidate whose reach test is skipped, on a
        # path as long as the best, counts too (11-19 of them per search here)
        g = build()
        monkeypatch.setattr(weights, "PATH_SEARCH_BUDGET", tries)
        path = longest_path_from(g, v0)
        assert path == greedy_longest_path_from(g, v0)
        monkeypatch.setattr(weights, "PATH_SEARCH_BUDGET", tries - 1)
        with pytest.raises(ResourceLimitError, match=f"gave up after {tries - 1} candidate tries"):
            longest_path_from(g, v0)


class TestBlockGraphShortcut:
    def test_bowtie(self):
        w = compute_weights_block_graph(bowtie())
        assert w.c == (3, 3, 3, 3, 3)

    def test_k4_with_pendant(self):
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        w = compute_weights_block_graph(g)
        assert w.c == (4, 4, 4, 4, 2)

    def test_pdbg_13_vertices_matches_dp(self):
        g = generate_pdbg(BlockSpec((5, 4, 4, 3)))
        assert tree_dp_block_graph_weights(g) == compute_weights(g)

    def test_rejects_non_block_graph(self):
        with pytest.raises(ValueError, match="block graph"):
            compute_weights_block_graph(cycle_graph(4))

    def test_rejects_before_any_dp(self):
        # a DP over this block would hit the resource guard first
        with pytest.raises(ValueError, match="block graph"):
            compute_weights_block_graph(cycle_graph(40))

    def test_decomposes_once(self, count_calls):
        g = generate_pdbg(BlockSpec((5, 4, 4, 3)))
        calls = count_calls("_block_masks", graph_module)
        w = compute_weights_block_graph(g)
        # the weights keep the blocks of that one DFS, every one a clique
        assert calls == [(g,)]
        assert w.blocks == _block_masks(g) and all(w.blocks.clique)

    def test_matches_dp_on_random_block_graphs(self):
        rng = random.Random(31337)
        for _ in range(60):
            orders = [rng.randint(2, 5)]
            parents = []
            while len(orders) < rng.randint(1, 5):
                parents.append(rng.randrange(len(orders)))
                orders.append(rng.randint(2, orders[parents[-1]]))
            g = generate_pdbg(BlockSpec(tuple(orders), tuple(parents)))
            assert tree_dp_block_graph_weights(g) == compute_weights(g)

    def test_matches_dp_on_clique_forests(self):
        rng = random.Random(4242)
        for _ in range(40):
            g = random_clique_forest(rng.randint(1, 4), 1, 4, rng.randrange(1 << 30))
            assert tree_dp_block_graph_weights(g) == compute_weights(g)

    def test_disjoint_cliques(self):
        g = disjoint_union(complete_graph(4), complete_graph(2), complete_graph(1))
        w = compute_weights_block_graph(g)
        assert w.p == (3, 3, 3, 3, 1, 1, 0)
        assert w.c == (4, 4, 4, 4, 2, 2, 2)

    def test_matches_dp_on_every_small_block_forest(self, reps_by_n):
        checked = 0
        for n in range(7):
            for g in reps_by_n[n]:
                if not all(block_decomposition(g).clique):
                    continue
                checked += 1
                assert tree_dp_block_graph_weights(g) == compute_weights(g)
        assert checked > 50

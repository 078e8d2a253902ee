import hashlib
import random
import re

import pytest
from hypothesis import given, settings

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from cliquebounds import (
    BlockSpec,
    Graph,
    GraphParseError,
    ResourceLimitError,
    canonical_mask,
    complete_graph,
    compute_weights,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    from_edges,
    from_pair_mask,
    generate_pdbg,
    is_connected,
    is_parent_dominated,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_clique_forest,
    random_graph,
    to_pair_mask,
    write_graph6,
)
from cliquebounds.graphs import _canonical_reps, _canonical_search, ascii_int
from oracles import (
    brute_force_reps,
    decode_graph6_bitstring,
    per_bit_parse_graph6,
    permutation_canonical_mask,
    petersen,
    subset_dp_weights,
    tied_labeling_search,
)
from strategies import graphs

GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156]
CONNECTED_COUNTS = [1, 1, 1, 2, 6, 21, 112]
# sha256 of repr(tuple of pair masks) of enumerate_graphs(n) as the retired
# brute-force enumerator produced it.
REPS_SHA256 = {
    7: "97993ed7f43cc065f3a10d0e62181a49ad75a8cd6c57716d5162f5b5e81be58c",
    8: "995b863a734d34cae960b76d55bc792b6b29cbb87d5afedcb82c3c1c1f05ffec",
}


def reps_sha256(graphs) -> str:
    return hashlib.sha256(repr(tuple(to_pair_mask(g) for g in graphs)).encode()).hexdigest()


class TestGraphType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, (0b1,))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_first_failure_names_the_lowest_row(self):
        # rows are checked in order, each for bits >= n, a self-loop, then
        # its asymmetric edges from the lowest neighbour up
        with pytest.raises(ValueError, match="^asymmetric edge 1-2$"):
            Graph(4, (0b0010, 0b1101, 0b0000, 0b0000))
        with pytest.raises(ValueError, match="^adjacency row 1 has bits >= n$"):
            Graph(3, (0b000, 0b1000, 0b000))
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            Graph(3, (0b000, 0b110, 0b000))

    def test_induced_relabels(self):
        g = path_graph(4)
        h = g.induced([1, 2, 3])
        assert h.edges() == [(0, 1), (1, 2)]


class TestGraph6:
    def test_k3_is_bw(self):
        assert write_graph6(complete_graph(3)) == "Bw"
        assert parse_graph6("Bw") == complete_graph(3)

    def test_empty_payload(self):
        assert parse_graph6("B?").edges() == []

    def test_bg_is_path(self):
        assert parse_graph6("Bg") == path_graph(3)

    def test_tiny_headers(self):
        assert write_graph6(Graph(1, (0,))) == "@"
        assert write_graph6(Graph(0, ())) == "?"
        assert parse_graph6("?") == Graph(0, ())

    def test_optional_prefix(self):
        assert parse_graph6(">>graph6<<Bw") == complete_graph(3)

    def test_long_form_size_header(self):
        empty = Graph(63, (0,) * 63)
        assert write_graph6(empty) == "~??~" + "?" * 326
        assert parse_graph6(write_graph6(empty)) == empty

    @pytest.mark.parametrize("n", [63, 64])
    def test_long_form_matches_networkx(self, n):
        g = path_graph(n)
        text = write_graph6(g)
        assert text == nx.to_graph6_bytes(nx.path_graph(n), header=False).decode().strip()
        assert parse_graph6(text) == g

    @pytest.mark.parametrize(
        "bad", ["", "B", "Bww", "B\x1c", "~~~~~"]
    )
    def test_malformed_inputs(self, bad):
        with pytest.raises(GraphParseError):
            parse_graph6(bad)

    def test_error_names_offset(self):
        with pytest.raises(GraphParseError, match="offset"):
            parse_graph6("Bww")

    def test_long_form_header_up_to_64(self):
        big = nx.path_graph(63)
        line = nx.to_graph6_bytes(big, header=False).decode().strip()
        g = parse_graph6(line)
        assert g.n == 63 and g.edge_count() == 62

    def test_long_form_rejects_past_64(self):
        line = nx.to_graph6_bytes(nx.empty_graph(65), header=False).decode().strip()
        with pytest.raises(GraphParseError, match="limit"):
            parse_graph6(line)

    def test_roundtrip_all_small_classes(self, reps_by_n):
        for n, reps in reps_by_n.items():
            for g in reps:
                assert parse_graph6(write_graph6(g)) == g

    def test_agrees_with_networkx(self, reps_by_n):
        for g in reps_by_n[6]:
            line = write_graph6(g)
            theirs = nx.from_graph6_bytes(line.encode())
            assert set(theirs.edges()) == set(g.edges())
            assert theirs.number_of_nodes() == g.n

    def test_agrees_with_bitstring_decoder(self, reps_by_n, reps7):
        rng = random.Random(63)
        long_form = [
            random_graph(n, p, rng.randrange(1 << 30)) for n in (63, 64) for p in (0.1, 0.5, 0.9)
        ]
        for g in [g for reps in reps_by_n.values() for g in reps] + reps7 + long_form:
            n, edges = decode_graph6_bitstring(write_graph6(g))
            assert n == g.n and edges == set(g.edges())

    def test_agrees_with_per_bit_decoder(self, reps_by_n, reps7):
        rng = random.Random(6406)
        seeded = [
            random_graph(rng.randint(0, 64), rng.random(), rng.randrange(1 << 30))
            for _ in range(300)
        ]
        for g in [g for reps in reps_by_n.values() for g in reps] + reps7 + seeded:
            line = write_graph6(g)
            assert parse_graph6(line) == per_bit_parse_graph6(line) == g

    def test_errors_agree_with_per_bit_decoder(self):
        def outcome(parse, line):
            try:
                return parse(line)
            except GraphParseError as exc:
                return str(exc)

        # truncated, extended and corrupted lines, short and long form:
        # every message and offset, and every graph parsed, must match
        rng = random.Random(6407)
        lines = ["", "B", "Bww", "B\x1c", "~~~~~", "Bx", "C~", ">>graph6<<", "~??", "A\u00e9"]
        for _ in range(300):
            n = rng.randint(0, 64)
            line = write_graph6(random_graph(n, rng.random(), rng.randrange(1 << 30)))
            k = rng.randrange(len(line))
            lines += [
                line[:k],
                line + chr(rng.randint(63, 126)),
                line[:-1] + chr(rng.randint(63, 126)),
                line[:k] + chr(rng.randint(0, 200)) + line[k + 1:],
            ]
        outcomes = [outcome(parse_graph6, line) for line in lines]
        assert outcomes == [outcome(per_bit_parse_graph6, line) for line in lines]
        # 0x1c is no whitespace, so it is an out-of-range byte, not stripped
        assert outcomes[3] == "out-of-range graph6 byte at offset 1"
        assert sum(isinstance(o, Graph) for o in outcomes) > 100
        assert sum("padding" in o for o in outcomes if isinstance(o, str)) > 100

    @given(graphs())
    def test_roundtrip_property(self, g):
        assert parse_graph6(write_graph6(g)) == g


class TestEdgeList:
    def test_parse(self):
        g = parse_edge_list("n 3\n0 1\n1 2\n")
        assert g == path_graph(3)

    def test_bad_header(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("3\n0 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("n 2\n0 5\n")

    def test_self_loop_is_named(self):
        with pytest.raises(GraphParseError, match="self-loop 0 0 on line 2$"):
            parse_edge_list("n 3\n0 0\n")
        with pytest.raises(GraphParseError, match="self-loop 2 2 on line 4$"):
            parse_edge_list("n 3\n0 1\n\n2 2\n")

    def test_ascii_whitespace_only(self):
        assert parse_edge_list("n\t3\r\n0 1\r\n\x0c\n1\x0b2\r\n") == path_graph(3)
        # str.split() splits at 0x1f, 0x85 and 0xa0, and int() strips the last two
        for bad in ("n 3\n0 1\xa0\n", "n 3\n0\x851\n", "n 3\n0\x1f1\n"):
            with pytest.raises(GraphParseError, match="bad edge on line 2"):
                parse_edge_list(bad)
        for bad in ("n 3\x1c\n", "n 3\xa0\n"):
            with pytest.raises(GraphParseError, match="bad vertex count"):
                parse_edge_list(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 1_0\n", "bad vertex count '1_0'"),
            ("n +3\n", "bad vertex count '+3'"),
            ("n \u0663\n", "bad vertex count '\u0663'"),
            ("n 3\n0 +1\n", "bad edge on line 2: '0 +1'"),
            ("n 20\n0 1_0\n", "bad edge on line 2: '0 1_0'"),
            ("n 3\n\u0660 1\n", "bad edge on line 2: '\u0660 1'"),
        ],
    )
    def test_numbers_are_read_by_the_ascii_grammar(self, text, message):
        with pytest.raises(GraphParseError, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)

    def test_errors_name_the_physical_line(self):
        with pytest.raises(GraphParseError, match="line 4"):
            parse_edge_list("n 3\n\n0 1\nx y\n")
        with pytest.raises(GraphParseError, match="line 5"):
            parse_edge_list("\nn 3\n0 1\n\n0 7\n")
        with pytest.raises(GraphParseError, match="line 3: '1 x'"):
            parse_edge_list("n 3\n0 1\x0c\n1 x\n")


class TestConstructors:
    def test_complete(self):
        assert complete_graph(4).edge_count() == 6

    def test_path(self):
        assert path_graph(1).n == 1
        assert path_graph(1).edge_count() == 0
        assert path_graph(5).edge_count() == 4

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.edge_count() == 5
        assert all(g.degree(v) == 2 for v in range(5))

    @pytest.mark.parametrize("n", [1, 2])
    def test_cycle_rejects_degenerate(self, n):
        with pytest.raises(ValueError):
            cycle_graph(n)

    def test_cycle_zero(self):
        assert cycle_graph(0).n == 0

    def test_vertex_count_is_checked_before_an_edge_is_read(self):
        class Unreadable:
            def __iter__(self):
                raise AssertionError("an edge was read")

        for n in (-1, 65, 10**7):
            with pytest.raises(ValueError, match=rf"^vertex count {n} outside \[0, 64\]$"):
                from_edges(n, Unreadable())

    def test_constructors_pass_their_edges_lazily(self, monkeypatch):
        monkeypatch.setattr("cliquebounds.graphs.from_edges", lambda n, edges: edges)
        for build in (complete_graph, path_graph, cycle_graph):
            edges = build(10**7)
            assert iter(edges) is edges, build


class TestIntegerGrammar:
    @pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("-3", -3), ("007", 7), ("-0", 0)])
    def test_reads_an_optional_minus_and_ascii_digits(self, text, value):
        assert ascii_int(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "-", "--1", "+1", "1_0", " 1", "1 ", "1\n", "\u0663", "1\u0660", "\u00b9", "0x10", "1.0", "1e3"],
    )
    def test_refuses_everything_else(self, text):
        with pytest.raises(ValueError, match="^invalid integer "):
            ascii_int(text)


class TestEnumeration:
    def test_class_counts(self, reps_by_n):
        for n, expected in enumerate(GRAPH_COUNTS):
            assert len(reps_by_n[n]) == expected

    def test_connected_counts(self):
        for n, expected in enumerate(CONNECTED_COUNTS):
            assert len(list(filter(is_connected, enumerate_graphs(n)))) == expected

    def test_n3_connected_is_path_and_triangle(self):
        got = sorted(g.edge_count() for g in filter(is_connected, enumerate_graphs(3)))
        assert got == [2, 3]

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_graphs(9))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="vertex count"):
            list(enumerate_graphs(-1))

    def test_matches_brute_force_enumerator(self, reps_by_n):
        for n in range(7):
            assert tuple(to_pair_mask(g) for g in reps_by_n[n]) == brute_force_reps(n), n

    def test_n7_matches_brute_force_digest(self, reps7):
        assert reps_sha256(reps7) == REPS_SHA256[7]

    def test_n8_enumeration(self):
        reps = list(enumerate_graphs(8))
        assert len(reps) == 12346  # OEIS A000088
        assert sum(map(is_connected, reps)) == 11117  # OEIS A001349
        assert reps_sha256(reps) == REPS_SHA256[8]

    @pytest.mark.slow("weights of all n=8 classes take ~12 s")
    def test_n8_boundary(self):
        reps = list(enumerate_graphs(8))
        for g in reps[::97]:
            assert parse_graph6(write_graph6(g)) == g
        for g in reps:
            assert compute_weights(g) == subset_dp_weights(g), g

    def test_representatives_are_canonical(self, reps_by_n, reps7):
        for g in [g for n in range(7) for g in reps_by_n[n]] + reps7:
            assert canonical_mask(g) == to_pair_mask(g)

    def test_pairwise_non_isomorphic_by_permutation_oracle(self, reps_by_n):
        seen = set()
        for g in reps_by_n[4]:
            c = permutation_canonical_mask(g)
            assert c not in seen
            seen.add(c)

    def test_canonical_matches_permutation_oracle(self):
        import random

        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(0, 5)
            g = from_pair_mask(n, rng.randrange(1 << (n * (n - 1) // 2)) if n > 1 else 0)
            assert canonical_mask(g) == permutation_canonical_mask(g)

    @given(graphs(max_n=6))
    @settings(max_examples=60)
    def test_canonical_is_isomorphism_invariant(self, g):
        import random

        perm = list(range(g.n))
        random.Random(3).shuffle(perm)
        relabeled = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_mask(relabeled) == canonical_mask(g)

    def test_canonical_mask_guard(self):
        with pytest.raises(ResourceLimitError, match="canonical labeling"):
            canonical_mask(cycle_graph(9))


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def group_order(n: int, gens) -> int:
    """Elements of the permutation group that ``gens`` generate."""
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        p = todo.pop()
        for gen in gens:
            q = tuple(gen[x] for x in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen)


def automorphism_count(g: Graph) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


def cube() -> Graph:
    return from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])


NAMED = {
    "C8": cycle_graph(8),
    "C10": cycle_graph(10),
    "C12": cycle_graph(12),
    "Q3": cube(),
    "K4,4": from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)]),
    "Petersen": petersen(),
}


class TestCellSearchAgainstTiedLabelings:
    """The ordered-cell search behind ``canonical_mask`` against the retired
    search that kept every tied labeling, and its automorphism generators
    against networkx."""

    @staticmethod
    def assert_matches(g: Graph):
        mask, order, gens = _canonical_search(g.n, g.adj)
        assert mask == tied_labeling_search(g.n, g.adj)[0], g
        at = {v: i for i, v in enumerate(order)}
        assert to_pair_mask(from_edges(g.n, [(at[u], at[v]) for u, v in g.edges()])) == mask, g
        for perm in gens:
            assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges()), (g, perm)
        return gens

    def test_every_class_up_to_7_relabeled(self, reps_by_n, reps7):
        rng = random.Random(7)
        for g in [g for n in range(7) for g in reps_by_n[n]] + reps7:
            self.assert_matches(relabeled(g, rng))

    def test_seeded_random_graphs_up_to_10(self):
        rng = random.Random(1998)
        for _ in range(2000):
            self.assert_matches(random_graph(rng.randint(0, 10), rng.random(), rng.randrange(1 << 30)))

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_graphs(self, name):
        g = NAMED[name]
        assert group_order(g.n, self.assert_matches(g)) == automorphism_count(g)

    def test_generators_close_to_the_automorphism_group(self, reps_by_n):
        for n in range(7):
            for g in reps_by_n[n]:
                assert group_order(n, _canonical_search(n, g.adj)[2]) == automorphism_count(g), g

    def test_carried_generators_are_the_automorphism_group(self, reps_by_n):
        # the conjugated generators that the next level reads as its parents' groups
        for n in range(1, 7):
            groups = _canonical_reps(n)[1]
            for g in reps_by_n[n]:
                packed = groups.get(to_pair_mask(g), b"")
                gens = [packed[i:i + n] for i in range(0, len(packed), n)]
                for perm in gens:
                    assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges()), (g, perm)
                assert group_order(n, gens) == automorphism_count(g), g


class TestRandomGraph:
    def test_extreme_probabilities(self):
        assert random_graph(5, 0.0, 1).edge_count() == 0
        assert random_graph(5, 1.0, 1) == complete_graph(5)

    def test_deterministic_per_seed(self):
        assert random_graph(20, 0.3, 7) == random_graph(20, 0.3, 7)
        assert random_graph(20, 0.3, 7) != random_graph(20, 0.3, 8)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            random_graph(4, 1.5, 0)


class TestBlockSpecGenerator:
    def test_bowtie(self):
        g = generate_pdbg(BlockSpec((3, 3)))
        assert (g.n, g.edge_count()) == (5, 6)

    def test_path_shaped_chain(self):
        g = generate_pdbg(BlockSpec((5, 4, 4, 3)))
        assert g.n == 13

    def test_single_block_is_clique(self):
        assert generate_pdbg(BlockSpec((4,))) == complete_graph(4)

    def test_rejects_child_bigger_than_parent(self):
        with pytest.raises(ValueError, match="exceeds"):
            generate_pdbg(BlockSpec((2, 3)))

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            generate_pdbg(BlockSpec((1, 1)))

    def test_explicit_tree_and_attachments(self):
        spec = BlockSpec((4, 3, 3), parents=(0, 0), attachments=(0, 1))
        g = generate_pdbg(spec)
        assert g.n == 4 + 2 + 2
        assert is_parent_dominated(g)

    def test_output_always_recognized(self):
        import random

        rng = random.Random(99)
        for _ in range(50):
            orders = [rng.randint(2, 7)]
            parents = []
            for i in range(rng.randint(0, 5)):
                parents.append(rng.randrange(len(orders)))
                orders.append(rng.randint(2, orders[parents[-1]]))
            g = generate_pdbg(BlockSpec(tuple(orders), tuple(parents)))
            assert is_parent_dominated(g)


class TestCliqueForest:
    def test_fixed_orders(self):
        g = random_clique_forest(2, 4, 4, 5)
        assert g == disjoint_union(complete_graph(4), complete_graph(4))

    def test_single(self):
        assert random_clique_forest(1, 3, 3, 1) == complete_graph(3)

    def test_deterministic(self):
        assert random_clique_forest(3, 2, 5, 42) == random_clique_forest(3, 2, 5, 42)

    def test_min_order_guard(self):
        with pytest.raises(ValueError):
            random_clique_forest(2, 0, 3, 1)

    def test_negative_count_guard(self):
        with pytest.raises(ValueError, match="clique count must be >= 0, got -1"):
            random_clique_forest(-1, 3, 3, 1)
        assert random_clique_forest(0, 3, 3, 1) == Graph(0, ())

    def test_accepted_forest_keeps_its_draws(self):
        rng = random.Random(42)
        orders = [rng.randint(2, 5) for _ in range(3)]
        expected = disjoint_union(*(complete_graph(o) for o in orders))
        assert random_clique_forest(3, 2, 5, 42) == expected

    def test_oversized_request_is_refused_before_any_draw(self, monkeypatch):
        draws = []

        class Counted(random.Random):
            def randint(self, a, b):
                draws.append((a, b))
                return super().randint(a, b)

        monkeypatch.setattr(random, "Random", Counted)
        for count, lo, hi in ((10_000_000, 1, 1), (33, 2, 5), (65, 1, 3)):
            with pytest.raises(
                ValueError, match=f"^forest realizes at least {count * lo} vertices, limit is 64$"
            ):
                random_clique_forest(count, lo, hi, 0)
        assert draws == []
        # at least 64 vertices fits, so the orders are drawn before the refusal
        with pytest.raises(ValueError, match=r"^forest realizes \d+ vertices, limit is 64$"):
            random_clique_forest(32, 2, 5, 0)
        assert draws == [(2, 5)] * 32


def test_is_connected_conventions():
    assert is_connected(Graph(0, ()))
    assert is_connected(complete_graph(1))
    assert not is_connected(disjoint_union(complete_graph(2), complete_graph(2)))


def test_is_connected_agrees_with_networkx():
    rng = random.Random(4914)
    verdicts = []
    for _ in range(500):
        g = random_graph(rng.randint(1, 64), rng.uniform(0.0, 0.2), rng.randrange(1 << 30))
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        verdicts.append(is_connected(g))
        assert verdicts[-1] == nx.is_connected(h), write_graph6(g)
    assert 100 < sum(verdicts) < 400

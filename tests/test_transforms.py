import dataclasses
import random

import pytest

from cliquebounds import (
    BlockSpec,
    ResourceLimitError,
    complete_graph,
    compute_weights,
    count_cliques,
    count_cliques_touching,
    cycle_graph,
    disjoint_union,
    from_edges,
    generate_pdbg,
    is_connected,
    longest_path_from,
    path_graph,
    peel,
    random_graph,
    simple_transforms,
    transform_closure,
    verify_closure_lemmas,
    verify_peel_decomposition,
)
from cliquebounds import transforms
from oracles import bowtie


def closure_from_heaviest(g):
    stage0 = peel(g).stages[0]
    return stage0.weights, stage0.closure


class TestSimpleTransforms:
    def test_c4_single_rotation(self):
        assert simple_transforms(cycle_graph(4), (0, 1, 2, 3)) == [(0, 3, 2, 1)]

    def test_full_path_has_none(self):
        assert simple_transforms(path_graph(4), (0, 1, 2, 3)) == []

    def test_k4_two_rotations(self):
        got = simple_transforms(complete_graph(4), (0, 1, 2, 3))
        assert got == [(0, 3, 2, 1), (0, 1, 3, 2)]
        assert sorted(p[-1] for p in got) == [1, 2]

    def test_rotation_is_involutive(self):
        rng = random.Random(12)
        for _ in range(50):
            g = random_graph(rng.randint(2, 8), rng.uniform(0.3, 0.8), rng.randrange(1 << 30))
            v0 = rng.randrange(g.n)
            p = longest_path_from(g, v0)
            for q in simple_transforms(g, p):
                assert p in simple_transforms(g, q)

    def test_rejects_non_path(self):
        with pytest.raises(ValueError):
            simple_transforms(cycle_graph(4), (0, 2))

    def test_rejects_extendable_path(self):
        with pytest.raises(ValueError, match="longest"):
            simple_transforms(path_graph(4), (0, 1, 2))


class TestTransformClosure:
    def test_validates_the_base_path_once(self, monkeypatch):
        checks = []
        require = transforms._require_path
        monkeypatch.setattr(
            transforms, "_require_path", lambda g, path: checks.append(path) or require(g, path)
        )
        g = complete_graph(5)
        base = longest_path_from(g, 0)
        tc = transform_closure(g, base)
        assert len(tc.paths) == 24
        assert checks == [base]
        with pytest.raises(ValueError, match="repeated vertex"):
            transform_closure(g, (0, 1, 0))

    def test_rotated_terminal_with_off_path_neighbor_raises(self):
        # 0-1-2-3 with chord 1-3 and pendant 2-4: the base's terminal 3 has
        # every neighbor on the path, but the rotation (0, 1, 3, 2) ends at
        # 2, whose neighbor 4 is off it; (0, 1, 3, 2, 4) is longer
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 3), (2, 4)])
        assert simple_transforms(g, (0, 1, 2, 3)) == [(0, 1, 3, 2)]
        with pytest.raises(ValueError, match="terminal 2 has neighbor 4 off the path"):
            transform_closure(g, (0, 1, 2, 3))

    def test_path_graph_trivial(self):
        g = path_graph(5)
        tc = transform_closure(g, (0, 1, 2, 3, 4))
        assert tc.terminal_set == frozenset({4})
        assert len(tc.paths) == 1

    def test_k4_all_non_start_terminals(self):
        g = complete_graph(4)
        tc = transform_closure(g, (0, 1, 2, 3))
        assert tc.terminal_set == frozenset({1, 2, 3})

    def test_c5_two_terminals(self):
        g = cycle_graph(5)
        tc = transform_closure(g, (0, 1, 2, 3, 4))
        assert tc.terminal_set == frozenset({1, 4})

    def test_single_vertex_excludes_start(self):
        g = from_edges(1, [])
        tc = transform_closure(g, (0,))
        assert tc.terminal_set == frozenset()

    def test_start_and_vertex_set_preserved(self):
        rng = random.Random(55)
        for _ in range(40):
            g = random_graph(rng.randint(2, 9), rng.uniform(0.25, 0.6), rng.randrange(1 << 30))
            v0 = rng.randrange(g.n)
            base = longest_path_from(g, v0)
            tc = transform_closure(g, base)
            for p in tc.paths:
                assert p[0] == v0
                assert set(p) == set(base)
                assert len(p) == len(base)

    def test_closure_is_symmetric(self):
        rng = random.Random(56)
        for _ in range(20):
            g = random_graph(rng.randint(3, 7), rng.uniform(0.4, 0.8), rng.randrange(1 << 30))
            v0 = rng.randrange(g.n)
            tc = transform_closure(g, longest_path_from(g, v0))
            other = random.Random(0).choice(tc.paths)
            back = transform_closure(g, other)
            assert set(back.paths) == set(tc.paths)

    def test_representatives_end_at_terminal(self):
        _, tc = closure_from_heaviest(complete_graph(5))
        for v, rep in tc.representatives.items():
            assert rep[-1] == v

    def test_s_sets_are_outside_neighbors(self):
        g = complete_graph(5)
        _, tc = closure_from_heaviest(g)
        for v in tc.terminal_set:
            expect = {u for u in g.neighbors(v) if u not in tc.terminal_set}
            assert tc.s_sets[v] == frozenset(expect)

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(transforms, "CLOSURE_BUDGET", 10)
        g = complete_graph(8)
        with pytest.raises(ResourceLimitError, match="budget of 10 paths"):
            transform_closure(g, longest_path_from(g, 0))

    def test_deterministic(self):
        rng = random.Random(91)
        for _ in range(20):
            g = random_graph(rng.randint(2, 8), rng.uniform(0.3, 0.7), rng.randrange(1 << 30))
            base = longest_path_from(g, 0)
            a = transform_closure(g, base)
            b = transform_closure(g, base)
            assert a.paths == b.paths
            assert a.representatives == b.representatives


class TestClosureLemmas:
    def test_tree_passes(self):
        g = path_graph(6)
        w, tc = closure_from_heaviest(g)
        assert verify_closure_lemmas(g, tc, w)["ok"]

    def test_k5_equalities(self):
        g = complete_graph(5)
        w, tc = closure_from_heaviest(g)
        rep = verify_closure_lemmas(g, tc, w)
        assert rep["ok"]
        assert len(tc.terminal_set) == 4
        for v in tc.terminal_set:
            assert g.degree(v) == len(tc.terminal_set)
            assert len(tc.s_sets[v]) == w.c[v] - len(tc.terminal_set)

    def test_position_invariance_on_bowtie(self):
        g = bowtie()
        w = compute_weights(g)
        # start at a degree-2 vertex so the closure permutes only the far triangle
        tc = transform_closure(g, longest_path_from(g, 0))
        rep = verify_closure_lemmas(g, tc, w)
        assert rep["ok"]
        fixed = len(tc.base) - min(w.c[v] for v in tc.terminal_set) + 1
        assert fixed == 3
        assert all(p[:3] == tc.base[:3] for p in tc.paths)

    def test_bulk_random_connected(self):
        rng = random.Random(2024)
        done = 0
        while done < 150:
            g = random_graph(rng.randint(2, 9), rng.uniform(0.2, 0.6), rng.randrange(1 << 30))
            if not is_connected(g):
                continue
            done += 1
            w, tc = closure_from_heaviest(g)
            assert verify_closure_lemmas(g, tc, w)["ok"]


def _with_c(w, v, cv):
    """``w`` with the weight c(v) replaced by ``cv``."""
    c = list(w.c)
    c[v] = cv
    return dataclasses.replace(w, c=tuple(c))


def _replace_stage(trace, i, **fields):
    stages = list(trace.stages)
    stages[i] = dataclasses.replace(stages[i], **fields)
    return dataclasses.replace(trace, stages=tuple(stages))


class TestVerifiersCanFail:
    """Every check of the two verifiers fires on a closure or trace that is
    wrong in one field. A lowered weight breaks several closure checks at
    once; each trace corruption breaks its own check alone. On K5 from
    vertex 0 the closure has terminals 1-4, each with c = 5."""

    @pytest.mark.parametrize(
        "check, corrupt",
        [
            # a path whose first entry moved
            ("position_invariance",
             lambda tc, w: (dataclasses.replace(tc, paths=tc.paths + ((1, 0, 2, 3, 4),)), w)),
            # c(4) = 7 needs a pivot 6 edges back on a 4-edge representative
            ("pivot_defined", lambda tc, w: (tc, _with_c(w, 4, 7))),
            # c(4) = 3 puts 4's neighbours 3 and 4 edges back outside its window
            ("back_window", lambda tc, w: (tc, _with_c(w, 4, 3))),
            # cmin = 2 makes every neighbour 2 or more edges back a bad one
            ("good_path", lambda tc, w: (tc, _with_c(w, 1, 2))),
            # c(4) = 3 puts terminal 1, 3 edges back on 4's representative, in the back
            ("terminals_in_back", lambda tc, w: (tc, _with_c(w, 4, 3))),
            # a representative of 4 that misses terminal 3
            pytest.param(
                "terminals_in_back",
                lambda tc, w: (dataclasses.replace(
                    tc, representatives={**tc.representatives, 4: (0, 1, 2, 4)}), w),
                id="terminals_in_back-missing",
            ),
            # |S_1| = 2 > c(1) - |L| = 1
            ("outside_bound",
             lambda tc, w: (dataclasses.replace(tc, s_sets={**tc.s_sets, 1: frozenset({0, 2})}), w)),
            # dropping terminal 4 leaves degree 4 > |L| = 3 at the other three
            ("degree_bound",
             lambda tc, w: (dataclasses.replace(tc, terminal_set=frozenset({1, 2, 3})), w)),
        ],
    )
    def test_closure_check_fires(self, check, corrupt):
        g = complete_graph(5)
        w, tc = closure_from_heaviest(g)
        assert tc.terminal_set == frozenset({1, 2, 3, 4}) and set(w.c) == {5}
        assert verify_closure_lemmas(g, tc, w)["ok"]
        rep = verify_closure_lemmas(g, *corrupt(tc, w))
        assert not rep["ok"]
        assert check in {f["check"] for f in rep["failures"]}

    # the path 0-1-2-3 plus the isolated vertex 4 peels 3, then 2, then 1
    # from 0; vertex 4 is in stage 0 only and is never a terminal
    @pytest.mark.parametrize(
        "check, stage, corrupt",
        [
            ("start_never_terminal", 0, lambda t: dataclasses.replace(t, start=3)),
            ("weight_monotone", 1, lambda t: _replace_stage(
                t, 1, weights=_with_c(t.stages[1].weights, 0, 5))),
            ("terminals_in_stage", 1, lambda t: _replace_stage(t, 1, terminals=frozenset({2, 4}))),
            ("stage_vertices_in_graph", 1, lambda t: _replace_stage(t, 1, vertices=(0, 1, 2, 7))),
            ("stage_vertices_in_graph", 1, lambda t: _replace_stage(t, 1, vertices=(0, 1, 2, -1))),
        ],
    )
    def test_trace_check_fires(self, check, stage, corrupt):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3)])
        trace = peel(g)
        assert [sorted(st.terminals) for st in trace.stages] == [[3], [2], [1]]
        assert trace.stages[1].vertices == (0, 1, 2)
        assert all(rep["ok"] for rep in verify_peel_decomposition(g, trace, (2, 3)).values())
        for rep in verify_peel_decomposition(g, corrupt(trace), (2, 3)).values():
            assert not rep["ok"]
            assert [(f["check"], f["stage"]) for f in rep["failures"]] == [(check, stage)]


class TestPeel:
    def test_complete_graph_single_stage(self):
        g = complete_graph(6)
        trace = peel(g, 0)
        assert len(trace.stages) == 1
        assert trace.stages[0].terminals == frozenset(range(1, 6))

    def test_p3_trace(self):
        trace = peel(path_graph(3), 0)
        assert [sorted(st.terminals) for st in trace.stages] == [[2], [1]]
        assert [st.start for st in trace.stages] == [0, 0]

    def test_empty_graph(self):
        trace = peel(from_edges(0, []))
        assert trace.stages == ()
        with pytest.raises(ValueError, match="start vertex 0 not in graph"):
            peel(from_edges(0, []), 0)

    def test_isolated_vertices_dropped_not_peeled(self):
        g = from_edges(4, [(0, 1)])
        w = compute_weights(g)
        trace = peel(g, 0)
        assert all(v not in st.terminals for st in trace.stages for v in (2, 3))
        assert verify_peel_decomposition(g, trace, (2,))[2]["ok"]

    def test_requires_max_weight_start(self):
        g = disjoint_union(complete_graph(3), complete_graph(2))
        with pytest.raises(ValueError, match="maximum"):
            peel(g, 3)

    def test_k4_decomposition_value(self):
        g = complete_graph(4)
        trace = peel(g, 0)
        l0 = trace.stages[0].terminals
        assert count_cliques_touching(g, 3, l0) == 4 == count_cliques(g, 3)
        assert verify_peel_decomposition(g, trace, (3,))[3]["ok"]

    def test_bowtie_decomposition(self):
        g = bowtie()
        trace = peel(g, 2)
        assert all(rep["ok"] for rep in verify_peel_decomposition(g, trace, (2, 3)).values())

    @pytest.mark.parametrize(
        "g, u",
        [
            (path_graph(4), 0),
            (bowtie(), 0),
            (disjoint_union(complete_graph(2), complete_graph(3)), 2),
            (disjoint_union(cycle_graph(3), cycle_graph(5)), 3),
            (from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]), 1),
        ],
    )
    def test_default_start_is_lowest_id_heaviest(self, g, u):
        trace = peel(g)
        assert trace.start == trace.stages[0].start == u
        assert trace == peel(g, u)

    def test_stage0_keeps_input_weights_and_closure(self):
        g = bowtie()
        stage0 = peel(g).stages[0]
        w = compute_weights(g)
        assert stage0.graph == g and stage0.weights == w
        assert stage0.closure == transform_closure(g, stage0.path)

    def test_verify_rejects_trace_whose_stage0_is_not_input(self):
        g = bowtie()
        trace = peel(g)
        assert verify_peel_decomposition(g, trace, (2,))[2]["ok"]
        for bad in (
            dataclasses.replace(trace, stages=trace.stages[1:]),
            dataclasses.replace(trace, stages=()),
            peel(complete_graph(5)),
        ):
            rep = verify_peel_decomposition(g, bad, (2,))[2]
            assert not rep["ok"]
            assert {"check": "stage0_is_input"} in rep["failures"]

    def test_verify_needs_an_order(self):
        g = bowtie()
        with pytest.raises(ValueError, match="need at least one clique order"):
            verify_peel_decomposition(g, peel(g), ())

    def test_orders_in_one_pass_match_each_order_alone(self):
        rng = random.Random(2468)
        for _ in range(40):
            g = random_graph(rng.randint(1, 10), rng.uniform(0.2, 0.7), rng.randrange(1 << 30))
            trace = peel(g)
            repeated = dataclasses.replace(trace, stages=trace.stages + trace.stages[-1:])
            for t in (trace, repeated, dataclasses.replace(trace, stages=trace.stages[1:])):
                reports = verify_peel_decomposition(g, t, (2, 3, 4))
                assert reports == {s: verify_peel_decomposition(g, t, (s,))[s] for s in (2, 3, 4)}
            if trace.stages[-1].terminals:
                # the repeated stage's terminals are peeled twice, and its
                # cliques counted twice at every order it has
                failures = verify_peel_decomposition(g, repeated, (2, 3))[2]["failures"]
                assert failures[0]["check"] == "terminals_disjoint"
                assert failures[-1]["check"] == "clique_split"

    def test_one_pair_of_expansions_per_stage(self, count_calls):
        g = generate_pdbg(BlockSpec((4, 4, 3, 3, 2), (0, 0, 1, 2)))
        trace = peel(g)
        calls = count_calls("clique_counts")
        reports = verify_peel_decomposition(g, trace, (2, 3, 4))
        assert all(rep["ok"] for rep in reports.values())
        assert len(calls) == 2 * sum(1 for st in trace.stages if st.terminals) + 1
        assert all(call[1] == 4 for call in calls)
        with pytest.raises(ValueError, match="clique order"):
            verify_peel_decomposition(g, trace, (3, -1))

    def test_trace_deterministic(self):
        rng = random.Random(92)
        for _ in range(15):
            g = random_graph(rng.randint(1, 8), rng.uniform(0.2, 0.6), rng.randrange(1 << 30))
            assert peel(g) == peel(g)

    def test_stage_graphs_shrink_and_partition(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.7), rng.randrange(1 << 30))
            if g.n == 0:
                continue
            trace = peel(g)
            u = trace.start
            sizes = [len(st.vertices) for st in trace.stages]
            assert sizes == sorted(sizes, reverse=True)
            all_terms = [v for st in trace.stages for v in st.terminals]
            assert len(all_terms) == len(set(all_terms))
            assert u not in all_terms
            reports = verify_peel_decomposition(g, trace, (2, 3, 4))
            assert all(rep["ok"] for rep in reports.values())

    def test_chains_past_the_default_limit(self):
        # chains of clique blocks, where the number of (vertex set, end)
        # path states from a vertex grows about 4^k over k K4 blocks
        chains = [(BlockSpec((4,) * 12), 4), (BlockSpec((3,) * 30), 3)]  # n = 37, 61
        # 8 K4 blocks in a chain, with a pendant vertex on each block: n = 33
        pendants = BlockSpec((4,) * 8 + (2,) * 8, tuple(range(7)) + tuple(range(8)))
        for spec, order in chains + [(pendants, None)]:
            g = generate_pdbg(spec)
            trace = peel(g, dp_limit=64)
            reports = verify_peel_decomposition(g, trace, (2, 3, 4))
            assert all(rep["ok"] for rep in reports.values()), g.n
            if order is not None:
                # the start, vertex 0, is the cut vertex between the first
                # block and the rest, so a longest path from it covers every
                # vertex but the first block's other order - 1
                assert trace.start == 0
                assert len(trace.stages[0].path) == g.n - (order - 1)

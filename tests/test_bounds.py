import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquebounds import (
    BlockSpec,
    BoundReport,
    binom,
    check_theorem,
    complete_graph,
    compute_weights,
    count_cliques,
    cycle_graph,
    disjoint_union,
    exhaustive_verify,
    from_edges,
    generate_pdbg,
    heavy_set_reduction,
    luo_dominance,
    parse_graph6,
    path_graph,
    random_clique_forest,
    random_graph,
    thm1_rhs,
    thm2_rhs,
    write_graph6,
)
from cliquebounds import bounds, oracle
from cliquebounds.extremal import heavy_mask
from oracles import (
    bowtie,
    per_vertex_thm1_rhs,
    per_vertex_thm2_rhs,
    per_vertex_verdict,
    petersen,
)
from strategies import graphs, random_pdbgs


class TestThm1Rhs:
    def test_bowtie_equality_value(self):
        g = bowtie()
        assert thm1_rhs(g, 2, compute_weights(g)) == 6 == g.edge_count()

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycle_closed_form(self, n):
        g = cycle_graph(n)
        rhs = thm1_rhs(g, 2, compute_weights(g))
        assert rhs == Fraction(n * (n - 1), 2)
        assert (rhs == g.edge_count()) == (n == 3)

    def test_petersen_value(self):
        g = petersen()
        assert thm1_rhs(g, 2, compute_weights(g)) == Fraction(81, 2)

    def test_empty_graph_is_zero(self):
        g = from_edges(0, [])
        assert thm1_rhs(g, 1, compute_weights(g)) == 0

    def test_single_vertex_s1_out_of_scope(self):
        g = from_edges(1, [])
        rep = check_theorem(g, 1, 1, compute_weights(g), count_cliques(g, 1))
        assert not rep.in_scope
        assert rep.gap < 0
        assert rep.consistent


class TestThm2Rhs:
    def test_clique_pair(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        assert thm2_rhs(g, 3, compute_weights(g)) == 8 == count_cliques(g, 3)

    def test_bowtie_strict(self):
        g = bowtie()
        assert thm2_rhs(g, 2, compute_weights(g)) == 10 > g.edge_count()

    def test_s1_counts_vertices(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(rng.randint(0, 8), rng.random(), rng.randrange(1 << 30))
            assert thm2_rhs(g, 1, compute_weights(g)) == g.n

    @given(graphs(max_n=6))
    @settings(max_examples=80)
    def test_two_forms_never_diverge(self, g):
        # (1/s) C(p, s-1) = C(p+1, s)/(p+1), summed over the vertices
        w = compute_weights(g)
        for s in range(1, 6):
            alt = sum((Fraction(binom(p + 1, s), p + 1) for p in w.p), Fraction(0))
            assert thm2_rhs(g, s, w) == alt


class TestRightSidesAgainstPerVertexSums:
    """Both right sides, and the rhs, gap, equality and ok of every report
    of the verdict pass, against the paper's formulas summed per vertex in
    Fraction."""

    @staticmethod
    def assert_matches(g):
        w = compute_weights(g)
        for s in range(1, 8):
            assert thm1_rhs(g, s, w) == per_vertex_thm1_rhs(g, s, w), (g, s)
            assert thm2_rhs(g, s, w) == per_vertex_thm2_rhs(g, s, w), (g, s)
        for rep in oracle._reports(g, 7):
            expected = per_vertex_verdict(g, rep.s, rep.theorem, w, rep.lhs, rep.extremal)
            assert (rep.rhs, rep.gap, rep.equality, rep.ok) == expected, (g, rep.s, rep.theorem)

    def test_every_class_up_to_7(self, reps_by_n, reps7):
        for g in [g for n in range(7) for g in reps_by_n[n]] + reps7:
            self.assert_matches(g)

    def test_seeded_random_graphs_up_to_13_vertices(self):
        rng = random.Random(987654321)
        for _ in range(300):
            n = rng.randint(1, 13)
            self.assert_matches(random_graph(n, rng.uniform(0.1, 0.8), rng.randrange(1 << 30)))

    def test_random_pdbg_specs(self):
        for g in random_pdbgs():
            self.assert_matches(g)

    def test_block_graphs_up_to_64_vertices(self):
        # blocks of orders 2..9 put up to eight distinct c(v) - 1 in the
        # cycle form's common denominator (lcm 840)
        rng = random.Random(6464)
        for _ in range(12):
            orders = [rng.randint(2, 9) for _ in range(rng.randint(6, 12))]
            while sum(orders) - len(orders) + 1 > 64:
                orders.pop()
            orders.sort(reverse=True)
            parents = tuple(rng.randrange(i) for i in range(1, len(orders)))
            self.assert_matches(generate_pdbg(BlockSpec(tuple(orders), parents)))
            self.assert_matches(random_clique_forest(rng.randint(4, 7), 1, 9, rng.randrange(1 << 30)))

    def test_verdicts_build_no_fraction(self, monkeypatch):
        built = []

        class CountedFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(bounds, "Fraction", CountedFraction)
        assert exhaustive_verify(6, 5)["ok"]
        assert built == []
        g = bowtie()
        assert check_theorem(g, 2, 1, compute_weights(g), count_cliques(g, 2)).rhs == 6
        assert built


class TestHeavySets:
    def test_s2_cycle_heavy_is_everything(self):
        assert heavy_mask(compute_weights(path_graph(4)), 2, 1) == 0b1111

    def test_tree_s3_empty(self):
        assert heavy_mask(compute_weights(path_graph(5)), 3, 1) == 0

    def test_path_heavy_excludes_isolated(self):
        g = disjoint_union(complete_graph(5), from_edges(1, []))
        assert heavy_mask(compute_weights(g), 3, 2) == 0b11111


class TestCheckTheorem:
    def test_k6_path_form(self):
        g = complete_graph(6)
        rep = check_theorem(g, 3, 2, compute_weights(g), count_cliques(g, 3))
        assert rep.lhs == 20 and rep.rhs == 20
        assert rep.equality and rep.extremal and rep.consistent

    def test_petersen_cycle_form_strict(self):
        g = petersen()
        rep = check_theorem(g, 2, 1, compute_weights(g), count_cliques(g, 2))
        assert rep.lhs == 15
        assert rep.rhs == Fraction(81, 2)
        assert not rep.equality and not rep.extremal and rep.consistent

    def test_c4_s3_strict_consistent(self):
        g = cycle_graph(4)
        rep = check_theorem(g, 3, 1, compute_weights(g), count_cliques(g, 3))
        assert rep.lhs == 0 and rep.rhs == 4
        assert not rep.equality and not rep.extremal and rep.consistent

    def test_json_schema(self):
        g = bowtie()
        rep = check_theorem(g, 2, 1, compute_weights(g), count_cliques(g, 2))
        data = json.loads(rep.to_json())
        assert set(data) == {
            "theorem", "s", "graph6", "lhs", "rhs_num", "rhs_den",
            "equality", "extremal", "consistent",
        }
        assert data["equality"] is True
        assert Fraction(data["rhs_num"], data["rhs_den"]) == 6

    def test_json_degenerate_flag(self):
        g = from_edges(1, [])
        data = check_theorem(g, 1, 1, compute_weights(g), count_cliques(g, 1)).to_json_dict()
        assert data["in_scope"] is False

    def test_rejects_bad_theorem(self):
        with pytest.raises(ValueError):
            check_theorem(bowtie(), 2, 3, compute_weights(bowtie()), count_cliques(bowtie(), 2))

    def test_ok_is_the_violation_rule(self):
        g = bowtie()

        def report(rhs_num, extremal, in_scope=True):
            # 6 triangles against the right side rhs_num / 3
            return BoundReport(1, 2, g, 6, rhs_num, 3, extremal, in_scope)

        tight = report(18, True)
        assert tight.ok and tight.equality and tight.consistent and tight.gap == 0
        above = report(19, False)
        assert above.ok and not above.equality and above.gap == Fraction(1, 3)
        assert not report(18, False).ok and not report(18, False).consistent
        assert not report(19, True).ok and not report(19, True).consistent
        below = report(17, False)
        assert not below.ok and below.consistent and below.gap == Fraction(-1, 3)
        assert report(17, True, in_scope=False).ok

    def test_graph6_written_only_when_read(self, count_calls):
        g = bowtie()
        w, lhs = compute_weights(g), count_cliques(g, 2)
        calls = count_calls("write_graph6")
        rep = check_theorem(g, 2, 1, w, lhs)
        assert calls == []
        assert rep.graph6 == write_graph6(g)
        assert json.loads(rep.to_json())["graph6"] == rep.graph6
        assert len(calls) == 3

    def test_graph6_past_62_vertices(self):
        g = path_graph(63)
        rep = check_theorem(g, 2, 2, compute_weights(g), count_cliques(g, 2))
        assert rep.graph6.startswith("~??~") and parse_graph6(rep.graph6) == g
        assert rep.to_json_dict()["graph6"] == rep.graph6


class TestRelabeling:
    @given(graphs(max_n=7), st.data())
    @settings(max_examples=80)
    def test_relabeling_permutes_weights_and_keeps_verdicts(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        h = from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
        wg, wh = compute_weights(g), compute_weights(h)
        assert all(wh.p[perm[v]] == wg.p[v] for v in range(g.n))
        assert all(wh.c[perm[v]] == wg.c[v] for v in range(g.n))
        for s in range(1, 5):
            for theorem in (1, 2):
                a = check_theorem(g, s, theorem, wg, count_cliques(g, s))
                b = check_theorem(h, s, theorem, wh, count_cliques(h, s))
                assert (a.lhs, a.rhs, a.equality, a.extremal) == (
                    b.lhs, b.rhs, b.equality, b.extremal
                )


class TestBeyondExhaustiveRange:
    def test_random_graphs_up_to_13_vertices(self):
        rng = random.Random(987654321)
        for _ in range(60):
            n = rng.randint(8, 13)
            g = random_graph(n, rng.uniform(0.1, 0.8), rng.randrange(1 << 30))
            w = compute_weights(g)
            for s in range(1, 7):
                for theorem in (1, 2):
                    rep = check_theorem(g, s, theorem, w, count_cliques(g, s))
                    assert rep.gap >= 0, (rep.graph6, s, theorem)
                    assert rep.consistent, (rep.graph6, s, theorem)


class TestReductionInvariance:
    def test_k4_with_pendant(self):
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        assert heavy_mask(compute_weights(g), 3, 1) == 0b01111
        assert oracle._heavy_set_failures(g) == []

    def test_forest_with_isolate(self):
        g = disjoint_union(complete_graph(3), from_edges(1, []))
        assert heavy_mask(compute_weights(g), 2, 2) == 0b0111
        assert oracle._heavy_set_failures(g) == []

    def test_exhaustive_small(self):
        summary = heavy_set_reduction()
        assert summary == {"graphs_checked": 1252, "failures": [], "ok": True}

    def test_a_wrong_heavy_set_is_named(self, monkeypatch):
        # dropping vertex 0 from every heavy set loses the bowtie's edges
        # at vertex 0, at s = 2 under both theorems
        monkeypatch.setattr(oracle, "heavy_mask", lambda w, s, theorem: heavy_mask(w, s, theorem) & ~1)
        failures = oracle._heavy_set_failures(bowtie())
        g6 = write_graph6(bowtie())
        assert ("clique_count", g6, 2, 1) in failures
        assert ("rhs", g6, 2, 2) in failures


class TestLuoDominance:
    def test_bowtie_tight(self):
        g = bowtie()
        rep = luo_dominance(g, 2, compute_weights(g))
        assert rep["cycle"]["ok"] and rep["cycle"]["tight"]
        assert rep["cycle"]["cap"] == 6

    def test_clique_pair_tight_path_side(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        rep = luo_dominance(g, 3, compute_weights(g))
        assert rep["path"]["cap"] == 8 and rep["path"]["tight"]

    def test_petersen_tight(self):
        rep = luo_dominance(petersen(), 2, compute_weights(petersen()))
        assert rep["cycle"]["tight"] and rep["cycle"]["cap"] == Fraction(81, 2)

    def test_uniform_weights_characterize_tightness(self, reps_by_n):
        for n in range(1, 7):
            for g in reps_by_n[n]:
                w = compute_weights(g)
                for s in (2, 3):
                    rep = luo_dominance(g, s, w)
                    assert rep["ok"]
                    k = w.circumference
                    if k >= max(3, s):
                        uniform = all(cv == k for cv in w.c)
                        assert rep["cycle"]["tight"] == uniform
                    kp = rep["path"]["k"]
                    if kp >= s:
                        uniform = all(pv + 1 == kp for pv in w.p)
                        assert rep["path"]["tight"] == uniform

    def test_rejects_s1(self):
        with pytest.raises(ValueError):
            luo_dominance(bowtie(), 1, compute_weights(bowtie()))

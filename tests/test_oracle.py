import pytest

from cliquebounds import (
    ResourceLimitError,
    bounds,
    cliques,
    closure_and_peel_lemmas,
    compute_weights,
    exhaustive_verify,
    extremal_predicate,
    graphs,
    identity_grid,
    labeled_crosscheck,
    oracle,
    path_proof_claims,
    to_pair_mask,
)
from cliquebounds.graphs import MAX_VERTICES


class TestExhaustiveVerify:
    def test_n5_s3_clean(self):
        summary = exhaustive_verify(5, 3)
        assert summary["ok"]
        assert summary["graphs"][5] == 34
        assert summary["graphs_total"] == 1 + 2 + 4 + 11 + 34
        assert summary["violations"] == []

    def test_n3_equalities_by_hand(self):
        summary = exhaustive_verify(3, 2)
        eq = summary["equalities"]
        # s=2 cycle form: equality iff parent-dominated block graph
        # (K1, K2, P3, K3 among the 7 labeled-up-to-iso graphs with n<=3)
        assert eq["n=3,s=2,thm=1"] == 2  # P3 and K3
        assert eq["n=2,s=2,thm=1"] == 1  # K2
        # s=1 path form: always equality
        assert eq["n=3,s=1,thm=2"] == 4

    def test_n0_vacuous(self):
        summary = exhaustive_verify(0, 3)
        assert summary["ok"] and summary["graphs_total"] == 0

    def test_degenerate_counted_once(self):
        summary = exhaustive_verify(2, 2)
        assert summary["degenerate_cases"] == 1

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            exhaustive_verify(9, 2)

    def test_s_guard(self):
        # no graph of at most MAX_VERTICES vertices has a larger clique
        with pytest.raises(ResourceLimitError, match=r"capped at s <= 64, got 65"):
            exhaustive_verify(3, MAX_VERTICES + 1)
        summary = exhaustive_verify(3, MAX_VERTICES)
        assert summary["ok"] and summary["graphs_total"] == 7

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="vertex count"):
            exhaustive_verify(-1, 3)

    def test_vacuous_s_rejected(self):
        # with no clique order there is nothing to check, so no verdict
        for s_max in (0, -1):
            with pytest.raises(ValueError, match="clique order"):
                exhaustive_verify(4, s_max)

    def test_equality_without_its_predicate_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(bounds, "extremal_predicate", lambda g, s, theorem, w: False)
        summary = exhaustive_verify(3, 2)
        assert not summary["ok"]
        assert summary["violations"][0] == {
            "graph6": "@", "n": 1, "s": 1, "theorem": 2, "gap": "0",
            "equality": True, "extremal": False,
        }
        assert all(v["equality"] and not v["extremal"] for v in summary["violations"])
        assert {"check": "violation", "graph6": "Bw"} in labeled_crosscheck(3)["failures"]

    def test_cycle_form_predicate_once_per_heavy_set(self, count_calls):
        dfs = count_calls("_block_masks", graphs)
        exhaustive_verify(6, 6)
        masked = [call for call in dfs if len(call) == 2]
        assert masked and len(masked) == len(set(masked))

    def test_path_form_predicate_once_per_heavy_set(self, count_calls):
        decided = count_calls("extremal_predicate")
        exhaustive_verify(6, 6)
        masks = [
            (g, sum(1 << v for v, pv in enumerate(w.p) if pv >= s - 1))
            for g, s, theorem, w in decided if theorem == 2 and s >= 2
        ]
        assert masks and len(masks) == len(set(masks))

    def test_shared_cycle_form_verdicts_match_fresh_ones(self, reps_by_n, reps7):
        for g in [g for reps in reps_by_n.values() for g in reps] + reps7:
            w = compute_weights(g)
            for rep in oracle._reports(g, 6):
                assert rep.extremal == extremal_predicate(g, rep.s, rep.theorem, w), (g, rep.s)

    def test_one_block_summed_profile_per_class(self, count_calls):
        profiles = count_calls("block_clique_counts", cliques)
        whole = count_calls("clique_counts")
        single = count_calls("count_cliques")
        summary = exhaustive_verify(5, 4)
        assert len(profiles) == summary["graphs_total"] == 52
        assert all(s_max == 4 for _, s_max, _ in profiles)
        assert whole == [] and single == []


class TestLabeledCrosscheck:
    def test_n4(self):
        summary = labeled_crosscheck(4)
        assert summary["checked"] == 64
        assert summary["classes"] == 11
        assert summary["ok"] and summary["failures"] == []

    def test_n2(self):
        summary = labeled_crosscheck(2)
        assert summary["checked"] == 2 and summary["ok"]

    def test_every_failure_names_its_check_and_witness(self, monkeypatch):
        # with the predicate always false, every labeled graph's s = 1 path
        # form is an equality without its predicate
        monkeypatch.setattr(bounds, "extremal_predicate", lambda g, s, theorem, w: False)
        summary = labeled_crosscheck(3)
        assert not summary["ok"] and summary["checked"] == 8
        assert len(summary["failures"]) == 8
        assert all(list(f) == ["check", "graph6"] for f in summary["failures"])
        assert {f["check"] for f in summary["failures"]} == {"violation"}

    def test_a_canonicalizer_fault_is_named(self, monkeypatch):
        # a canonical form that is the labeled graph itself misses the
        # representatives of the labeled graphs that are not their own
        monkeypatch.setattr(oracle, "canonical_mask", to_pair_mask)
        summary = labeled_crosscheck(3)
        assert not summary["ok"]
        *missing, mismatch = summary["failures"]
        assert missing and all(list(f)[:2] == ["check", "graph6"] for f in missing)
        assert {f["check"] for f in missing} == {"missing_representative"}
        assert mismatch["check"] == "class_set_mismatch" and "graph6" not in mismatch

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            labeled_crosscheck(7)

    @pytest.mark.slow("32,768 labeled graphs take ~37 s")
    def test_n6(self):
        summary = labeled_crosscheck(6)
        assert summary["checked"] == 32768
        assert summary["classes"] == 156
        assert summary["ok"]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="vertex count"):
            labeled_crosscheck(-1)


class TestIdentityGrid:
    def test_default_grid_clean(self):
        summary = identity_grid()
        assert summary["ok"], summary["failures"][:5]
        assert summary["checked"] > 2000

    def test_convolution_cells_compare_the_sum_with_the_closed_form(self, monkeypatch):
        closed = oracle.contribution_upper_bound
        monkeypatch.setattr(
            oracle, "contribution_upper_bound",
            lambda d, a, s: closed(d, a, s) + ((d, a, s) == (5, 2, 3)),
        )
        assert identity_grid()["failures"] == [{"check": "convolution", "d": 5, "s_size": 2, "s": 3}]

    def test_known_cells(self):
        from fractions import Fraction

        from cliquebounds import binom

        # merge bound at d=4, a=1, s=3 holds with equality at 5/2
        lhs = Fraction(binom(5, 3) - binom(1, 3), 4)
        assert lhs == Fraction(5, 2) == Fraction(binom(5, 3), 4)
        # binomial shift at x=5, y=2: both sides equal 3/2... times C(3,2)
        assert Fraction(binom(3, 2), 2) == Fraction(binom(4, 2), 4)


class TestClosureAndPeelLemmas:
    def test_every_failure_names_its_check_witness_and_location(self, monkeypatch):
        monkeypatch.setattr(
            oracle, "verify_closure_lemmas",
            lambda g, tc, w: {"failures": [{"check": "good_path", "terminal": 1}], "ok": False},
        )
        real = oracle.verify_peel_decomposition

        def peel_check(g, trace, orders):
            reports = real(g, trace, orders)
            shared = [{"check": "weight_monotone", "stage": 0}]
            for s, rep in reports.items():
                split = [{"check": "clique_split"}] if s == 3 else []
                rep["failures"] = shared + split
            return reports

        monkeypatch.setattr(oracle, "verify_peel_decomposition", peel_check)
        summary = closure_and_peel_lemmas()
        assert not summary["ok"] and summary["checked"] == 1252 + 500
        # per graph: the closure lemma at stage 0, the shared stage check
        # once, not once per order, and the split at its order
        assert len(summary["failures"]) == 3 * summary["checked"]
        assert summary["failures"][:3] == [
            {"check": "good_path", "graph6": "@", "terminal": 1, "stage": 0},
            {"check": "weight_monotone", "graph6": "@", "stage": 0},
            {"check": "clique_split", "graph6": "@", "s": 3},
        ]
        assert all(list(f)[:2] == ["check", "graph6"] for f in summary["failures"])


class TestPathProofClaims:
    def test_n6_clean(self):
        summary = path_proof_claims(6)
        assert summary["ok"], summary["failures"][:5]
        assert summary["checked"] > 0
        assert summary["longest_paths_checked"] > 0

    def test_ratio_chain_hand_value(self):
        from fractions import Fraction

        # s=3, k=6: product (6/3)(5/2) = 5 and 3 < 4 < 5
        prod = Fraction(6, 3) * Fraction(5, 2)
        assert prod == 5
        summary = path_proof_claims(1)
        assert summary["ok"]
        # the fixed grid s in [3, 8], k in [2s, 40] includes (3, 6)
        assert summary["chain_cells"] == sum(41 - 2 * s for s in range(3, 9))

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            path_proof_claims(9)

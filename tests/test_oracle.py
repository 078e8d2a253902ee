import pytest

from cliquebounds import (
    ResourceLimitError,
    bounds,
    exhaustive_verify,
    identity_grid,
    labeled_crosscheck,
    path_proof_claims,
)


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
        assert labeled_crosscheck(3)["violations"]

    def test_one_clique_expansion_per_class(self, count_calls):
        expansions = count_calls("clique_counts")
        single = count_calls("count_cliques")
        summary = exhaustive_verify(5, 4)
        assert len(expansions) == summary["graphs_total"] == 52
        assert all(s_max == 4 for _, s_max in expansions)
        assert single == []


class TestLabeledCrosscheck:
    def test_n4(self):
        summary = labeled_crosscheck(4)
        assert summary["labeled_total"] == 64
        assert summary["classes"] == 11
        assert summary["ok"]

    def test_n2(self):
        summary = labeled_crosscheck(2)
        assert summary["labeled_total"] == 2 and summary["ok"]

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            labeled_crosscheck(7)

    @pytest.mark.slow("32,768 labeled graphs take ~37 s")
    def test_n6(self):
        summary = labeled_crosscheck(6)
        assert summary["labeled_total"] == 32768
        assert summary["classes"] == 156
        assert summary["ok"]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="vertex count"):
            labeled_crosscheck(-1)


class TestIdentityGrid:
    def test_default_grid_clean(self):
        summary = identity_grid()
        assert summary["ok"], summary["failures"][:5]
        assert summary["cells"] > 2000

    def test_known_cells(self):
        from fractions import Fraction

        from cliquebounds import binom

        # merge bound at d=4, a=1, s=3 holds with equality at 5/2
        lhs = Fraction(binom(5, 3) - binom(1, 3), 4)
        assert lhs == Fraction(5, 2) == Fraction(binom(5, 3), 4)
        # binomial shift at x=5, y=2: both sides equal 3/2... times C(3,2)
        assert Fraction(binom(3, 2), 2) == Fraction(binom(4, 2), 4)


class TestPathProofClaims:
    def test_n6_clean(self):
        summary = path_proof_claims(6)
        assert summary["ok"], summary["failures"][:5]
        assert summary["graphs_checked"] > 0
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

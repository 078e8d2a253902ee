"""Verification batteries: exhaustive bound checks over isomorphism classes,
a labeled cross-check that guards the enumerator, the rotation-closure and
peeling lemmas, exact identity grids, and the longest-path endpoint/ratio
claims. Every check is integer or rational with zero tolerance."""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction

from .bounds import BoundReport, RightSides, check_theorem, luo_dominance
from .cliques import binom, clique_counts, contribution_upper_bound
from .graphs import (
    ENUMERATION_LIMIT,
    MAX_VERTICES,
    Graph,
    ResourceLimitError,
    canonical_mask,
    enumerate_graphs,
    from_pair_mask,
    is_connected,
    random_graph,
    to_pair_mask,
    write_graph6,
)
from .transforms import peel, verify_closure_lemmas, verify_peel_decomposition
from .weights import compute_weights


def _reports(g: Graph, s_max: int) -> Iterator[BoundReport]:
    """Both bounds at every s <= s_max, from one weights computation, one
    clique expansion and one tally of the weights of g. Each predicate is
    decided once per distinct heavy set, s >= 2: {c(v) >= s} shrinks from
    s - 1 to s only when some c(v) equals s - 1, and {p(v) >= s - 1} only
    when some p(v) equals s - 2."""
    w = compute_weights(g)
    counts = clique_counts(g, s_max)
    sides = RightSides(g, w)
    cycle_weights, path_weights = set(w.c), set(w.p)
    cycle_extremal = path_extremal = None
    for s in range(1, s_max + 1):
        if s < 3 or s - 1 in cycle_weights:
            cycle_extremal = None
        if s < 3 or s - 2 in path_weights:
            path_extremal = None
        cycle_form = check_theorem(g, s, 1, w, counts[s], cycle_extremal, sides)
        path_form = check_theorem(g, s, 2, w, counts[s], path_extremal, sides)
        cycle_extremal, path_extremal = cycle_form.extremal, path_form.extremal
        yield cycle_form
        yield path_form


def exhaustive_verify(n_max: int, s_max: int) -> dict:
    """Both bounds, inequality and equality-iff-predicate, over every
    isomorphism class with 1..n_max vertices and every 1 <= s <= s_max.

    Any report that is not ``ok`` is a violation, listed with its graph6
    witness. The lone degenerate input (cycle form, s=1, single vertex) is
    counted separately, not as a violation.
    """
    if n_max < 0:
        raise ValueError(f"vertex count must be >= 0, got {n_max}")
    if s_max < 1:
        raise ValueError(f"clique order must be >= 1, got {s_max}")
    if n_max > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"exhaustive sweep capped at n <= {ENUMERATION_LIMIT}")
    # no graph the package can hold has a clique of more than MAX_VERTICES
    # vertices, and each order costs a pass over every class
    if s_max > MAX_VERTICES:
        raise ResourceLimitError(f"exhaustive sweep capped at s <= {MAX_VERTICES}, got {s_max}")
    violations: list[dict] = []
    counts: dict[int, int] = {}
    equalities: dict[str, int] = {}
    degenerate = 0
    for n in range(1, n_max + 1):
        counts[n] = 0
        for g in enumerate_graphs(n):
            counts[n] += 1
            for rep in _reports(g, s_max):
                if not rep.in_scope:
                    degenerate += 1
                    continue
                if not rep.ok:
                    violations.append(
                        {"graph6": rep.graph6, "n": n, "s": rep.s, "theorem": rep.theorem,
                         "gap": str(rep.gap), "equality": rep.equality,
                         "extremal": rep.extremal}
                    )
                if rep.equality:
                    key = f"n={n},s={rep.s},thm={rep.theorem}"
                    equalities[key] = equalities.get(key, 0) + 1
    return {
        "n_max": n_max,
        "s_max": s_max,
        "graphs": counts,
        "graphs_total": sum(counts.values()),
        "equalities": equalities,
        "degenerate_cases": degenerate,
        "violations": violations,
        "ok": not violations,
    }


def labeled_crosscheck(n: int) -> dict:
    """Run the same verdicts (s <= 5, both theorems) over all labeled
    n-vertex graphs with no isomorphism filtering, and force agreement with
    the canonical run.

    Guards the enumerator two ways: the canonical forms of all labeled graphs
    must be exactly the representative set, and each labeled graph's
    verdicts (clique count, right side and predicate per report) must equal
    its representative's.
    """
    if n > 6:
        raise ResourceLimitError(f"labeled sweep capped at n <= 6, got {n}")
    rep_masks = set()
    rep_verdicts: dict[int, tuple] = {}
    for g in enumerate_graphs(n):
        mask = to_pair_mask(g)
        rep_masks.add(mask)
        rep_verdicts[mask] = tuple((r.lhs, r.rhs, r.extremal) for r in _reports(g, 5))
    violations: list[dict] = []
    mismatches: list[dict] = []
    seen_canon = set()
    total = 1 << (n * (n - 1) // 2)
    for mask in range(total):
        g = from_pair_mask(n, mask)
        canon = canonical_mask(g)
        seen_canon.add(canon)
        if canon not in rep_verdicts:
            mismatches.append({"kind": "missing_representative", "mask": mask, "canon": canon})
            continue
        reports = list(_reports(g, 5))
        if tuple((r.lhs, r.rhs, r.extremal) for r in reports) != rep_verdicts[canon]:
            mismatches.append({"kind": "verdict_disagreement", "graph6": write_graph6(g)})
        if not all(r.ok for r in reports):
            violations.append({"kind": "violation", "graph6": write_graph6(g)})
    if seen_canon != rep_masks:
        mismatches.append(
            {"kind": "class_set_mismatch",
             "only_labeled": sorted(seen_canon - rep_masks),
             "only_reps": sorted(rep_masks - seen_canon)}
        )
    return {
        "n": n,
        "labeled_total": total,
        "classes": len(rep_masks),
        "violations": violations,
        "canonicalizer_mismatches": mismatches,
        "ok": not violations and not mismatches,
    }


def closure_and_peel_lemmas() -> dict:
    """Rotation-closure lemmas on peel's stage-0 closure (the whole graph,
    from its lowest-id heaviest vertex) and the exact peeling split of the
    s-clique count for s = 2, 3, 4. Runs over every isomorphism class with
    1..7 vertices, then 500 connected G(n, p) graphs from seed 424242 with
    n in [4, 10], p in [0.2, 0.55]. Failures are graph6 witnesses."""

    def inputs():
        for n in range(1, 8):
            yield from enumerate_graphs(n)
        rng = random.Random(424242)
        done = 0
        while done < 500:
            g = random_graph(rng.randint(4, 10), rng.uniform(0.2, 0.55), rng.randrange(1 << 30))
            if is_connected(g):
                done += 1
                yield g

    failures: list[str] = []
    checked = 0
    for g in inputs():
        checked += 1
        trace = peel(g)
        stage0 = trace.stages[0]
        if not (
            verify_closure_lemmas(g, stage0.closure, stage0.weights)["ok"]
            and all(rep["ok"] for rep in verify_peel_decomposition(g, trace, (2, 3, 4)).values())
        ):
            failures.append(write_graph6(g))
    return {"graphs_checked": checked, "failures": failures, "ok": not failures}


def classical_bound_dominance() -> dict:
    """Both localized right sides at most the classical global bounds
    (``luo_dominance``) for s = 2, 3, 4 over every isomorphism class with
    1..7 vertices, exactly. The cycle side counts only when the graph has
    a cycle. Failures are (side, graph6, s) witnesses."""
    failures: list[tuple[str, str, int]] = []
    checked = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            checked += 1
            w = compute_weights(g)
            for s in (2, 3, 4):
                rep = luo_dominance(g, s, w)
                if w.circumference >= 3 and not rep["cycle"]["ok"]:
                    failures.append(("cycle", write_graph6(g), s))
                if not rep["path"]["ok"]:
                    failures.append(("path", write_graph6(g), s))
    return {"checked": checked, "failures": failures, "ok": not failures}


def identity_grid() -> dict:
    """Exact grids for the four standalone facts the bound proofs lean on.

    convolution      sum form of the contribution cap equals its closed form,
                     for d <= 12, a <= d, s <= 8
    binomial_shift   C(x-2,y)/(x-3) <= C(x-1,y)/(x-1) for x>=4, y>=3, with
                     equality exactly when x-1 < y, and equality always at
                     y=2; x <= 40, y <= 12
    monotonicity     C(x,s)/(x-1) non-decreasing in integer x >= 2, for
                     x < 40, 2 <= s <= 8
    merge_bound      (C(d+1,s)-C(a,s))/(d-a+1) <= C(a+d,s)/(a+d-1) for
                     d >= a >= 1, s >= 3; equality exactly at a=1 or on
                     all-zero cells, and identically at s=2; d <= 15, s <= 8
    """
    failures: list[dict] = []
    cells = 0

    for d in range(13):
        for a in range(d + 1):
            for s in range(1, 9):
                cells += 1
                try:
                    contribution_upper_bound(d, a, s)
                except AssertionError as exc:
                    failures.append({"check": "convolution", "d": d, "s_size": a,
                                     "s": s, "detail": str(exc)})

    for x in range(4, 41):
        for y in range(2, 13):
            cells += 1
            lhs = Fraction(binom(x - 2, y), x - 3)
            rhs = Fraction(binom(x - 1, y), x - 1)
            if lhs > rhs:
                failures.append({"check": "binomial_shift", "x": x, "y": y})
            if y == 2:
                if lhs != rhs:
                    failures.append({"check": "binomial_shift_eq_y2", "x": x})
            elif (lhs == rhs) != (x - 1 < y):
                failures.append({"check": "binomial_shift_eq", "x": x, "y": y})

    for s in range(2, 9):
        for x in range(2, 40):
            cells += 1
            if Fraction(binom(x, s), x - 1) > Fraction(binom(x + 1, s), x):
                failures.append({"check": "monotonicity", "x": x, "s": s})

    def merge_sides(d: int, a: int, s: int) -> tuple[Fraction, Fraction]:
        lhs = Fraction(binom(d + 1, s) - binom(a, s), d - a + 1)
        rhs = Fraction(binom(a + d, s), a + d - 1)
        return lhs, rhs

    for d in range(1, 16):
        for a in range(1, d + 1):
            for s in range(3, 9):
                cells += 1
                lhs, rhs = merge_sides(d, a, s)
                if lhs > rhs:
                    failures.append({"check": "merge_bound", "d": d, "a": a, "s": s})
                expect_eq = a == 1 or rhs == 0
                if (lhs == rhs) != expect_eq:
                    failures.append({"check": "merge_bound_eq", "d": d, "a": a, "s": s})
            cells += 1
            lhs2, rhs2 = merge_sides(d, a, 2)
            if lhs2 != rhs2:
                failures.append({"check": "merge_bound_s2", "d": d, "a": a})

    return {"cells": cells, "failures": failures, "ok": not failures}


def _all_paths_of_length(g: Graph, k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def extend(path: list[int], used: int):
        if len(path) == k + 1:
            out.append(tuple(path))
            return
        for w in g.neighbors(path[-1]):
            if not used >> w & 1:
                path.append(w)
                extend(path, used | (1 << w))
                path.pop()

    for v in range(g.n):
        extend([v], 1 << v)
    return out


def path_proof_claims(n_max: int) -> dict:
    """Two facts behind the path-form bound.

    endpoint_degree: in a connected graph whose longest path length k is not
    matched by a (k+1)-cycle, every longest path with non-adjacent endpoints
    has an endpoint of degree at most floor(k/2).
    ratio_chain: s < 2^(s-1) < prod_{x=0}^{s-2} (k-x)/(floor(k/2)-x) for
    s in [3, 8], k in [2s, 40], exactly in rationals.
    """
    if n_max > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"claim sweep capped at n <= {ENUMERATION_LIMIT}")
    failures: list[dict] = []
    graphs_checked = 0
    paths_checked = 0
    for n in range(1, n_max + 1):
        for g in filter(is_connected, enumerate_graphs(n)):
            w = compute_weights(g)
            k = max(w.p)
            if k == 0:
                continue
            has_long_cycle = w.circumference >= 3 and w.circumference == k + 1
            if has_long_cycle:
                continue
            graphs_checked += 1
            for path in _all_paths_of_length(g, k):
                a, b = path[0], path[-1]
                if g.has_edge(a, b):
                    continue
                paths_checked += 1
                if min(g.degree(a), g.degree(b)) > k // 2:
                    failures.append(
                        {"check": "endpoint_degree", "graph6": write_graph6(g),
                         "path": path, "k": k,
                         "degrees": (g.degree(a), g.degree(b))}
                    )
    chain_cells = 0
    for s in range(3, 9):
        for k in range(2 * s, 41):
            chain_cells += 1
            half = k // 2
            prod = Fraction(1)
            for x in range(s - 1):
                prod *= Fraction(k - x, half - x)
            if not s < 2 ** (s - 1) < prod:
                failures.append({"check": "ratio_chain", "s": s, "k": k, "prod": str(prod)})
    return {
        "graphs_checked": graphs_checked,
        "longest_paths_checked": paths_checked,
        "chain_cells": chain_cells,
        "failures": failures,
        "ok": not failures,
    }

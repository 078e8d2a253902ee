"""Verification batteries: exhaustive bound checks over isomorphism classes,
a labeled cross-check that guards the enumerator, the reduction to the heavy
set, the rotation-closure and peeling lemmas, exact identity grids, and the
longest-path endpoint/ratio claims. Every check is integer or rational with
zero tolerance.

Every battery but ``exhaustive_verify`` (the ``sweep`` summary) returns
``{"checked", "failures", "ok"}`` plus its own counts. A failure is one dict:
``check`` names it, ``graph6`` is the witness wherever a graph is involved,
and its other fields (``s``, ``theorem``, ``stage``, ...) locate it. A
battery over graphs is one ``failures_of(g)`` generator run by ``_battery``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .bounds import BoundReport, RightSides, check_theorem, luo_dominance
from .cliques import binom, block_clique_counts, contribution_upper_bound
from .extremal import extremal_predicate, heavy_mask
from .graphs import (
    ENUMERATION_LIMIT,
    MAX_VERTICES,
    Graph,
    ResourceLimitError,
    canonical_mask,
    enumerate_graphs,
    from_pair_mask,
    is_connected,
    iter_bits,
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
    counts = block_clique_counts(g, s_max, w)
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


def _classes(n_max: int) -> Iterator[Graph]:
    """Every isomorphism class with 1..n_max vertices, in enumeration order."""
    for n in range(1, n_max + 1):
        yield from enumerate_graphs(n)


def _battery(graphs: Iterable[Graph], failures_of: Callable[[Graph], Iterable[dict]]) -> dict:
    """Run ``failures_of`` on each graph. Every failure record it yields
    gains the graph's graph6 witness, after its ``check`` and before its
    own location fields."""
    failures: list[dict] = []
    checked = 0
    for g in graphs:
        checked += 1
        for rec in failures_of(g):
            failures.append({"check": rec["check"], "graph6": write_graph6(g)} | rec)
    return {"checked": checked, "failures": failures, "ok": not failures}


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
    its representative's. Failures: ``missing_representative``,
    ``verdict_disagreement``, ``violation`` and ``class_set_mismatch``.
    """
    if n > 6:
        raise ResourceLimitError(f"labeled sweep capped at n <= 6, got {n}")
    rep_verdicts = {
        to_pair_mask(g): tuple((r.lhs, r.rhs, r.extremal) for r in _reports(g, 5))
        for g in enumerate_graphs(n)
    }
    seen_canon = set()

    def failures_of(g: Graph) -> Iterator[dict]:
        canon = canonical_mask(g)
        seen_canon.add(canon)
        if canon not in rep_verdicts:
            yield {"check": "missing_representative", "canon": canon}
            return
        reports = list(_reports(g, 5))
        if tuple((r.lhs, r.rhs, r.extremal) for r in reports) != rep_verdicts[canon]:
            yield {"check": "verdict_disagreement"}
        if not all(r.ok for r in reports):
            yield {"check": "violation"}

    labeled = (from_pair_mask(n, mask) for mask in range(1 << (n * (n - 1) // 2)))
    summary = _battery(labeled, failures_of)
    if seen_canon != rep_verdicts.keys():
        summary["failures"].append(
            {"check": "class_set_mismatch",
             "only_labeled": sorted(seen_canon - rep_verdicts.keys()),
             "only_reps": sorted(rep_verdicts.keys() - seen_canon)}
        )
        summary["ok"] = False
    return {"n": n, "classes": len(rep_verdicts), **summary}


def _heavy_set_failures(g: Graph) -> Iterator[dict]:
    """``heavy_set_reduction`` on one graph: each check that fails, at
    s = 2..5 and both theorems. Each distinct heavy set is weighed once."""
    w = compute_weights(g)
    counts = block_clique_counts(g, 5, w)
    sides = RightSides(g, w)
    reduced: dict[int, tuple] = {}
    for s in range(2, 6):
        for theorem, form in ((1, RightSides.cycle_form), (2, RightSides.path_form)):
            heavy = heavy_mask(w, s, theorem)
            if heavy not in reduced:
                sub = g.induced(iter_bits(heavy))
                w_sub = compute_weights(sub)
                reduced[heavy] = (
                    sub, w_sub, block_clique_counts(sub, 5, w_sub), RightSides(sub, w_sub)
                )
            sub, w_sub, sub_counts, sub_sides = reduced[heavy]
            num, den = form(sides, s)
            sub_num, sub_den = form(sub_sides, s)
            for check, holds in (
                ("clique_count", counts[s] == sub_counts[s]),
                ("rhs", num * sub_den == sub_num * den),
                ("predicate", extremal_predicate(g, s, theorem, w)
                 == extremal_predicate(sub, s, theorem, w_sub)),
            ):
                if not holds:
                    yield {"check": check, "s": s, "theorem": theorem}


def heavy_set_reduction() -> dict:
    """Dropping the light vertices changes no verdict. For both bounds at
    s = 2..5, the subgraph induced on the heavy set (``heavy_mask``) has the
    same s-clique count as g, since every s-clique lies in the heavy set; the
    same right side, since a light vertex's term is 0 and a heavy weight's
    witness path or cycle stays in the heavy set; and the same predicate
    verdict. Runs in integers over every isomorphism class with 1..7
    vertices. Failures name ``clique_count``, ``rhs`` or ``predicate``."""
    return _battery(_classes(7), _heavy_set_failures)


def _lemma_failures(g: Graph) -> Iterator[dict]:
    """``closure_and_peel_lemmas`` on one graph: the closure lemmas' failures
    at stage 0, then the peel verifier's, each stage check once and each
    ``clique_split`` with its s."""
    trace = peel(g)
    stage0 = trace.stages[0]
    for rec in verify_closure_lemmas(g, stage0.closure, stage0.weights)["failures"]:
        yield rec | {"stage": 0}
    for s, rep in verify_peel_decomposition(g, trace, (2, 3, 4)).items():
        # every order's report repeats the stage checks; only the split is its own
        for rec in rep["failures"]:
            if rec["check"] == "clique_split":
                yield rec | {"s": s}
            elif s == 2:
                yield rec


def _lemma_inputs() -> Iterator[Graph]:
    yield from _classes(7)
    rng = random.Random(424242)
    done = 0
    while done < 500:
        g = random_graph(rng.randint(4, 10), rng.uniform(0.2, 0.55), rng.randrange(1 << 30))
        if is_connected(g):
            done += 1
            yield g


def closure_and_peel_lemmas() -> dict:
    """Rotation-closure lemmas on peel's stage-0 closure (the whole graph,
    from its lowest-id heaviest vertex) and the exact peeling split of the
    s-clique count for s = 2, 3, 4. Runs over every isomorphism class with
    1..7 vertices, then 500 connected G(n, p) graphs from seed 424242 with
    n in [4, 10], p in [0.2, 0.55]."""
    return _battery(_lemma_inputs(), _lemma_failures)


def _dominance_failures(g: Graph) -> Iterator[dict]:
    w = compute_weights(g)
    for s in (2, 3, 4):
        rep = luo_dominance(g, s, w)
        if w.circumference >= 3 and not rep["cycle"]["ok"]:
            yield {"check": "cycle_dominance", "s": s}
        if not rep["path"]["ok"]:
            yield {"check": "path_dominance", "s": s}


def classical_bound_dominance() -> dict:
    """Both localized right sides at most the classical global bounds
    (``luo_dominance``) for s = 2, 3, 4 over every isomorphism class with
    1..7 vertices, exactly. The cycle side counts only when the graph has
    a cycle."""
    return _battery(_classes(7), _dominance_failures)


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
                terms = (Fraction(binom(a, t) * binom(d - a, s - t - 1), s - t) for t in range(s))
                if sum(terms) != contribution_upper_bound(d, a, s):
                    failures.append({"check": "convolution", "d": d, "s_size": a, "s": s})

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

    return {"checked": cells, "failures": failures, "ok": not failures}


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
    for g in filter(is_connected, _classes(n_max)):
        w = compute_weights(g)
        k = max(w.p)
        # skip a graph with a (k+1)-cycle, a real one of at least 3 vertices
        if k == 0 or w.circumference == k + 1 >= 3:
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
        "checked": graphs_checked,
        "longest_paths_checked": paths_checked,
        "chain_cells": chain_cells,
        "failures": failures,
        "ok": not failures,
    }

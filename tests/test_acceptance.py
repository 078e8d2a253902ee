"""Acceptance battery. One test per criterion, every comparison exact
(integer or rational, zero tolerance), one PASS line printed per criterion.
Criterion 1 runs at n <= 7 and again at n <= 8 (about 6-9 s cold).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.
"""

import random
import time

from cliquebounds import (
    BlockSpec,
    classical_bound_dominance,
    closure_and_peel_lemmas,
    complete_graph,
    compute_weights,
    compute_weights_block_graph,
    count_cliques,
    cycle_graph,
    disjoint_union,
    exhaustive_verify,
    extremal_predicate,
    generate_pdbg,
    identity_grid,
    is_parent_dominated,
    labeled_crosscheck,
    path_proof_claims,
    random_clique_forest,
    thm1_rhs,
    thm2_rhs,
)
from oracles import bowtie, dfs_weights, petersen, tree_dp_block_graph_weights


def report(criterion, ok, started, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({time.time() - started:.1f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_exhaustive_theorem_verification():
    t0 = time.time()
    summary = exhaustive_verify(7, 5)
    ok = summary["ok"] and summary["graphs_total"] == 1252
    report(
        "1 exhaustive n<=7 s<=5",
        ok,
        t0,
        f"graphs={summary['graphs_total']} violations={len(summary['violations'])} "
        f"witnesses={[v['graph6'] for v in summary['violations'][:3]]}",
    )


def test_criterion_1_exhaustive_theorem_verification_n8():
    t0 = time.time()
    summary = exhaustive_verify(8, 5)
    ok = summary["ok"] and summary["graphs_total"] == 13598 and summary["graphs"][8] == 12346
    report(
        "1 exhaustive n<=8 s<=5",
        ok,
        t0,
        f"graphs={summary['graphs_total']} violations={len(summary['violations'])} "
        f"witnesses={[v['graph6'] for v in summary['violations'][:3]]}",
    )


def test_criterion_2_labeled_crosscheck():
    t0 = time.time()
    summary = labeled_crosscheck(5)
    ok = (
        summary["ok"]
        and summary["checked"] == 1024
        and summary["classes"] == 34
    )
    report(
        "2 labeled n=5 crosscheck",
        ok,
        t0,
        f"labeled={summary['checked']} classes={summary['classes']} "
        f"failures={summary['failures'][:3]}",
    )


def _random_pdbg_spec(rng):
    orders = [rng.randint(2, 9)]
    parents = []
    total = orders[0]
    for i in range(rng.randint(0, 11)):
        par = rng.randrange(len(orders))
        o = rng.randint(2, orders[par])
        if total + o - 1 > 64:
            break
        parents.append(par)
        orders.append(o)
        total += o - 1
    return BlockSpec(tuple(orders), tuple(parents))


def test_criterion_3_generators_hit_equality():
    t0 = time.time()
    rng = random.Random(20250808)
    failures = []
    for trial in range(200):
        spec = _random_pdbg_spec(rng)
        g = generate_pdbg(spec)
        w = compute_weights_block_graph(g)
        if w != tree_dp_block_graph_weights(g):
            failures.append(("weights", spec.orders))
        if not is_parent_dominated(g):
            failures.append(("recognizer", spec.orders))
        for s in (2, 3, 4):
            if count_cliques(g, s) != thm1_rhs(g, s, w):
                failures.append(("pdbg", spec.orders, s))
    for trial in range(200):
        g = random_clique_forest(rng.randint(1, 6), 1, 9, rng.randrange(1 << 30))
        w = compute_weights_block_graph(g)
        if w != tree_dp_block_graph_weights(g):
            failures.append(("weights", g.n))
        for s in (2, 3, 4):
            if count_cliques(g, s) != thm2_rhs(g, s, w):
                failures.append(("forest", g.n, s))
    report("3 extremal generators equality", not failures, t0, f"failures={failures[:3]}")


def test_criterion_4_known_instances():
    t0 = time.time()
    failures = []

    pet = petersen()
    oracle_p, oracle_c = dfs_weights(pet)
    w = compute_weights(pet)
    if not (set(oracle_p) == {9} and set(oracle_c) == {9}):
        failures.append("petersen dfs oracle")
    if w.p != tuple(oracle_p) or w.c != tuple(oracle_c):
        failures.append("petersen dp vs oracle")
    if extremal_predicate(pet, 1, 1, w):
        failures.append("petersen hamiltonian")
    if count_cliques(pet, 3) != 0:
        failures.append("petersen triangles")

    bow = bowtie()
    wb = compute_weights(bow)
    if not (thm1_rhs(bow, 2, wb) == 6 == count_cliques(bow, 2)):
        failures.append("bowtie equality at 6")

    ff = disjoint_union(complete_graph(4), complete_graph(4))
    wf = compute_weights(ff)
    if not (thm2_rhs(ff, 3, wf) == 8 == count_cliques(ff, 3)):
        failures.append("K4+K4 equality at 8")

    for n in range(3, 10):
        g = cycle_graph(n)
        wg = compute_weights(g)
        equality = thm1_rhs(g, 2, wg) == count_cliques(g, 2)
        if equality != (n == 3):
            failures.append(f"C{n} equality flag")

    report("4 known instances", not failures, t0, f"failures={failures}")


def test_criterion_5_transform_and_peeling_lemmas():
    t0 = time.time()
    summary = closure_and_peel_lemmas()
    report(
        "5 transform/peeling lemmas",
        summary["ok"] and summary["checked"] == 1252 + 500,
        t0,
        f"exhaustive n<=7 plus 500 random; checked={summary['checked']} "
        f"failures={summary['failures'][:3]}",
    )


def test_criterion_6_identity_grids():
    t0 = time.time()
    summary = identity_grid()
    report(
        "6 identity grids",
        summary["ok"],
        t0,
        f"cells={summary['checked']} failures={summary['failures'][:3]}",
    )


def test_criterion_7_luo_dominance():
    t0 = time.time()
    summary = classical_bound_dominance()
    report(
        "7 classical-bound dominance",
        summary["ok"] and summary["checked"] == 1252,
        t0,
        f"checked={summary['checked']} failures={summary['failures'][:3]}",
    )


def test_criterion_8_path_proof_claims():
    t0 = time.time()
    summary = path_proof_claims(7)
    report(
        "8 longest-path endpoint and ratio-chain claims",
        summary["ok"],
        t0,
        f"graphs={summary['checked']} paths={summary['longest_paths_checked']} "
        f"chain_cells={summary['chain_cells']} failures={summary['failures'][:3]}",
    )

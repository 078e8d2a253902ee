"""Hypothesis strategies and seeded graph generators shared by the tests."""

import random

from hypothesis import strategies as st

from cliquebounds import (
    BlockSpec,
    Graph,
    disjoint_union,
    from_edges,
    from_pair_mask,
    generate_pdbg,
    random_clique_forest,
)


@st.composite
def graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    nbits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
    return from_pair_mask(n, mask)


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def block_glued_graph(rng: random.Random, n_max: int) -> Graph:
    """Up to three disjoint components, each grown from one vertex by gluing
    blocks at a random earlier vertex: cliques, cliques missing an edge,
    cycles with random chords, bridges and pendant trees. Randomly relabeled,
    at most ``n_max`` vertices."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 3)):
        if n == n_max:
            break
        first = n
        n += 1
        for _ in range(rng.randint(0, 6)):
            kind = rng.choice(("clique", "clique-1", "cycle", "bridge", "tree"))
            new = 1 if kind == "bridge" else rng.randint(2, 5)
            if n + new > n_max:
                break
            verts = [rng.randrange(first, n)] + list(range(n, n + new))
            n += new
            if kind == "tree":
                edges += [(v, rng.choice(verts[:i])) for i, v in enumerate(verts) if i]
            elif kind == "cycle" and len(verts) >= 4:
                ring = rng.sample(verts, len(verts))
                edges += zip(ring, ring[1:] + ring[:1])
                chords = [(u, v) for i, u in enumerate(verts) for v in verts[i + 2:]]
                edges += [e for e in chords if rng.random() < 0.3]
            else:
                pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
                if kind == "clique-1" and len(pairs) > 1:
                    pairs.pop(rng.randrange(len(pairs)))
                edges += pairs
    perm = rng.sample(range(n), n)
    return from_edges(n, {tuple(sorted((perm[u], perm[v]))) for u, v in edges})


def random_pdbgs():
    """200 parent-dominated block graphs from random block specs (seed 808),
    each at most 30 vertices."""
    rng = random.Random(808)
    for _ in range(200):
        orders = [rng.randint(2, 9)]
        parents = []
        total = orders[0]
        for i in range(rng.randint(0, 11)):
            par = rng.randrange(len(orders))
            o = rng.randint(2, orders[par])
            if total + o - 1 > 30:
                break
            parents.append(par)
            orders.append(o)
            total += o - 1
        yield generate_pdbg(BlockSpec(tuple(orders), tuple(parents)))


def blocky_families(rng: random.Random):
    """Graphs of 15 to 18 vertices shaped like the block-glued benchmark
    inputs, one of each family per n: a parent-dominated block graph of
    blocks of order 2 to 5, a block-glued graph with non-clique blocks, a
    clique forest, and a disjoint union of two block-glued graphs; each
    randomly relabeled."""
    for n in (15, 16, 17, 18):
        orders = [rng.randint(3, 5)]
        while sum(orders) - len(orders) + 1 < n:
            orders.append(min(rng.randint(2, 5), n - sum(orders) + len(orders)))
        orders.sort(reverse=True)
        parents = tuple(rng.randrange(i) for i in range(1, len(orders)))
        yield relabeled(generate_pdbg(BlockSpec(tuple(orders), parents)), rng)
        yield block_glued_graph(rng, n)
        yield relabeled(random_clique_forest(n // 4, 3, 5, rng.randrange(1 << 30)), rng)
        yield disjoint_union(block_glued_graph(rng, n // 2), block_glued_graph(rng, n - n // 2))

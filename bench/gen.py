"""Seeded input streams for the benchmark workloads, written against the
standard library only.

The package's own generators (``random_graph``, ``generate_pdbg``,
``random_clique_forest``) are deliberately not used: a change to them must
not silently change the benchmark's traffic. Graphs are lists of adjacency
bitmasks; the stream is cut into chunks, and chunk ``k`` of a workload is a
pure function of ``(workload, seed, k)``.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

# One chunk holds one graph from every stratum, so every chunk costs about
# the same and the seed changes edges, not the mix of sizes. Within a
# stratum the edge count is fixed (G(n, m) with m = round(p * n(n-1)/2)):
# G(n, p) with that mean, minus the edge-count variance that would otherwise
# dominate the run-to-run spread of a 2^n subset DP.
PEEL_STRATA = ((6, 0.5), (7, 0.45), (8, 0.45), (9, 0.4), (10, 0.35), (11, 0.3), (11, 0.35), (9, 0.5))
# (family, n): exact families are parent-dominated block graphs and clique
# forests; perturbed ones carry non-clique blocks. Glued blocks have at most
# MAX_GLUED vertices: with larger ones the DP's state count, and so the cost
# of a graph, swings several-fold with the shape of the block-cut tree.
BLOCKY_STRATA = tuple(
    (family, n) for n in (15, 16, 17, 18) for family in ("pdbg", "perturbed", "forest", "union")
)

MAX_GLUED = 5
STRATA = {"check_blocky": BLOCKY_STRATA, "peel": PEEL_STRATA}


def graph6(n: int, adj: list[int]) -> str:
    """Standard graph6 encoding (n <= 62): column-major upper triangle."""
    bits = [adj[i] >> j & 1 for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        chunk = 0
        for b in bits[k:k + 6]:
            chunk = chunk << 1 | b
        out.append(chr(63 + chunk))
    return "".join(out)


def _from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _relabel(rng: random.Random, n: int, edges) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return _from_edges(n, ((perm[u], perm[v]) for u, v in edges))


def is_connected(n: int, adj: list[int]) -> bool:
    if n == 0:
        return True
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def gnm(rng: random.Random, n: int, p: float) -> list[int]:
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    return _from_edges(n, pairs[:round(p * len(pairs))])


def _block(rng: random.Random, verts: list[int], kind: str) -> list[tuple[int, int]]:
    """Edges of one 2-connected block (or a bridge when it has 2 vertices)."""
    pairs = list(combinations(verts, 2))
    if kind == "clique" or len(verts) < 4:
        return pairs
    if kind == "clique-1":
        pairs.pop(rng.randrange(len(pairs)))
        return pairs
    ring = verts[:]
    rng.shuffle(ring)
    cycle = {tuple(sorted((ring[i], ring[i - 1]))) for i in range(len(ring))}
    chords = [e for e in pairs if e not in cycle and rng.random() < 0.3]
    return sorted(cycle) + chords


def _orders(rng: random.Random, n: int, lo: int, hi: int, root_lo: int) -> list[int]:
    """Block orders realizing exactly n vertices when glued along a tree."""
    first = rng.randint(root_lo, hi)
    orders, remaining = [first], n - first
    while remaining:
        o = min(rng.randint(lo, hi), remaining + 1)
        orders.append(max(o, 2))
        remaining -= orders[-1] - 1
    return orders


def _glue(rng: random.Random, orders: list[int], kinds: list[str], offset: int) -> list[tuple[int, int]]:
    """Blocks i >= 1 each share one vertex with a random earlier block, so
    the block-cut tree is a random tree with block 0 at its root."""
    blocks = [list(range(offset, offset + orders[0]))]
    nxt = offset + orders[0]
    edges = _block(rng, blocks[0], kinds[0])
    for order, kind in zip(orders[1:], kinds[1:]):
        parent = blocks[rng.randrange(len(blocks))]
        verts = [parent[rng.randrange(len(parent))]] + list(range(nxt, nxt + order - 1))
        nxt += order - 1
        blocks.append(verts)
        edges += _block(rng, verts, kind)
    return edges


def _mixed_kinds(rng: random.Random, orders: list[int]) -> list[str]:
    """Random block kinds with the first block of order >= 4 forced to be a
    non-clique, so the cycle-form recognizer takes its false branch."""
    kinds = [("clique", "clique-1", "cycle")[rng.randrange(3)] for _ in orders]
    big = next(i for i, o in enumerate(orders) if o >= 4)
    kinds[big] = ("clique-1", "cycle")[rng.randrange(2)]
    return kinds


def blocky(rng: random.Random, family: str, n: int) -> list[int]:
    if family == "pdbg":
        # clique blocks ordered by non-increasing order from the root: a
        # parent-dominated block graph, tight for the cycle form
        orders = sorted(_orders(rng, n, 3, MAX_GLUED, 3), reverse=True)
        edges = _glue(rng, orders, ["clique"] * len(orders), 0)
    elif family == "perturbed":
        orders = _orders(rng, n, 2, MAX_GLUED, 4)
        edges = _glue(rng, orders, _mixed_kinds(rng, orders), 0)
    elif family == "forest":
        # disjoint cliques of orders 3..7: tight for the path form
        edges, offset = [], 0
        while offset < n:
            rem = n - offset
            o = rng.choice([o for o in range(3, 8) if o <= rem and (o == rem or rem - o >= 3)])
            edges += combinations(range(offset, offset + o), 2)
            offset += o
    elif family == "union":
        parts = [n // 2, n - n // 2]
        edges, offset = [], 0
        for size in parts:
            orders = _orders(rng, size, 2, MAX_GLUED, 4)
            edges += _glue(rng, orders, _mixed_kinds(rng, orders), offset)
            offset += size
    else:
        raise ValueError(f"unknown block family {family!r}")
    return _relabel(rng, n, edges)


def chunk(workload: str, seed: int, index: int) -> list[tuple[int, list[int]]]:
    """Chunk ``index`` of a workload's input stream as ``(n, adj)`` pairs."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    out = []
    for stratum in STRATA[workload]:
        if workload == "check_blocky":
            family, n = stratum
            adj = blocky(rng, family, n)
        else:
            n, p = stratum
            adj = gnm(rng, n, p)
            while workload == "peel" and not is_connected(n, adj):
                adj = gnm(rng, n, p)
        out.append((n, adj))
    return out


def feed(h, lines):
    """Add lines, newline-terminated, to a running hash."""
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")


def digest(lines) -> str:
    h = hashlib.sha256()
    feed(h, lines)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Input properties and an independent triangle count, both computed outside
# the timed region
# ---------------------------------------------------------------------------

def largest_block(n: int, adj: list[int]) -> int:
    """Vertex count of the largest biconnected component (1 for an isolated
    vertex), by Tarjan's low-point recursion."""
    disc = [-1] * n
    low = [0] * n
    stack: list[tuple[int, int]] = []
    best = 1 if n else 0
    clock = 0

    def dfs(u: int, parent: int):
        nonlocal clock, best
        disc[u] = low[u] = clock
        clock += 1
        for w in range(n):
            if not adj[u] >> w & 1 or w == parent:
                continue
            if disc[w] == -1:
                stack.append((u, w))
                dfs(w, u)
                low[u] = min(low[u], low[w])
                if low[w] >= disc[u]:
                    verts = set()
                    while True:
                        e = stack.pop()
                        verts.update(e)
                        if e == (u, w):
                            break
                    best = max(best, len(verts))
            elif disc[w] < disc[u]:
                stack.append((u, w))
                low[u] = min(low[u], disc[w])

    for v in range(n):
        if disc[v] == -1:
            dfs(v, -1)
    return best


def triangles(n: int, adj: list[int]) -> int:
    return sum(
        (adj[u] & adj[v] & ~((2 << v) - 1)).bit_count()
        for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1
    )

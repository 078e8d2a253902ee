"""Independent reference implementations used only to cross-check the package.

Everything here but the retired algorithms deliberately avoids the
package's bitmask DP style: paths and cycles come from plain recursive DFS
over neighbor lists, clique counts from subset enumeration, canonical forms
and Hamiltonian cycles (``permutation_hamiltonian_cycle``) from trying all
permutations. The package's current weights are checked
against its retired weights algorithms: ``subset_dp_weights``, the
whole-graph subset DP (the per-bit loops of the p pass's ``_paths_from``
from every vertex and the c pass's ``_cycle_table``, applied to the whole
graph), and ``tree_dp_block_graph_weights``, the block-cut-tree DP for
block graphs (the only oracle that reaches n = 64). The retired per-bit
``_paths_from`` from one start vertex is ``per_bit_paths_from``, and the
retired longest path, a greedy that runs one breadth-first search
(``per_bit_max_len_from``) per candidate step, is
``greedy_longest_path_from``. The retired rotation closure, which
validates every path it reaches and rebuilds each one's vertex set, is
``rotation_closure``. The two weights oracles return
``VertexWeights`` carrying the package's block decomposition of g, so they
compare equal to ``compute_weights`` field by field; their p and c are
computed without it. The block decomposition is checked field for field
against the retired edge-stack pass (``edge_stack_block_decomposition``);
it and the block-graph recognizers are also checked against networkx
(``nx_block_decomposition``), and so are the clique counts past the subset oracle's range
(``nx_cliques_by_order``), the contribution shares, which the package
tallies as integers per marked vertex and meeting size
(``per_clique_shares``), and the clique-component test
(``nx_components_are_cliques``). The right sides, which the package sums
as integer numerators over a common denominator from a tally of distinct
weights, are checked against the paper's formulas summed per vertex in
``Fraction`` (``per_vertex_thm1_rhs``, ``per_vertex_thm2_rhs``), and every
report's verdict against the violation rule decided on that ``Fraction``
gap (``per_vertex_verdict``). The graph6 decoder, which reads each payload
byte through a table and each column of the pair mask as one slice, is
checked against the retired per-bit decoder (``per_bit_parse_graph6``).
The retired enumerator, ``brute_force_reps``, is the oracle for the
package's canonical augmentation; it canonicalizes with the package's own
``canonical_mask``, which is checked against ``permutation_canonical_mask``
and against the retired labeling search that kept every tied partial
labeling (``tied_labeling_search``), which reaches n = 12.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, takewhile
from typing import NamedTuple

import networkx as nx

from cliquebounds import (
    BlockDecomposition,
    Graph,
    GraphParseError,
    TransformClosure,
    binom,
    block_decomposition,
    canonical_mask,
    from_pair_mask,
)
from cliquebounds.graphs import MAX_VERTICES, iter_bits
from cliquebounds.weights import VertexWeights


def _neighbor_lists(g: Graph) -> list[list[int]]:
    return [sorted(g.neighbors(v)) for v in range(g.n)]


def dfs_weights(g: Graph) -> tuple[list[int], list[int]]:
    """p and c per vertex by enumerating every simple path and cycle."""
    adj = _neighbor_lists(g)
    best_p = [0] * g.n
    best_c = [2] * g.n

    def walk(path: list[int], used: set[int]):
        length = len(path) - 1
        for v in path:
            if best_p[v] < length:
                best_p[v] = length
        for w in adj[path[-1]]:
            if w in used:
                if w == path[0] and length >= 2:
                    span = len(path)
                    for v in path:
                        if best_c[v] < span:
                            best_c[v] = span
                continue
            path.append(w)
            used.add(w)
            walk(path, used)
            path.pop()
            used.remove(w)

    for v in range(g.n):
        walk([v], {v})
    return best_p, best_c


def subset_dp_weights(g: Graph) -> VertexWeights:
    """p and c by one subset DP over all 2^n vertex subsets of the whole
    graph: the package's weights before they were composed per block.

    Two tables over subsets S: endpoints of simple paths spanning exactly S
    (any start) drive p; endpoints of paths spanning S that start at min(S)
    detect cycles, closing S into a cycle when some endpoint is adjacent to
    min(S) and |S| >= 3.
    """
    n = g.n
    if n == 0:
        return VertexWeights((), (), 0, block_decomposition(g))
    adj = g.adj
    size = 1 << n

    endp = [0] * size
    for v in range(n):
        endp[1 << v] = 1 << v
    p = [0] * n
    for s_mask in range(1, size):
        ends = endp[s_mask]
        if not ends:
            continue
        length = s_mask.bit_count() - 1
        for v in iter_bits(s_mask):
            if p[v] < length:
                p[v] = length
        for u in iter_bits(ends):
            ext = adj[u] & ~s_mask
            for w in iter_bits(ext):
                endp[s_mask | (1 << w)] |= 1 << w

    rooted = [0] * size
    for v in range(n):
        rooted[1 << v] = 1 << v
    c = [2] * n
    for s_mask in range(1, size):
        ends = rooted[s_mask]
        if not ends:
            continue
        low = s_mask & -s_mask
        above = ~((low << 1) - 1)
        if s_mask.bit_count() >= 3 and ends & adj[low.bit_length() - 1]:
            span = s_mask.bit_count()
            for v in iter_bits(s_mask):
                if c[v] < span:
                    c[v] = span
        for u in iter_bits(ends):
            ext = adj[u] & ~s_mask & above
            for w in iter_bits(ext):
                rooted[s_mask | (1 << w)] |= 1 << w

    return VertexWeights(tuple(p), tuple(c), max(c), block_decomposition(g))


def tree_dp_block_graph_weights(g: Graph) -> VertexWeights:
    """Structural weights for graphs whose every block is a clique.

    c(v) is the largest order of a block containing v (2 when that is at most
    2, i.e. v lies on no cycle). p(v) comes from the heaviest path through a
    block containing v in the block-cut tree, where a tree-path covering
    blocks B_1..B_m realizes a graph path of sum(|B_i| - 1) edges. Accepts
    disjoint unions of block graphs; each component is handled on its own.
    """
    decomp = block_decomposition(g)
    if g.n == 0:
        return VertexWeights((), (), 0, decomp)
    for blk in decomp.blocks:
        for v in blk:
            need = [u for u in blk if u != v]
            if any(not g.has_edge(u, v) for u in need):
                raise ValueError("input is not a block graph: some block is not a clique")

    order = [len(b) for b in decomp.blocks]
    c = [2] * g.n
    blocks_at: list[list[int]] = [[] for _ in range(g.n)]
    for bi, blk in enumerate(decomp.blocks):
        for v in blk:
            blocks_at[v].append(bi)
            if order[bi] >= 3 and c[v] < order[bi]:
                c[v] = order[bi]

    # Bipartite block-cut tree: block nodes ('b', i) and cut nodes ('c', v).
    tree: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for bi in range(len(decomp.blocks)):
        tree[("b", bi)] = []
    for v in decomp.cut_vertices:
        tree[("c", v)] = []
    for bi, v in decomp.tree_edges:
        tree[("b", bi)].append(("c", v))
        tree[("c", v)].append(("b", bi))

    def weight(node) -> int:
        return order[node[1]] - 1 if node[0] == "b" else 0

    best_through = [0] * len(decomp.blocks)
    seen: set[tuple[str, int]] = set()
    for root_bi in range(len(decomp.blocks)):
        root = ("b", root_bi)
        if root in seen:
            continue
        parent: dict[tuple[str, int], tuple[str, int] | None] = {root: None}
        topo = [root]
        for node in topo:
            seen.add(node)
            for nb in tree[node]:
                if nb not in parent:
                    parent[nb] = node
                    topo.append(nb)
        down = {node: 0 for node in topo}
        for node in reversed(topo):
            kids = [nb for nb in tree[node] if parent.get(nb) == node]
            down[node] = weight(node) + max((down[k] for k in kids), default=0)
        up = {root: 0}
        for node in topo:
            kids = [nb for nb in tree[node] if parent.get(nb) == node]
            for k in kids:
                others = max((down[o] for o in kids if o != k), default=0)
                up[k] = max(0, weight(node) + max(up[node], others))
        for node in topo:
            if node[0] != "b":
                continue
            kids = [nb for nb in tree[node] if parent.get(nb) == node]
            arms = sorted((down[k] for k in kids), reverse=True) + [up[node]]
            arms.sort(reverse=True)
            arm1 = arms[0] if arms else 0
            arm2 = arms[1] if len(arms) > 1 else 0
            best_through[node[1]] = weight(node) + max(arm1, 0) + max(arm2, 0)

    p = [0] * g.n
    for v in range(g.n):
        p[v] = max(best_through[bi] for bi in blocks_at[v])
    return VertexWeights(tuple(p), tuple(c), max(c), decomp)


def edge_stack_block_decomposition(g: Graph, mask: int | None = None) -> BlockDecomposition:
    """The retired ``block_decomposition``: single-pass depth-first
    decomposition with an edge stack, of the subgraph induced on the vertex
    bitmask ``mask`` (all of g by default) in g's own vertex ids."""
    n = g.n
    mask = g.full_mask if mask is None else mask & g.full_mask
    adj = [row & mask for row in g.adj]
    disc = [-1] * n
    low = [0] * n
    blocks: list[frozenset[int]] = []
    stack: list[tuple[int, int]] = []
    timer = 0

    def pop_block(u: int, v: int):
        verts: set[int] = set()
        while True:
            a, b = stack.pop()
            verts.add(a)
            verts.add(b)
            if (a, b) == (u, v):
                break
        blocks.append(frozenset(verts))

    def dfs(root: int):
        nonlocal timer
        disc[root] = low[root] = timer
        timer += 1
        work = [(root, -1, iter_bits(adj[root]))]
        while work:
            u, parent, it = work[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((u, w))
                    work.append((w, u, iter_bits(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[u]:
                    stack.append((u, w))
                    if low[u] > disc[w]:
                        low[u] = disc[w]
            if advanced:
                continue
            work.pop()
            if work:
                pu = work[-1][0]
                if low[pu] > low[u]:
                    low[pu] = low[u]
                if low[u] >= disc[pu]:
                    pop_block(pu, u)

    for v in iter_bits(mask):
        if disc[v] == -1:
            if not adj[v]:
                blocks.append(frozenset({v}))
            else:
                dfs(v)

    blocks_at: list[list[int]] = [[] for _ in range(n)]
    clique = []
    for bi, blk in enumerate(blocks):
        bmask = 0
        for v in blk:
            blocks_at[v].append(bi)
            bmask |= 1 << v
        clique.append(all((adj[v] | (1 << v)) & bmask == bmask for v in blk))
    cuts = frozenset(v for v in range(n) if len(blocks_at[v]) > 1)
    tree = tuple((bi, v) for bi, blk in enumerate(blocks) for v in sorted(blk) if v in cuts)
    return BlockDecomposition(
        tuple(blocks), cuts, tree, tuple(clique), tuple(map(tuple, blocks_at))
    )


class NxBlocks(NamedTuple):
    blocks: frozenset[frozenset[int]]
    cut_vertices: frozenset[int]
    clique: dict[frozenset[int], bool]
    components: int


def _nx_graph(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _nx_blocks(h: nx.Graph) -> list[frozenset[int]]:
    """networkx's biconnected components skip isolated vertices; here they
    are singleton blocks, as in the package."""
    blocks = [frozenset(b) for b in nx.biconnected_components(h)]
    return blocks + [frozenset({v}) for v in nx.isolates(h)]


def _nx_is_clique(h: nx.Graph, block) -> bool:
    return all(h.has_edge(u, v) for u, v in combinations(block, 2))


def nx_block_decomposition(g: Graph) -> NxBlocks:
    """Blocks, cut vertices, per-block clique flags and the number of
    connected components, all from networkx."""
    h = _nx_graph(g)
    blocks = _nx_blocks(h)
    return NxBlocks(
        frozenset(blocks),
        frozenset(nx.articulation_points(h)),
        {b: _nx_is_clique(h, b) for b in blocks},
        nx.number_connected_components(h),
    )


def nx_is_block_graph(g: Graph) -> bool:
    """Connected (the empty graph counts) and every block a clique."""
    h = _nx_graph(g)
    return (g.n == 0 or nx.is_connected(h)) and all(_nx_is_clique(h, b) for b in _nx_blocks(h))


def nx_is_parent_dominated(g: Graph) -> bool:
    """A block graph with some maximum-order block from which a
    breadth-first search of the block-cut tree reaches every block through
    a parent block at least as large; graphs with at most one vertex pass."""
    if g.n <= 1:
        return True
    if not nx_is_block_graph(g):
        return False
    h = _nx_graph(g)
    blocks = _nx_blocks(h)
    tree = nx.Graph()
    tree.add_nodes_from(("block", i) for i in range(len(blocks)))
    for v in nx.articulation_points(h):
        tree.add_edges_from((("block", i), ("cut", v)) for i, b in enumerate(blocks) if v in b)
    top = max(len(b) for b in blocks)
    for root in [i for i, b in enumerate(blocks) if len(b) == top]:
        cut_above = dict(nx.bfs_predecessors(tree, ("block", root)))
        if all(
            len(blocks[i]) <= len(blocks[cut_above[cut_above[("block", i)]][1]])
            for i in range(len(blocks))
            if i != root
        ):
            return True
    return False


def dfs_longest_paths_from(g: Graph, v0: int) -> list[tuple[int, ...]]:
    """All maximum-length simple paths starting at v0."""
    adj = _neighbor_lists(g)
    found: list[tuple[int, ...]] = []

    def walk(path: list[int], used: set[int]):
        extended = False
        for w in adj[path[-1]]:
            if w not in used:
                extended = True
                path.append(w)
                used.add(w)
                walk(path, used)
                path.pop()
                used.remove(w)
        if not extended:
            found.append(tuple(path))

    walk([v0], {v0})
    best = max(len(p) for p in found)
    return sorted(p for p in found if len(p) == best)


def per_bit_paths_from(adj, n: int, a: int, targets: list[int]):
    """The retired ``weights._paths_from``: the same tables, with the set
    bits of each mask walked by ``iter_bits``."""
    size = 1 << n
    reach = [0] * size
    reach[1 << a] = 1 << a
    target_mask = sum(1 << b for b in targets)
    paths = [0] * n
    to_b = {b: [0] * n for b in targets}
    for s_mask in range(1 << a, size):
        ends = reach[s_mask]
        if not ends:
            continue
        length = s_mask.bit_count() - 1
        paths[length] |= s_mask
        for b in iter_bits(ends & target_mask):
            to_b[b][length] |= s_mask
        for u in iter_bits(ends):
            for w in iter_bits(adj[u] & ~s_mask):
                reach[s_mask | (1 << w)] |= 1 << w

    def longest_containing(by_length):
        out = [0] * n
        for length, mask in enumerate(by_length):
            for v in iter_bits(mask):
                out[v] = length
        return out

    return longest_containing(paths), [longest_containing(to_b[b]) for b in targets]


def per_bit_max_len_from(adj, start: int, avail: int) -> int:
    """The retired ``weights._max_len_from``: longest simple path length
    starting at ``start`` inside ``avail``, by breadth-first search."""
    cur = {1 << start: 1 << start}
    length = 0
    while True:
        nxt: dict[int, int] = {}
        for s_mask, ends in cur.items():
            for u in iter_bits(ends):
                for w in iter_bits(adj[u] & avail & ~s_mask):
                    key = s_mask | (1 << w)
                    nxt[key] = nxt.get(key, 0) | (1 << w)
        if not nxt:
            return length
        cur = nxt
        length += 1


def greedy_longest_path_from(g: Graph, v0: int) -> tuple[int, ...]:
    """The retired ``weights.longest_path_from``: at each step take the
    smallest next vertex from which the remaining graph still admits a
    completion to full length, asking one breadth-first search per
    candidate."""
    adj = g.adj
    avail = g.full_mask
    remaining = per_bit_max_len_from(adj, v0, avail)
    path = [v0]
    avail &= ~(1 << v0)
    cur = v0
    while remaining:
        for w in iter_bits(adj[cur] & avail):
            if per_bit_max_len_from(adj, w, avail) >= remaining - 1:
                path.append(w)
                avail &= ~(1 << w)
                cur = w
                remaining -= 1
                break
        else:
            raise AssertionError("greedy completion lost feasibility")
    return tuple(path)


def _retired_rotations(g: Graph, path: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The retired ``transforms.simple_transforms``: validate ``path``, test
    its terminal against the path's vertex set rebuilt bit by bit, and
    build each rotated tail with ``tuple(reversed(...))``."""
    simple = path and len(set(path)) == len(path) and all(0 <= v < g.n for v in path)
    if not simple or not all(map(g.has_edge, path, path[1:])):
        raise ValueError(f"not a path: {path}")
    k = len(path) - 1
    terminal = path[k]
    row = g.adj[terminal]
    off = row
    for v in path:
        off &= ~(1 << v)
    if off:
        u = (off & -off).bit_length() - 1
        raise ValueError(f"terminal {terminal} has neighbor {u} off the path; not a longest path")
    return [
        path[: j + 1] + tuple(reversed(path[j + 1 :]))
        for j in range(k - 1)
        if row >> path[j] & 1
    ]


def rotation_closure(g: Graph, path: tuple[int, ...]) -> TransformClosure:
    """The retired ``transforms.transform_closure``, without its budget: the
    same breadth-first closure, with every path it reaches validated and
    rotated by ``_retired_rotations``."""
    start = path[0]
    order = [path]
    seen = {path}
    reps = {path[-1]: path} if path[-1] != start else {}
    for cur in order:
        for nxt in _retired_rotations(g, cur):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                if nxt[-1] != start:
                    reps.setdefault(nxt[-1], nxt)
    terminals = frozenset(reps)
    s_sets = {v: frozenset(u for u in g.neighbors(v) if u not in terminals) for v in reps}
    return TransformClosure(start, path, tuple(order), terminals, reps, s_sets)


def nx_cliques_by_order(g: Graph, s_max: int) -> list[list[tuple[int, ...]]]:
    """Entry s lists every s-clique of g (s <= s_max) as an increasing tuple,
    in lexicographic order, from ``networkx.enumerate_all_cliques``."""
    by_order: list[list[tuple[int, ...]]] = [[()]] + [[] for _ in range(s_max)]
    for clique in takewhile(lambda c: len(c) <= s_max, nx.enumerate_all_cliques(_nx_graph(g))):
        by_order[len(clique)].append(tuple(sorted(clique)))
    return [sorted(group) for group in by_order]


def per_clique_shares(g: Graph, s: int, marked) -> dict[int, Fraction]:
    """The contribution shares of ``cliques.contribution_table``, one
    ``Fraction`` added per marked vertex of each s-clique that networkx
    lists: a clique meeting the marked set in k vertices hands 1/k to each."""
    shares = {v: Fraction(0) for v in marked}
    for clique in nx_cliques_by_order(g, s)[s]:
        inside = shares.keys() & set(clique)
        for v in inside:
            shares[v] += Fraction(1, len(inside))
    return shares


def nx_components_are_cliques(g: Graph) -> bool:
    h = _nx_graph(g)
    return all(_nx_is_clique(h, comp) for comp in nx.connected_components(h))


def per_vertex_thm1_rhs(g: Graph, s: int, w: VertexWeights) -> Fraction:
    """sum_v C(c(v), s)/(c(v)-1), less the same term at the circumference,
    one ``Fraction`` per vertex."""
    if g.n == 0:
        return Fraction(0)
    total = Fraction(0)
    for v in range(g.n):
        total += Fraction(binom(w.c[v], s), w.c[v] - 1)
    return total - Fraction(binom(w.circumference, s), w.circumference - 1)


def per_vertex_thm2_rhs(g: Graph, s: int, w: VertexWeights) -> Fraction:
    """sum_v C(p(v), s-1)/s, one ``Fraction`` per vertex."""
    return sum((Fraction(binom(w.p[v], s - 1), s) for v in range(g.n)), Fraction(0))


def per_vertex_verdict(
    g: Graph, s: int, theorem: int, w: VertexWeights, lhs: int, extremal: bool
) -> tuple[Fraction, Fraction, bool, bool]:
    """(rhs, gap, equality, ok) of one bound: the right side by the paper's
    formula, one ``Fraction`` per vertex, and the violation rule decided on
    the ``Fraction`` gap."""
    rhs = per_vertex_thm1_rhs(g, s, w) if theorem == 1 else per_vertex_thm2_rhs(g, s, w)
    gap = rhs - lhs
    in_scope = not (theorem == 1 and s == 1 and g.n == 1)
    return rhs, gap, gap == 0, not in_scope or (gap >= 0 and (gap == 0) == extremal)


def subset_clique_count(g: Graph, s: int) -> int:
    if s == 0:
        return 1
    total = 0
    for combo in combinations(range(g.n), s):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            total += 1
    return total


def permutation_hamiltonian_cycle(g: Graph) -> bool:
    """Whether g has a spanning cycle, by trying every order of the
    vertices 1..n-1 after vertex 0 (n <= 8; false for n < 3)."""
    if g.n > 8:
        raise ValueError(f"permutation oracle capped at n <= 8, got {g.n}")
    if g.n < 3:
        return False
    return any(
        all(g.has_edge(u, v) for u, v in zip((0,) + order, order + (0,)))
        for order in permutations(range(1, g.n))
    )


def permutation_canonical_mask(g: Graph) -> int:
    """Minimal adjacency bit-string over literally all n! relabelings,
    compared position by position (earlier pairs more significant), returned
    packed in low-bit-first pair order."""
    best = None
    for perm in permutations(range(g.n)):
        bits = tuple(
            1 if g.has_edge(perm[i], perm[j]) else 0
            for j in range(g.n)
            for i in range(j)
        )
        if best is None or bits < best:
            best = bits
    if not best:
        return 0
    return sum(b << k for k, b in enumerate(best))


def tied_labeling_search(n: int, adj) -> tuple[int, list[tuple[int, ...]]]:
    """The package's retired canonical labeling: the lex-minimal pair-order
    mask, found by keeping every partial labeling whose next adjacency
    column ties the least one (of two twins only the first), and those
    labelings, each listing the vertex at every position."""
    states: list[tuple[tuple[int, ...], int]] = [((), 0)]
    mask = 0
    bit = 0
    for pos in range(n):
        best_col = None
        chosen: list[tuple[tuple[int, ...], int]] = []
        for placed, used in states:
            cands: dict[int, list[int]] = {}
            for v in range(n):
                if used >> v & 1:
                    continue
                col = 0
                for w in placed:
                    col = (col << 1) | (adj[v] >> w & 1)
                cands.setdefault(col, []).append(v)
            col = min(cands)
            if best_col is None or col < best_col:
                best_col = col
                chosen = []
            if col == best_col:
                reps: list[int] = []
                for v in cands[col]:
                    bv = 1 << v
                    if any((adj[v] ^ adj[w]) & ~(bv | (1 << w)) == 0 for w in reps):
                        continue
                    reps.append(v)
                    chosen.append((placed + (v,), used | bv))
        states = chosen
        for t in range(pos):
            if best_col >> (pos - 1 - t) & 1:
                mask |= 1 << (bit + t)
        bit += pos
    return mask, [placed for placed, _ in states]


@lru_cache(maxsize=None)
def brute_force_reps(n: int) -> tuple[int, ...]:
    """The package's retired enumerator: canonicalize all 2^(n-1) one-vertex
    extensions of every (n-1)-vertex class and deduplicate the masks."""
    if n == 0:
        return (0,)
    prev = brute_force_reps(n - 1)
    base = (n - 1) * (n - 2) // 2
    reps = set()
    for old in prev:
        for nb in range(1 << (n - 1)):
            cand = old | (nb << base)
            reps.add(canonical_mask(from_pair_mask(n, cand)))
    return tuple(sorted(reps))


def decode_graph6_bitstring(line: str) -> tuple[int, set[tuple[int, int]]]:
    """Alternate graph6 decoder working on an explicit bit string; reads
    the short size header and the 4-byte long form."""
    data = line.strip()
    if data[0] == "~":
        n = int("".join(format(ord(ch) - 63, "06b") for ch in data[1:4]), 2)
        data = data[3:]
    else:
        n = ord(data[0]) - 63
    bit_stream = "".join(format(ord(ch) - 63, "06b") for ch in data[1:])
    edges = set()
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bit_stream[idx] == "1":
                edges.add((i, j))
            idx += 1
    return n, edges


def per_bit_parse_graph6(text: str) -> Graph:
    """The retired graph6 decoder: every payload byte read six bits at a
    time, every vertex pair set bit by bit. Same validation and the same
    ``GraphParseError`` messages as ``parse_graph6``, and the same
    whitespace: the six ASCII characters that ``bytes.strip()`` removes."""
    line = text.strip(" \t\n\r\x0b\x0c")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise GraphParseError("empty graph6 input")
    for off, ch in enumerate(line):
        if not 63 <= ord(ch) <= 126:
            raise GraphParseError(f"out-of-range graph6 byte at offset {off}")
    data = line.encode("ascii")
    if data[0] == 126:
        if len(data) < 4:
            raise GraphParseError("truncated long-form size header at offset 1")
        if data[1] == 126:
            raise GraphParseError("8-byte size header at offset 1 exceeds supported range")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body_start = 4
    else:
        n = data[0] - 63
        body_start = 1
    if n > MAX_VERTICES:
        raise GraphParseError(f"graph6 header declares n={n}, limit is {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(data) - body_start
    if have < need:
        raise GraphParseError(
            f"truncated graph6 payload at offset {len(data)} (need {need} body bytes, got {have})"
        )
    if have > need:
        raise GraphParseError(f"trailing garbage at offset {body_start + need}")
    mask = 0
    bit = 0
    for k in range(need):
        chunk = data[body_start + k] - 63
        for t in range(6):
            if bit >= nbits:
                if chunk >> (5 - t) & 1:
                    raise GraphParseError(f"nonzero padding bits at offset {body_start + k}")
                continue
            if chunk >> (5 - t) & 1:
                mask |= 1 << bit
            bit += 1
    rows = [0] * n
    bit = 0
    for j in range(n):
        for i in range(j):
            if mask >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return Graph(n, tuple(rows))


def petersen() -> Graph:
    from cliquebounds import from_edges

    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def bowtie() -> Graph:
    from cliquebounds import from_edges

    return from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])

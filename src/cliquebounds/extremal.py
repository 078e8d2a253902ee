"""Structural recognizers for the equality classes of the localized bounds:
block decomposition, parent-dominated block graphs, clique components,
Hamiltonicity."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, is_connected, iter_bits
from .weights import VertexWeights


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components (bridges as 2-sets, isolated vertices as
    singletons), cut vertices, and the bipartite block-cut tree given as
    (block index, cut vertex) incidences."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    tree_edges: tuple[tuple[int, int], ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Single-pass depth-first decomposition with an edge stack."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
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
        work = [(root, -1, g.neighbors(root))]
        root_children = 0
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
                    if u == root:
                        root_children += 1
                    work.append((w, u, g.neighbors(w)))
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
                    if pu != root:
                        cuts.add(pu)
        if root_children > 1:
            cuts.add(root)

    for v in range(n):
        if disc[v] == -1:
            if g.degree(v) == 0:
                blocks.append(frozenset({v}))
            else:
                dfs(v)

    tree = tuple(
        (bi, v) for bi, blk in enumerate(blocks) for v in sorted(blk) if v in cuts
    )
    return BlockDecomposition(tuple(blocks), frozenset(cuts), tree)


def _block_is_clique(g: Graph, block: frozenset[int]) -> bool:
    mask = sum(1 << v for v in block)
    return all((g.adj[v] | (1 << v)) & mask == mask for v in block)


def _block_graph_decomposition(g: Graph) -> BlockDecomposition | None:
    """The block decomposition when g is a block graph, else None."""
    if not is_connected(g):
        return None
    decomp = block_decomposition(g)
    return decomp if all(_block_is_clique(g, b) for b in decomp.blocks) else None


def is_block_graph(g: Graph) -> bool:
    """Connected and every block induces a complete graph."""
    return _block_graph_decomposition(g) is not None


def is_parent_dominated(g: Graph) -> bool:
    """Block graph whose block-cut tree, rooted at some maximum-order block,
    has every block's order at most its parent block's order. Any rooting at
    a maximum-order block may witness it; the empty graph and single vertices
    pass vacuously."""
    if g.n <= 1:
        return True
    decomp = _block_graph_decomposition(g)
    if decomp is None:
        return False
    orders = [len(b) for b in decomp.blocks]
    blocks_at_cut: dict[int, list[int]] = {}
    for bi, v in decomp.tree_edges:
        blocks_at_cut.setdefault(v, []).append(bi)
    max_order = max(orders)
    for root in [i for i, o in enumerate(orders) if o == max_order]:
        ok = True
        seen_blocks = {root}
        frontier = [root]
        while frontier and ok:
            nxt = []
            for bi in frontier:
                for v in decomp.blocks[bi]:
                    if v not in blocks_at_cut:
                        continue
                    for child in blocks_at_cut[v]:
                        if child in seen_blocks:
                            continue
                        if orders[child] > orders[bi]:
                            ok = False
                        seen_blocks.add(child)
                        nxt.append(child)
            frontier = nxt
        if ok:
            return True
    return False


def components_are_cliques(g: Graph) -> bool:
    from .graphs import components

    for comp in components(g):
        for v in iter_bits(comp):
            if (g.adj[v] | (1 << v)) & comp != comp:
                return False
    return True


def is_hamiltonian(g: Graph, w: VertexWeights) -> bool:
    """True iff the graph has a spanning cycle (so always false for n < 3),
    read from its weights ``w``."""
    return g.n >= 3 and w.circumference == g.n


def heavy_cycle_set(g: Graph, s: int, w: VertexWeights) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if w.c[v] >= s)


def heavy_path_set(g: Graph, s: int, w: VertexWeights) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if w.p[v] >= s - 1)


def extremal_predicate(g: Graph, s: int, theorem: int, w: VertexWeights) -> bool:
    """Equality-class membership for the two localized bounds.

    Bound 1 (cycle form), s = 1: every vertex's cycle weight equals n, which
    is Hamiltonicity for n >= 3 and degenerately true at n <= 2 under the
    c = 2 convention. Bound 1, s >= 2: the subgraph induced on the heavy set
    {c(v) >= s} is a parent-dominated block graph. Bound 2 (path form):
    always true at s = 1; for s >= 2 the components induced on {p(v) >= s-1}
    must all be cliques.
    """
    if s < 1:
        raise ValueError(f"clique order must be >= 1, got {s}")
    if theorem == 1:
        if s == 1:
            return all(cv == g.n for cv in w.c)
        return is_parent_dominated(g.induced(heavy_cycle_set(g, s, w)))
    if theorem == 2:
        if s == 1:
            return True
        return components_are_cliques(g.induced(heavy_path_set(g, s, w)))
    raise ValueError(f"theorem must be 1 or 2, got {theorem}")

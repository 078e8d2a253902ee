"""Structural recognizers for the equality classes of the localized bounds:
block graphs, parent-dominated block graphs, clique components,
Hamiltonicity. They read the block decomposition from ``graphs``; the
theorem-1 predicate reads the one on ``VertexWeights`` when the heavy set is
every vertex, and decomposes the heavy vertex mask of g otherwise."""

from __future__ import annotations

from .graphs import BlockDecomposition, Graph, block_decomposition, iter_bits
from .weights import VertexWeights


def _is_block_graph(d: BlockDecomposition) -> bool:
    return d.components <= 1 and all(d.clique)


def is_block_graph(g: Graph) -> bool:
    """Connected and every block induces a complete graph."""
    return _is_block_graph(block_decomposition(g))


def is_parent_dominated(g: Graph) -> bool:
    """Block graph whose block-cut tree, rooted at some maximum-order block,
    has every block's order at most its parent block's order. Any rooting at
    a maximum-order block may witness it; the empty graph and single vertices
    pass vacuously."""
    return g.n <= 1 or _parent_dominated(block_decomposition(g))


def _parent_dominated(d: BlockDecomposition) -> bool:
    """``is_parent_dominated`` read from a decomposition; no blocks pass."""
    if not _is_block_graph(d):
        return False
    orders = [len(b) for b in d.blocks]
    top = max(orders, default=0)
    for root in [i for i, o in enumerate(orders) if o == top]:
        seen = {root}
        todo = [root]
        while todo:
            bi = todo.pop()
            children = {child for v in d.blocks[bi] for child in d.blocks_at[v]} - seen
            if any(orders[child] > orders[bi] for child in children):
                break
            seen |= children
            todo.extend(children)
        else:
            return True
    return not orders


def _components_are_cliques(g: Graph, mask: int) -> bool:
    """True iff every component of the subgraph induced on the vertex mask
    ``mask`` is a clique: the two ends of every edge inside ``mask`` have the
    same closed neighbourhood in it, so each closed neighbourhood is the
    whole component."""
    adj = g.adj
    for v in iter_bits(mask):
        closed = (adj[v] | (1 << v)) & mask
        above = mask >> (v + 1) << (v + 1)
        for u in iter_bits(adj[v] & above):
            if (adj[u] | (1 << u)) & mask != closed:
                return False
    return True


def components_are_cliques(g: Graph) -> bool:
    """True iff every connected component of g is a clique."""
    return _components_are_cliques(g, g.full_mask)


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
    must all be cliques. Both are decided on the heavy vertex mask without
    building the subgraph.
    """
    if s < 1:
        raise ValueError(f"clique order must be >= 1, got {s}")
    if theorem == 1:
        if s == 1:
            return all(cv == g.n for cv in w.c)
        heavy = sum(1 << v for v, cv in enumerate(w.c) if cv >= s)
        if heavy == g.full_mask:
            return _parent_dominated(w.decomposition)
        return heavy & (heavy - 1) == 0 or _parent_dominated(block_decomposition(g, heavy))
    if theorem == 2:
        if s == 1:
            return True
        heavy = sum(1 << v for v, pv in enumerate(w.p) if pv >= s - 1)
        return _components_are_cliques(g, heavy)
    raise ValueError(f"theorem must be 1 or 2, got {theorem}")

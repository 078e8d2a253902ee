"""The equality classes of the localized bounds: the heavy set of each bound,
and the recognizers of its equality class, parent-dominated block graphs and
clique components. The parent-dominance rule reads a graph's ``Blocks``:
the theorem-1 predicate reads the weights' ``blocks`` when the heavy set is
every vertex and runs the DFS of ``graphs`` on the heavy vertex mask of g
otherwise; ``is_parent_dominated`` reads ``block_decomposition(g)``, the
same ``Blocks``."""

from __future__ import annotations

from .graphs import (
    Graph,
    _block_masks,
    block_decomposition,
    iter_bits,
)
from .weights import VertexWeights


def is_parent_dominated(g: Graph) -> bool:
    """Block graph (connected, every block a clique) whose block-cut tree,
    rooted at some maximum-order block, has every block's order at most its
    parent block's order. Any rooting at a maximum-order block may witness
    it; the empty graph and single vertices pass vacuously."""
    return g.n <= 1 or _parent_dominated(*block_decomposition(g))


def _parent_dominated(masks: tuple[int, ...], cuts: int, clique: tuple[bool, ...]) -> bool:
    """``is_parent_dominated`` read from block vertex ``masks``, the
    cut-vertex mask and the blocks' clique flags; no blocks pass."""
    edges = sum((m & cuts).bit_count() for m in masks)
    if len(masks) + cuts.bit_count() - edges > 1 or not all(clique):
        return False
    orders = [m.bit_count() for m in masks]
    top = max(orders, default=0)
    for root in [i for i, o in enumerate(orders) if o == top]:
        seen = {root}
        todo = [root]
        while todo:
            bi = todo.pop()
            children = {child for child, m in enumerate(masks) if m & masks[bi]} - seen
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


def heavy_mask(w: VertexWeights, s: int, theorem: int) -> int:
    """The heavy set of one bound at clique order s as a vertex mask:
    {v : c(v) >= s} for the cycle form (theorem 1), {v : p(v) >= s - 1} for
    the path form (theorem 2). The cycle form never reads p."""
    if theorem == 1:
        return sum(1 << v for v, cv in enumerate(w.c) if cv >= s)
    return sum(1 << v for v, pv in enumerate(w.p) if pv >= s - 1)


def extremal_predicate(g: Graph, s: int, theorem: int, w: VertexWeights) -> bool:
    """Equality-class membership for the two localized bounds.

    Bound 1 (cycle form), s = 1: every vertex's cycle weight equals n, which
    is Hamiltonicity for n >= 3 and degenerately true at n <= 2 under the
    c = 2 convention. Bound 1, s >= 2: the subgraph induced on the heavy set
    (``heavy_mask``) is a parent-dominated block graph. Bound 2 (path form):
    always true at s = 1; for s >= 2 the components induced on the heavy set
    must all be cliques. Both are decided on the heavy vertex mask without
    building the subgraph.
    """
    if s < 1:
        raise ValueError(f"clique order must be >= 1, got {s}")
    if theorem not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {theorem}")
    if s == 1:
        return theorem == 2 or all(cv == g.n for cv in w.c)
    heavy = heavy_mask(w, s, theorem)
    if theorem == 2:
        return _components_are_cliques(g, heavy)
    if heavy == g.full_mask:
        return _parent_dominated(*w.blocks)
    if heavy & (heavy - 1) == 0:
        return True
    return _parent_dominated(*_block_masks(g, heavy))

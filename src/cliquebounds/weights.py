"""Per-vertex longest-path and longest-cycle weights, exactly.

p(v) is the number of edges on the longest simple path containing v.
c(v) is the length of the longest cycle containing v, or 2 when v lies on
no cycle. Both come from subset dynamic programming over (vertex set,
endpoint) states, run once per biconnected block that is not a clique; a
clique block's tables are closed-form. The per-block tables are composed
over the block-cut tree (Hopcroft & Tarjan 1973), at a cost of about
(cut vertices in B + 2) * 2^|B| per non-clique block B. The block
decomposition comes from ``graphs`` and is returned on ``VertexWeights``,
so its readers (the extremal predicate) need not build it again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

from .graphs import BlockDecomposition, Graph, ResourceLimitError, block_decomposition, iter_bits

DEFAULT_DP_LIMIT = 18


@dataclass(frozen=True)
class VertexWeights:
    """p and c arrays plus the circumference (max c; 0 on the empty graph),
    and the block decomposition of the graph they were composed over."""

    p: tuple[int, ...]
    c: tuple[int, ...]
    circumference: int
    decomposition: BlockDecomposition


# Peak bytes per subset of the DP: two tables of 2^|B| list slots are live at
# once, and each filled slot holds its own int object (8 + 32 bytes). Measured
# with tracemalloc on the complete graph at |B| = 14: 39.5 bytes per slot.
_DP_BYTES_PER_SLOT = 40


def _guard(size: int, dp_limit: int, what: str):
    if size > dp_limit:
        raise ResourceLimitError(
            f"subset DP guarded at {what} <= {dp_limit} (got {size}); "
            "raise dp_limit explicitly"
        )


def _memory_guard(size: int):
    """Refuse a subset DP over ``size`` vertices whose two live tables would
    not fit in physical memory, before allocating either."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return
    need = 2 * (1 << size) * _DP_BYTES_PER_SLOT
    if need > have:
        raise ResourceLimitError(
            f"subset DP over a block of {size} vertices needs about {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


class _BlockTables(NamedTuple):
    """Per-vertex tables of one block, indexed by the block's local labels
    (its vertices in sorted order)."""

    local: dict[int, int]
    p: list[int]
    c: list[int]
    # cut vertex a -> the longest path in the block from a that contains v
    start: dict[int, list[int]]
    # (a, b), both orders -> the longest a-b path in the block containing v
    pair: dict[tuple[int, int], list[int]]


def compute_weights(g: Graph, dp_limit: int = DEFAULT_DP_LIMIT) -> VertexWeights:
    """Exact p(v) and c(v) for every vertex.

    Per block B of the block decomposition, relabeled to 0..|B|-1, a clique
    block gets its tables in closed form (every path table |B| - 1, c = |B|
    from three vertices on) and any other block runs the subset DP; the
    per-block tables are composed over the block-cut tree. Every cycle lies
    inside one block, so c(v) is the best cycle through v in a block
    containing v. A simple path meets the blocks along a path of the
    block-cut tree, so p(v) is the best, over the blocks B containing v, of
    a path inside B, or of a path in B from a cut vertex a (or between cut
    vertices a and b) extended by the longest arm that leaves B through a
    (and through b). A DP block costs about (cut vertices in B + 2) * 2^|B|
    steps, so the guard is on the largest non-clique block, and on the
    memory its tables need.
    """
    return _compose(g, block_decomposition(g), dp_limit)


def _compose(g: Graph, decomp: BlockDecomposition, dp_limit: int) -> VertexWeights:
    """The weights of g from its block decomposition ``decomp``."""
    largest = max((len(b) for b, cl in zip(decomp.blocks, decomp.clique) if not cl), default=0)
    _guard(largest, dp_limit, "non-clique block order")
    _memory_guard(largest)
    cuts_of: list[list[int]] = [[] for _ in decomp.blocks]
    for bi, a in decomp.tree_edges:
        cuts_of[bi].append(a)

    tables: list[_BlockTables] = []
    for bi, blk in enumerate(decomp.blocks):
        local = {v: i for i, v in enumerate(sorted(blk))}
        start: dict[int, list[int]] = {}
        pair: dict[tuple[int, int], list[int]] = {}
        if decomp.clique[bi]:
            # a Hamiltonian path starts at, or joins, any vertices of a clique
            size = len(local)
            p_in, c_in = [size - 1] * size, [size if size >= 3 else 2] * size
            for a in cuts_of[bi]:
                start[a] = p_in
                pair.update(((a, b), p_in) for b in cuts_of[bi] if b != a)
        else:
            adj = [sum(1 << local[u] for u in iter_bits(g.adj[v]) if u in local) for v in local]
            p_in, c_in = _path_and_cycle_tables(adj, len(local))
            for k, a in enumerate(cuts_of[bi]):
                later = cuts_of[bi][k + 1:]
                start[a], rows = _paths_from(adj, len(local), local[a], [local[b] for b in later])
                for b, row in zip(later, rows):
                    pair[(a, b)] = pair[(b, a)] = row
        tables.append(_BlockTables(local, p_in, c_in, start, pair))

    def down(a: int, bi: int) -> int:
        """Longest path from cut vertex a into block bi, continuing through
        bi's other cut vertices away from a."""
        t = tables[bi]
        i = t.local[a]
        through = [t.pair[(a, b)][i] + arm[(b, bi)] for b in cuts_of[bi] if b != a]
        return max([t.start[a][i]] + through)

    # arm[(a, bi)]: the longest path that starts at cut vertex a and leaves
    # block bi through a. It needs only arms farther from bi in the
    # block-cut tree, so an explicit stack memoizes it without recursion.
    arm: dict[tuple[int, int], int] = {}
    for bi, a in decomp.tree_edges:
        stack = [(a, bi)]
        while stack:
            key = stack[-1]
            if key in arm:
                stack.pop()
                continue
            at, away = key
            others = [bj for bj in decomp.blocks_at[at] if bj != away]
            missing = [
                (b, bj) for bj in others for b in cuts_of[bj] if b != at and (b, bj) not in arm
            ]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            arm[key] = max(down(at, bj) for bj in others)

    p = [0] * g.n
    c = [2] * g.n
    for bi, t in enumerate(tables):
        for v, i in t.local.items():
            best = max(
                [t.p[i]]
                + [arm[(a, bi)] + row[i] for a, row in t.start.items()]
                + [arm[(a, bi)] + row[i] + arm[(b, bi)] for (a, b), row in t.pair.items()]
            )
            p[v] = max(p[v], best)
            c[v] = max(c[v], t.c[i])
    return VertexWeights(tuple(p), tuple(c), max(c, default=0), decomp)


def _path_and_cycle_tables(adj, n: int) -> tuple[list[int], list[int]]:
    """p and c of a graph on vertices 0..n-1, by subset DP.

    Two tables over subsets S: endpoints of simple paths spanning exactly S
    (any start) drive p; endpoints of paths spanning S that start at min(S)
    detect cycles, closing S into a cycle when some endpoint is adjacent to
    min(S) and |S| >= 3.
    """
    size = 1 << n

    endp = [0] * size
    for v in range(n):
        endp[1 << v] = 1 << v
    paths = [0] * n
    for s_mask in range(1, size):
        ends = endp[s_mask]
        if not ends:
            continue
        paths[s_mask.bit_count() - 1] |= s_mask
        for u in iter_bits(ends):
            ext = adj[u] & ~s_mask
            for w in iter_bits(ext):
                endp[s_mask | (1 << w)] |= 1 << w

    rooted = [0] * size
    for v in range(n):
        rooted[1 << v] = 1 << v
    cycles = [0] * (n + 1)
    for s_mask in range(1, size):
        ends = rooted[s_mask]
        if not ends:
            continue
        low = s_mask & -s_mask
        above = ~((low << 1) - 1)
        if s_mask.bit_count() >= 3 and ends & adj[low.bit_length() - 1]:
            cycles[s_mask.bit_count()] |= s_mask
        for u in iter_bits(ends):
            ext = adj[u] & ~s_mask & above
            for w in iter_bits(ext):
                rooted[s_mask | (1 << w)] |= 1 << w
    return _longest_containing(paths, n, 0), _longest_containing(cycles, n, 2)


def _paths_from(adj, n: int, a: int, targets: list[int]) -> tuple[list[int], list[list[int]]]:
    """Over the subsets S containing a, with the endpoints of paths that
    start at a and span exactly S: the longest path from a that contains v,
    and for each b in ``targets`` the longest a-b path that contains v.

    In a block every vertex lies on some a-b path (the block is 2-connected
    or a single edge), so no a-b row keeps its placeholder 0.
    """
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
    return (
        _longest_containing(paths, n, 0),
        [_longest_containing(to_b[b], n, 0) for b in targets],
    )


def _longest_containing(by_length: list[int], n: int, floor: int) -> list[int]:
    """Per vertex, the largest L whose mask by_length[L] holds it, or
    ``floor`` when no mask does. by_length[L] is the union of the vertex
    sets of the paths with L edges (of the cycles with L vertices)."""
    out = [floor] * n
    for length, mask in enumerate(by_length):
        for v in iter_bits(mask):
            out[v] = length
    return out


def _max_len_from(adj, start: int, avail: int) -> int:
    """Longest simple path length starting at ``start`` inside ``avail``."""
    cur = {1 << start: 1 << start}
    length = 0
    while True:
        nxt: dict[int, int] = {}
        for s_mask, ends in cur.items():
            for u in iter_bits(ends):
                ext = adj[u] & avail & ~s_mask
                for w in iter_bits(ext):
                    key = s_mask | (1 << w)
                    nxt[key] = nxt.get(key, 0) | (1 << w)
        if not nxt:
            return length
        cur = nxt
        length += 1


def longest_path_from(g: Graph, v0: int, dp_limit: int = DEFAULT_DP_LIMIT) -> tuple[int, ...]:
    """A maximum-length simple path starting at v0, lexicographically least.

    Built greedily: at each step take the smallest next vertex from which the
    remaining graph still admits a completion to full length.
    """
    # Guarded on n, not per block: the path states multiply across blocks
    # (a chain of 21 K4 blocks has about 4^21 vertex sets of paths from v0).
    _guard(g.n, dp_limit, "n")
    if not 0 <= v0 < g.n:
        raise ValueError(f"start vertex {v0} not in graph")
    adj = g.adj
    avail = g.full_mask
    target = _max_len_from(adj, v0, avail)
    path = [v0]
    avail &= ~(1 << v0)
    remaining = target
    cur = v0
    while remaining:
        for w in iter_bits(adj[cur] & avail):
            if _max_len_from(adj, w, avail) >= remaining - 1:
                path.append(w)
                avail &= ~(1 << w)
                cur = w
                remaining -= 1
                break
        else:
            raise AssertionError("greedy completion lost feasibility")
    return tuple(path)


def compute_weights_block_graph(g: Graph) -> VertexWeights:
    """``compute_weights`` for graphs whose every block is a clique (unions
    of block graphs), where no block runs the subset DP, so any n up to the
    graph type's limit is cheap. Raises ValueError on any other graph."""
    decomp = block_decomposition(g)
    if not all(decomp.clique):
        raise ValueError("input is not a block graph: some block is not a clique")
    return _compose(g, decomp, DEFAULT_DP_LIMIT)

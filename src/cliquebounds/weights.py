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

``longest_path_from`` gives the lexicographically least longest path from
a start vertex, which the rotation closure of ``transforms`` starts from:
one branch-and-bound depth-first search that keeps the best path so far,
memoizes the (vertex set, end) states that cannot beat it, and skips an end
that cannot reach enough unused vertices to beat it. It stops with
ResourceLimitError after a fixed number of candidate tries.

The kernels walk vertex sets as bitmasks one low bit at a time
(``b = m & -m; m ^= b``) and index neighbour rows by that bit, so their
inner loops make no generator call and no ``bit_length`` call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

from .graphs import BlockDecomposition, Graph, ResourceLimitError, block_decomposition, iter_bits

DEFAULT_DP_LIMIT = 18
# Candidate extensions one longest-path search may try before it gives up.
# The largest search in the tests tries about 5,000; a chain of 12 K5
# blocks with a pendant vertex on each (n = 61) tries about 1.05 million,
# in about 12 s on a 2-CPU machine.
PATH_SEARCH_BUDGET = 2_000_000


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


def _guard(search: str, what: str, size: int, dp_limit: int):
    if size > dp_limit:
        raise ResourceLimitError(
            f"{search} guarded at {what} <= {dp_limit} (got {size}); "
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
    _guard("subset DP", "non-clique block order", largest, dp_limit)
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

    Two tables over subsets S, filled in one sweep: endpoints of simple
    paths spanning exactly S (any start) drive p; endpoints of paths
    spanning S that start at min(S) detect cycles, closing S into a cycle
    when some endpoint is adjacent to min(S) and |S| >= 3. Every rooted
    state is also an any-start state, so one skip test serves both.
    """
    size = 1 << n
    nbr = {1 << v: adj[v] for v in range(n)}
    endp = [0] * size
    rooted = [0] * size
    for bit in nbr:
        endp[bit] = rooted[bit] = bit
    paths = [0] * n
    cycles = [0] * (n + 1)
    for s_mask in range(1, size):
        ends = endp[s_mask]
        if not ends:
            continue
        count = s_mask.bit_count()
        paths[count - 1] |= s_mask
        out = ~s_mask
        while ends:
            b = ends & -ends
            ends ^= b
            ext = nbr[b] & out
            while ext:
                w = ext & -ext
                ext ^= w
                endp[s_mask | w] |= w
        ends = rooted[s_mask]
        if not ends:
            continue
        low = s_mask & -s_mask
        if count >= 3 and ends & nbr[low]:
            cycles[count] |= s_mask
        out &= -(low << 1)  # a rooted path grows only above its root min(S)
        while ends:
            b = ends & -ends
            ends ^= b
            ext = nbr[b] & out
            while ext:
                w = ext & -ext
                ext ^= w
                rooted[s_mask | w] |= w
    return _longest_containing(paths, n, 0), _longest_containing(cycles, n, 2)


def _paths_from(adj, n: int, a: int, targets: list[int]) -> tuple[list[int], list[list[int]]]:
    """Over the subsets S containing a, with the endpoints of paths that
    start at a and span exactly S: the longest path from a that contains v,
    and for each b in ``targets`` the longest a-b path that contains v.

    In a block every vertex lies on some a-b path (the block is 2-connected
    or a single edge), so no a-b row keeps its placeholder 0.
    """
    size = 1 << n
    nbr = {1 << v: adj[v] for v in range(n)}
    reach = [0] * size
    reach[1 << a] = 1 << a
    target_bits = [1 << b for b in targets]
    target_mask = sum(target_bits)
    paths = [0] * n
    to_b = {bit: [0] * n for bit in target_bits}
    for s_mask in range(1 << a, size):
        ends = reach[s_mask]
        if not ends:
            continue
        length = s_mask.bit_count() - 1
        paths[length] |= s_mask
        hit = ends & target_mask
        while hit:
            b = hit & -hit
            hit ^= b
            to_b[b][length] |= s_mask
        out = ~s_mask
        while ends:
            b = ends & -ends
            ends ^= b
            ext = nbr[b] & out
            while ext:
                w = ext & -ext
                ext ^= w
                reach[s_mask | w] |= w
    return (
        _longest_containing(paths, n, 0),
        [_longest_containing(to_b[bit], n, 0) for bit in target_bits],
    )


def _longest_containing(by_length: list[int], n: int, floor: int) -> list[int]:
    """Per vertex, the largest L whose mask by_length[L] holds it, or
    ``floor`` when no mask does. by_length[L] is the union of the vertex
    sets of the paths with L edges (of the cycles with L vertices)."""
    out = [floor] * n
    for length, mask in enumerate(by_length):
        while mask:
            b = mask & -mask
            mask ^= b
            out[b.bit_length() - 1] = length
    return out


def _reach(nbr: dict[int, int], bit: int, free: int) -> int:
    """The vertices of ``free`` reachable from the vertex ``bit`` (outside
    ``free``) through ``free``, as a mask; ``nbr`` maps vertex bits to rows."""
    seen = frontier = bit
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        new = nbr[b] & free & ~seen
        seen |= new
        frontier |= new
    return seen ^ bit


def longest_path_from(g: Graph, v0: int, dp_limit: int = DEFAULT_DP_LIMIT) -> tuple[int, ...]:
    """A maximum-length simple path starting at v0, lexicographically least.

    One branch-and-bound DFS extends the path in increasing vertex order and
    keeps the first path longer than the best so far, so the first path of
    maximum length, the lexicographically least, is the one kept. A
    (vertex set, end) state whose subtree is exhausted holds no path longer
    than the best, which only grows, so it is memoized as dead. A vertex
    from which fewer unused vertices are reachable than the best path needs
    is skipped without a search, and the search stops once the best path
    spans the component of v0. A search that tries more than
    ``PATH_SEARCH_BUDGET`` candidates raises ResourceLimitError.
    """
    # Guarded on n: the search is exponential in the worst case.
    _guard("longest-path search", "n", g.n, dp_limit)
    if not 0 <= v0 < g.n:
        raise ValueError(f"start vertex {v0} not in graph")
    full = g.full_mask
    nbr = {1 << v: row for v, row in enumerate(g.adj)}
    s_mask = 1 << v0
    most = _reach(nbr, s_mask, full ^ s_mask).bit_count() + 1
    path = [s_mask]
    best = path[:]
    # dead[S]: the ends e for which no path from v0 spanning S and ending
    # at e extends past the best path
    dead: dict[int, int] = {}
    todo = [nbr[s_mask] & ~s_mask]  # per depth, the next vertices not yet tried
    tries = 0
    while todo and len(best) < most:
        cand = todo[-1]
        if not cand:
            end = path.pop()
            todo.pop()
            dead[s_mask] = dead.get(s_mask, 0) | end
            s_mask ^= end
            continue
        # every candidate counts, pruned or not: its reach test dominates
        tries += 1
        if tries > PATH_SEARCH_BUDGET:
            raise ResourceLimitError(
                f"longest-path search from vertex {v0} gave up after "
                f"{PATH_SEARCH_BUDGET} candidate tries"
            )
        w = cand & -cand
        todo[-1] = cand ^ w
        grown = s_mask | w
        if dead.get(grown, 0) & w:
            continue
        # too few vertices reachable from w off the path to beat the best
        if len(path) + _reach(nbr, w, full & ~grown).bit_count() < len(best):
            continue
        s_mask = grown
        path.append(w)
        todo.append(nbr[w] & ~grown)
        if len(path) > len(best):
            best = path[:]
    return tuple(b.bit_length() - 1 for b in best)


def compute_weights_block_graph(g: Graph) -> VertexWeights:
    """``compute_weights`` for graphs whose every block is a clique (unions
    of block graphs), where no block runs the subset DP, so any n up to the
    graph type's limit is cheap. Raises ValueError on any other graph."""
    decomp = block_decomposition(g)
    if not all(decomp.clique):
        raise ValueError("input is not a block graph: some block is not a clique")
    return _compose(g, decomp, DEFAULT_DP_LIMIT)

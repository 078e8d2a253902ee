"""Per-vertex longest-path and longest-cycle weights, exactly.

p(v) is the number of edges on the longest simple path containing v.
c(v) is the length of the longest cycle containing v, or 2 when v lies on
no cycle. ``compute_weights`` works per biconnected block, in two passes.
The c pass runs at once. A clique block B is one number, its order. A
non-clique block with a Hamiltonian cycle, which one memoized depth-first
search certifies within 2^(|B|-2) + |B|^3 candidate tries, has every
vertex on a cycle of |B| vertices. Any other block, or one the search
gives up on, runs subset dynamic programming over (vertex set, endpoint)
states of the paths that start at the least vertex of the set. The p pass
runs the first time p is read, since only the path form reads it. Every
vertex of a Hamiltonian block lies on a path of |B| - 1 edges from each of
its vertices. Any other non-clique block runs one path DP from all of its
vertices, which gives p in the block and, since a path that ends at a cut
vertex is read backwards as a path from it, the paths from each cut
vertex. The paths between two cut vertices run one DP from each cut
vertex but the last, and the per-block tables are composed over the
block-cut tree (Hopcroft & Tarjan 1973). A non-clique block B without a
Hamiltonian cycle costs about (max(cut vertices in B, 1) + 1) * 2^|B|
over both passes. The block decomposition comes from ``graphs`` and is
returned on ``VertexWeights``, so its readers (the extremal predicate) need
not build it again.

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
from functools import partial
from typing import NamedTuple

from .graphs import BlockDecomposition, Graph, ResourceLimitError, block_decomposition, reachable

DEFAULT_DP_LIMIT = 18
# Candidate extensions one longest-path search may try before it gives up.
# The largest search in the tests tries about 5,000; a chain of 12 K5
# blocks with a pendant vertex on each (n = 61) tries about 1.05 million,
# in about 12 s on a 2-CPU machine.
PATH_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class VertexWeights:
    """p and c arrays plus the circumference (max c; 0 on the empty graph),
    and the block decomposition of the graph they were composed over.

    ``compute_weights`` fills c, the circumference and the decomposition,
    and leaves p to a pending pass that runs the first time p is read and
    is then dropped. Constructed directly, all four fields are given."""

    p: tuple[int, ...]
    c: tuple[int, ...]
    circumference: int
    decomposition: BlockDecomposition

    def __getattr__(self, name: str):
        # reached only when ordinary lookup fails, so p is still pending
        pending = self.__dict__.get("_p_pass")
        if name != "p" or pending is None:
            raise AttributeError(name)
        p = pending()
        object.__setattr__(self, "p", p)
        del self.__dict__["_p_pass"]
        return p

    @classmethod
    def _with_pending_p(cls, p_pass, c, circumference, decomposition) -> VertexWeights:
        w = cls.__new__(cls)
        vars(w).update(c=c, circumference=circumference, decomposition=decomposition,
                       _p_pass=p_pass)
        return w


# Peak bytes per subset of the DP: each kernel holds one table of 2^|B| list
# slots, the two passes run one at a time, and each filled slot holds its own
# int object (8 + 32 bytes). Measured with tracemalloc on the complete graph
# at |B| = 14: 39.5 bytes per slot.
_DP_BYTES_PER_SLOT = 40


def _guard(search: str, what: str, size: int, dp_limit: int):
    if size > dp_limit:
        raise ResourceLimitError(
            f"{search} guarded at {what} <= {dp_limit} (got {size}); "
            "raise dp_limit explicitly"
        )


def _memory_guard(size: int):
    """Refuse a subset DP over ``size`` vertices whose table would not fit
    in physical memory, before allocating it."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return
    need = (1 << size) * _DP_BYTES_PER_SLOT
    if need > have:
        raise ResourceLimitError(
            f"subset DP over a block of {size} vertices needs about {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


class _Block(NamedTuple):
    """A non-clique block relabeled to 0..|B|-1 in sorted vertex order: the
    c pass builds it, and the p pass reads it."""

    order: list[int]
    adj: list[int]
    hamiltonian: bool


class _BlockTables(NamedTuple):
    """Per-vertex path tables of one non-clique block, indexed by its local
    labels."""

    local: dict[int, int]
    p: list[int]
    # cut vertex a -> the longest path in the block from a that contains v
    start: dict[int, list[int]]
    # (a, b), both orders -> the longest a-b path in the block containing v
    pair: dict[tuple[int, int], list[int]]


def compute_weights(g: Graph, dp_limit: int = DEFAULT_DP_LIMIT) -> VertexWeights:
    """Exact p(v) and c(v) for every vertex, c now and p when first read.

    Every cycle lies inside one block, so c(v) is the best cycle through v
    in a block containing v: the order of a clique block, the order of a
    non-clique block in which a search finds a Hamiltonian cycle, and
    otherwise the block's cycle table from the rooted subset DP.
    A simple path meets the blocks along a path of the block-cut tree, so
    p(v) is the best, over the blocks B containing v, of a path inside B,
    or of a path in B from a cut vertex a (or between cut vertices a and
    b) extended by the longest arm that leaves B through a (and through b).
    A clique block keeps no tables: a path in it from, or between, any of
    its vertices has |B| - 1 edges. A Hamiltonian block's paths inside it
    and from each cut vertex are closed-form (|B| - 1); only the paths
    between two cut vertices run a DP. Any other non-clique block runs one
    path DP from all of its vertices, whose rows at the cut vertices are
    the paths from them, and the pair DPs. The arms are composed over the
    block-cut tree.
    A block without a Hamiltonian cycle costs about (max(cut vertices in B,
    1) + 1) * 2^|B| steps over both passes, so the guard is on the largest
    non-clique block, and on the memory its tables need; both run here,
    before either pass, and reading p never raises.
    """
    return _compose(g, block_decomposition(g), dp_limit)


def _compose(g: Graph, decomp: BlockDecomposition, dp_limit: int) -> VertexWeights:
    """The weights of g from its block decomposition ``decomp``: the c pass
    now, the p pass (``_path_weights``) when p is first read."""
    largest = max((len(b) for b, cl in zip(decomp.blocks, decomp.clique) if not cl), default=0)
    _guard("subset DP", "non-clique block order", largest, dp_limit)
    _memory_guard(largest)
    c = [2] * g.n
    blocks: list[_Block | None] = []  # None for a clique block
    for bi, blk in enumerate(decomp.blocks):
        size = len(blk)
        if decomp.clique[bi]:
            # every vertex of a clique block of 3 or more vertices lies on a
            # cycle through all of it; a bridge leaves c at 2
            blocks.append(None)
            if size > 2:
                for v in blk:
                    if c[v] < size:
                        c[v] = size
            continue
        order = sorted(blk)
        local_bit = {1 << v: 1 << i for i, v in enumerate(order)}
        mask = sum(local_bit)
        adj = []
        for v in order:
            row = 0
            rest = g.adj[v] & mask
            while rest:
                b = rest & -rest
                rest ^= b
                row |= local_bit[b]
            adj.append(row)
        hamiltonian = _has_hamiltonian_cycle(adj, size)
        blocks.append(_Block(order, adj, hamiltonian))
        # a spanning cycle is a longest cycle through every vertex
        c_in = [size] * size if hamiltonian else _cycle_table(adj, size)
        for v, cv in zip(order, c_in):
            if c[v] < cv:
                c[v] = cv
    return VertexWeights._with_pending_p(
        partial(_path_weights, g.n, decomp, blocks), tuple(c), max(c, default=0), decomp
    )


def _path_weights(
    n: int, decomp: BlockDecomposition, blocks: list[_Block | None]
) -> tuple[int, ...]:
    """p of the n-vertex graph decomposed as ``decomp``, from the relabeled
    non-clique ``blocks`` of the c pass."""
    cuts_of: list[list[int]] = [[] for _ in decomp.blocks]
    for bi, a in decomp.tree_edges:
        cuts_of[bi].append(a)

    # a clique block keeps only its order
    tables: list[_BlockTables | int] = []
    for bi, blk in enumerate(blocks):
        if blk is None:
            tables.append(len(decomp.blocks[bi]))
            continue
        order, adj, hamiltonian = blk
        size = len(order)
        local = {v: i for i, v in enumerate(order)}
        cuts = cuts_of[bi]
        if hamiltonian:
            # a Hamiltonian path leaves from any vertex along the spanning cycle
            p_in = [size - 1] * size
            rows = [p_in] * len(cuts)
        else:
            # a path that ends at a cut vertex, read backwards, starts there
            p_in, rows = _paths_from(adj, size, (1 << size) - 1, [local[a] for a in cuts])
        start = dict(zip(cuts, rows))
        pair: dict[tuple[int, int], list[int]] = {}
        for k, a in enumerate(cuts[:-1]):
            later = cuts[k + 1:]
            _, rows = _paths_from(adj, size, 1 << local[a], [local[b] for b in later])
            for b, row in zip(later, rows):
                pair[(a, b)] = pair[(b, a)] = row
        tables.append(_BlockTables(local, p_in, start, pair))

    def down(a: int, bi: int) -> int:
        """Longest path from cut vertex a into block bi, continuing through
        bi's other cut vertices away from a."""
        t = tables[bi]
        if type(t) is int:
            return t - 1 + max([arm[(b, bi)] for b in cuts_of[bi] if b != a], default=0)
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

    p = [0] * n
    for bi, t in enumerate(tables):
        if type(t) is int:
            # every vertex of a clique block lies on a path through it that
            # joins the two longest arms at distinct cut vertices (arms >= 0)
            first = second = 0
            for a in cuts_of[bi]:
                x = arm[(a, bi)]
                if x > second:
                    first, second = max(first, x), min(first, x)
            best = t - 1 + first + second
            for v in decomp.blocks[bi]:
                if p[v] < best:
                    p[v] = best
            continue
        for v, i in t.local.items():
            best = max(
                [t.p[i]]
                + [arm[(a, bi)] + row[i] for a, row in t.start.items()]
                + [arm[(a, bi)] + row[i] + arm[(b, bi)] for (a, b), row in t.pair.items()]
            )
            if p[v] < best:
                p[v] = best
    return tuple(p)


def _has_hamiltonian_cycle(adj, n: int) -> bool:
    """Whether a search finds a spanning cycle of the graph on vertices
    0..n-1 (n >= 3) within 2^(n-2) + n^3 candidate tries. False when there
    is none or the tries run out; the caller then runs the exact DP, which
    costs several times 2^n steps, so the weights are exact either way and
    a failed search adds at most a fraction of the DP's time.

    An iterative DFS grows a path from vertex 0 in increasing vertex order
    and closes it when it spans every vertex and ends next to vertex 0. A
    (vertex set, end) state whose subtree is exhausted, or that fails a
    prune, cannot be completed whatever path led to it, so it is memoized
    as dead. A state is pruned when no unused vertex is left next to vertex
    0 to close the cycle, when some unused vertex is not reachable from the
    end through unused vertices, or when the unused vertices hold too many
    of a fixed independent set I: the rest of the cycle runs from the end
    through the k unused vertices back to vertex 0, and no two vertices of
    I are consecutive on it, so at most (k + 1 - [end in I] - [0 in I]) / 2
    of them fit. I is built greedily in increasing degree, which catches
    the larger side of an unbalanced bipartite block at the first step.
    """
    nbr = {1 << v: adj[v] for v in range(n)}
    full = (1 << n) - 1
    indep = 0
    avail = full
    for v in sorted(range(n), key=lambda u: adj[u].bit_count()):
        if avail >> v & 1:
            indep |= 1 << v
            avail &= ~adj[v]
    home = nbr[1]
    # k + 1 - [0 in I] is this minus len(path), where k = n - 1 - len(path)
    slack = n - (indep & 1)
    s_mask = 1
    path = [1]
    # dead[S]: the ends e for which no path from 0 spanning S and ending at
    # e closes into a spanning cycle
    dead: dict[int, int] = {}
    todo = [home]  # per depth, the next vertices not yet tried
    tries = (1 << (n - 2)) + n**3
    while todo:
        cand = todo[-1]
        if not cand:
            end = path.pop()
            todo.pop()
            dead[s_mask] = dead.get(s_mask, 0) | end
            s_mask ^= end
            continue
        if not tries:
            return False
        tries -= 1
        w = cand & -cand
        todo[-1] = cand ^ w
        grown = s_mask | w
        if dead.get(grown, 0) & w:
            continue
        free = full ^ grown
        if not free:
            if w & home:
                return True
            continue
        if (
            not home & free
            or 2 * (free & indep).bit_count() > slack - len(path) - (1 if w & indep else 0)
            or reachable(nbr, w, free) != free
        ):
            dead[grown] = dead.get(grown, 0) | w
            continue
        s_mask = grown
        path.append(w)
        todo.append(nbr[w] & free)
    return False


def _cycle_table(adj, n: int) -> list[int]:
    """c of a graph on vertices 0..n-1, by subset DP over the endpoints of
    the paths that span exactly S and start at min(S): S closes into a
    cycle when |S| >= 3 and some endpoint is adjacent to min(S)."""
    size = 1 << n
    nbr = {1 << v: adj[v] for v in range(n)}
    rooted = [0] * size
    for bit in nbr:
        rooted[bit] = bit
    cycles = [0] * (n + 1)
    for s_mask in range(1, size):
        ends = rooted[s_mask]
        if not ends:
            continue
        low = s_mask & -s_mask
        if ends & nbr[low]:
            count = s_mask.bit_count()
            if count >= 3:
                cycles[count] |= s_mask
        out = ~s_mask & -(low << 1)  # a rooted path grows only above its root
        while ends:
            b = ends & -ends
            ends ^= b
            ext = nbr[b] & out
            while ext:
                w = ext & -ext
                ext ^= w
                rooted[s_mask | w] |= w
    return _longest_containing(cycles, n, 2)


def _paths_from(
    adj, n: int, starts: int, targets: list[int]
) -> tuple[list[int], list[list[int]]]:
    """Over the subsets S, with the endpoints of the paths that start at a
    vertex of the mask ``starts`` and span exactly S: the longest such path
    that contains v, and for each b in ``targets`` the longest such path
    that ends at b and contains v.

    Run from every vertex, the first list is p and each target's row,
    read backwards, is the longest path from b that contains v. In a block
    every vertex lies on some path between any two of its vertices (the
    block is 2-connected or a single edge), so no target row keeps its
    placeholder 0.
    """
    size = 1 << n
    nbr = {1 << v: adj[v] for v in range(n)}
    reach = [0] * size
    rest = starts
    while rest:
        b = rest & -rest
        rest ^= b
        reach[b] = b
    target_bits = [1 << b for b in targets]
    target_mask = sum(target_bits)
    paths = [0] * n
    to_b = {bit: [0] * n for bit in target_bits}
    for s_mask in range(starts & -starts, size):
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
    most = reachable(nbr, s_mask, full ^ s_mask).bit_count() + 1
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
        if len(path) + reachable(nbr, w, full & ~grown).bit_count() < len(best):
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

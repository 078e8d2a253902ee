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
vertex but the last. The arms are composed over the block-cut tree
(Hopcroft & Tarjan 1973) in two passes over the blocks, one in the order
the DFS closed them and one in reverse. Each cut vertex keeps its longest
and second-longest arm down into its child blocks, and the block of the
longest, in flat per-vertex arrays, so a block reads its arm at any of its
cut vertices in O(1) and the composition is linear in the block-cut
incidences. A clique block keeps no tables: it is one value for all its
vertices, |B| - 1 plus its two longest arms. A non-clique block B without
a Hamiltonian cycle costs about (max(cut vertices in B, 1) + 1) * 2^|B|
over both passes.

The blocks come from one DFS of ``graphs`` as a ``Blocks`` tuple: the
vertex masks, the cut-vertex mask and the clique flags, which both passes
read. ``VertexWeights`` keeps it as its ``blocks`` field, so the theorem-1
recognizer and the clique profile (``cliques.block_clique_counts``) read
it without a second DFS.

``longest_path_from`` gives the lexicographically least longest path from
a start vertex, which the rotation closure of ``transforms`` starts from:
one branch-and-bound depth-first search that keeps the best path so far,
memoizes the (vertex set, end) states that cannot beat it, and, while the
path is shorter than the best, skips an end that cannot reach enough
unused vertices to beat it. Its one limit, at any n, is a budget of
candidate tries that bounds its time and its memo's memory alike; only the
subset DP of ``compute_weights`` reads ``dp_limit``.

The kernels walk vertex sets as bitmasks one low bit at a time
(``b = m & -m; m ^= b``) and index neighbour rows by that bit, so their
inner loops make no generator call and no ``bit_length`` call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .graphs import (
    Blocks,
    Graph,
    ResourceLimitError,
    _block_masks,
    iter_bits,
    reachable,
)

DEFAULT_DP_LIMIT = 18
# Candidate extensions one longest-path search may try before it gives up.
# The largest search in the tests tries about 5,000; a chain of 12 K5
# blocks with a pendant vertex on each (n = 61) tries about 1.05 million,
# in about 12 s on a 2-CPU machine. G(30, 0.2, seed 2) from vertex 0 spends
# all of it in about 5 s, adding about 30 MiB to the peak RSS.
PATH_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class VertexWeights:
    """p and c arrays plus the circumference (max c; 0 on the empty graph),
    and the ``Blocks`` of the graph they were composed over.

    ``compute_weights`` fills c, the circumference and the blocks. It
    leaves p to a pending pass that runs the first time p is read and is
    then dropped. p is a field, so equality, hash and repr read it.
    Constructed directly, all four fields are given."""

    p: tuple[int, ...]
    c: tuple[int, ...]
    circumference: int
    blocks: Blocks

    def __getattr__(self, name: str):
        # reached only when ordinary lookup fails, so the field is pending
        key = f"_{name}_pass"
        pending = self.__dict__.get(key)
        if pending is None:
            raise AttributeError(name)
        value = pending()
        object.__setattr__(self, name, value)
        del self.__dict__[key]
        return value

    @classmethod
    def _with_pending(cls, c, circumference, p_pass, blocks: Blocks) -> VertexWeights:
        """c, the circumference and the blocks given, p from ``p_pass``."""
        w = cls.__new__(cls)
        vars(w).update(c=c, circumference=circumference, blocks=blocks, _p_pass=p_pass)
        return w


# Peak bytes per subset of the DP: each kernel holds one table of 2^|B| list
# slots, the two passes run one at a time, and each filled slot holds its own
# int object (8 + 32 bytes). Measured with tracemalloc on the complete graph
# at |B| = 14: 39.5 bytes per slot.
_DP_BYTES_PER_SLOT = 40


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
    block-cut tree in two passes, linear in the block-cut incidences.
    A block without a Hamiltonian cycle costs about (max(cut vertices in B,
    1) + 1) * 2^|B| steps over both passes, so the guard is on the largest
    non-clique block, and on the memory its tables need; both run here,
    before either pass, and reading p never raises. One DFS gives the
    ``Blocks`` (``graphs._block_masks``), which the weights keep.
    """
    blocks = _block_masks(g)
    masks, cuts, clique = blocks
    c = [2] * g.n
    largest = 0
    for bmask, is_clique in zip(masks, clique):
        size = bmask.bit_count()
        if not is_clique:
            largest = max(largest, size)
        elif size > 2:
            # every vertex of a clique block of 3 or more vertices lies on a
            # cycle through all of it; a bridge leaves c at 2
            rest = bmask
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                if c[v] < size:
                    c[v] = size
    if largest > dp_limit:
        raise ResourceLimitError(
            f"subset DP guarded at non-clique block order <= {dp_limit} (got {largest}); "
            "raise dp_limit explicitly"
        )
    if largest:
        _memory_guard(largest)
    relabeled: list[_Block | None] = []  # None for a clique block
    for bmask, is_clique in zip(masks, clique):
        if is_clique:
            relabeled.append(None)
            continue
        size = bmask.bit_count()
        order = list(iter_bits(bmask))
        local_bit = {1 << v: 1 << i for i, v in enumerate(order)}
        adj = []
        for v in order:
            row = 0
            rest = g.adj[v] & bmask
            while rest:
                b = rest & -rest
                rest ^= b
                row |= local_bit[b]
            adj.append(row)
        hamiltonian = _has_hamiltonian_cycle(adj, size)
        relabeled.append(_Block(order, adj, hamiltonian))
        # a spanning cycle is a longest cycle through every vertex
        c_in = [size] * size if hamiltonian else _cycle_table(adj, size)
        for v, cv in zip(order, c_in):
            if c[v] < cv:
                c[v] = cv
    return VertexWeights._with_pending(
        tuple(c), max(c, default=0), partial(_path_weights, g.n, masks, cuts, relabeled), blocks
    )


def _path_weights(
    n: int, masks: tuple[int, ...], cuts: int, blocks: list[_Block | None]
) -> tuple[int, ...]:
    """p of the n-vertex graph with block ``masks`` in DFS closing order
    and cut-vertex mask ``cuts``, from the relabeled non-clique ``blocks``
    of the c pass.

    The arm of block B at its cut vertex a is the longest path that starts
    at a and leaves B through a. B's parent cut vertex is its one vertex in
    a later block; each other cut vertex of B is a child cut, whose other
    blocks all closed before B. The pass in closing order gives each block's
    down value at its parent cut a, the longest path from a down through
    the block and on. Cut vertex a keeps only its longest and second-longest
    down values and the block of the longest; the longest is the arm at a
    of a's own parent block. The pass in reverse order gives B's arm at its
    parent cut a: the longer of the path from a up into a's parent block
    and on, and the longest down value at a of a block other than B, which
    is a's second-longest when B gave the longest. Every arm is read in
    O(1), so the composition is linear in the block-cut incidences; only a
    non-clique block's paths between two cut vertices are quadratic in its
    cut vertices.
    """
    cuts_of = []
    for bmask in masks:
        row = []
        rest = bmask & cuts
        while rest:
            b = rest & -rest
            rest ^= b
            row.append(b.bit_length() - 1)
        cuts_of.append(row)
    # the parent cut vertex of each block; -1 for the last block of a component
    parent = []
    later = 0
    for bmask in reversed(masks):
        parent.append((bmask & later).bit_length() - 1)
        later |= bmask
    parent.reverse()

    # a clique block keeps only its order
    tables: list[_BlockTables | int] = []
    for bmask, blk, cuts_in in zip(masks, blocks, cuts_of):
        if blk is None:
            tables.append(bmask.bit_count())
            continue
        order, adj, hamiltonian = blk
        size = len(order)
        local = {v: i for i, v in enumerate(order)}
        if hamiltonian:
            # a Hamiltonian path leaves from any vertex along the spanning cycle
            p_in = [size - 1] * size
            rows = [p_in] * len(cuts_in)
        else:
            # a path that ends at a cut vertex, read backwards, starts there
            p_in, rows = _paths_from(adj, size, (1 << size) - 1, [local[a] for a in cuts_in])
        start = dict(zip(cuts_in, rows))
        pair: dict[tuple[int, int], list[int]] = {}
        for k, a in enumerate(cuts_in[:-1]):
            rest = cuts_in[k + 1:]
            _, rows = _paths_from(adj, size, 1 << local[a], [local[b] for b in rest])
            for b, row in zip(rest, rows):
                pair[(a, b)] = pair[(b, a)] = row
        tables.append(_BlockTables(local, p_in, start, pair))

    def down(t: _BlockTables, a: int, arm: dict[int, int]) -> int:
        """Longest path from cut vertex a into the non-clique block of
        ``t``, continuing out through its other cut vertices b along arm[b]."""
        i = t.local[a]
        return max([t.start[a][i]] + [t.pair[(a, b)][i] + x for b, x in arm.items() if b != a])

    # per cut vertex: its longest and second-longest down values, and the
    # block of the longest
    first = [0] * n
    second = [0] * n
    first_from = [-1] * n
    for bi, t in enumerate(tables):
        up = parent[bi]
        if up < 0:
            continue
        # every cut vertex of the block but up is a child cut, whose arm is final
        if type(t) is int:
            x = 0
            for a in cuts_of[bi]:
                if a != up and first[a] > x:
                    x = first[a]
            x += t - 1
        else:
            x = down(t, up, {a: first[a] for a in cuts_of[bi] if a != up})
        if x > first[up]:
            first[up], second[up], first_from[up] = x, first[up], bi
        elif x > second[up]:
            second[up] = x

    p = [0] * n
    # above[a]: the longest path from cut vertex a into its parent block and on
    above = [0] * n
    for bi in range(len(tables) - 1, -1, -1):
        t, up = tables[bi], parent[bi]
        # the block's arm at its parent cut: up into the cut's parent block,
        # or down into a sibling
        arm_up = 0
        if up >= 0:
            arm_up = max(above[up], second[up] if first_from[up] == bi else first[up])
        if type(t) is int:
            # every vertex of a clique block lies on a path through it that
            # joins its two longest arms, and the path down from a child cut
            # leaves through the longest arm at another cut
            hi = lo = 0
            top = -1
            for a in cuts_of[bi]:
                x = arm_up if a == up else first[a]
                if x > hi:
                    hi, lo, top = x, hi, a
                elif x > lo:
                    lo = x
            for a in cuts_of[bi]:
                if a != up:
                    above[a] = t - 1 + (lo if a == top else hi)
            best = t - 1 + hi + lo
            rest = masks[bi]
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                if p[v] < best:
                    p[v] = best
            continue
        arm = {a: arm_up if a == up else first[a] for a in cuts_of[bi]}
        for a in arm:
            if a != up:
                above[a] = down(t, a, arm)
        # per local label, the longest path in the block, or from a cut
        # vertex, or between two, with their arms
        best = t.p
        for a, row in t.start.items():
            x = arm[a]
            best = [y if y >= x + r else x + r for y, r in zip(best, row)]
        for (a, b), row in t.pair.items():
            if a < b:
                x = arm[a] + arm[b]
                best = [y if y >= x + r else x + r for y, r in zip(best, row)]
        for v, y in zip(t.local, best):
            if p[v] < y:
                p[v] = y
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
            # w was the one free vertex, and the prune below keeps a state
            # only while a free vertex is next to vertex 0
            return True
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


def longest_path_from(g: Graph, v0: int) -> tuple[int, ...]:
    """A maximum-length simple path starting at v0, lexicographically least.

    One branch-and-bound DFS extends the path in increasing vertex order and
    keeps the first path longer than the best so far, so the first path of
    maximum length, the lexicographically least, is the one kept. A
    (vertex set, end) state whose subtree is exhausted holds no path longer
    than the best, which only grows, so it is memoized as dead. While the
    path is shorter than the best, a vertex from which fewer unused
    vertices are reachable than the best path needs is skipped without a
    search; a path as long as the best needs no such reach test, since it
    cannot fail. The search stops once the best path spans the component
    of v0. A search that tries more than ``PATH_SEARCH_BUDGET`` candidates,
    each counted whether or not its reach test runs, raises
    ResourceLimitError. That budget is its one limit at any n; each try adds
    at most one memo entry, so it bounds the memory as well as the time.
    """
    if not 0 <= v0 < g.n:
        raise ValueError(f"start vertex {v0} not in graph")
    full = g.full_mask
    nbr = {1 << v: row for v, row in enumerate(g.adj)}
    s_mask = 1 << v0
    most = reachable(nbr, s_mask, full ^ s_mask).bit_count() + 1
    path = [s_mask]
    best = path[:]
    depth = best_len = 1  # len(path), len(best)
    # dead[S]: the ends e for which no path from v0 spanning S and ending
    # at e extends past the best path
    dead: dict[int, int] = {}
    todo = [nbr[s_mask] & ~s_mask]  # per depth, the next vertices not yet tried
    tries = 0
    while todo and best_len < most:
        cand = todo[-1]
        if not cand:
            end = path.pop()
            todo.pop()
            depth -= 1
            dead[s_mask] = dead.get(s_mask, 0) | end
            s_mask ^= end
            continue
        # every candidate counts, pruned or not, searched or not
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
        # too few vertices reachable from w off the path to beat the best,
        # which only a path shorter than the best can lack
        if depth < best_len and depth + reachable(nbr, w, full & ~grown).bit_count() < best_len:
            continue
        s_mask = grown
        path.append(w)
        todo.append(nbr[w] & ~grown)
        depth += 1
        if depth > best_len:
            best = path[:]
            best_len = depth
    return tuple(b.bit_length() - 1 for b in best)


def compute_weights_block_graph(g: Graph) -> VertexWeights:
    """``compute_weights`` for graphs whose every block is a clique (unions
    of block graphs), where no block runs the subset DP, so any n up to the
    graph type's limit is cheap. Raises ValueError on any other graph, before
    any DP, since a limit of 0 refuses exactly the graphs with a non-clique block."""
    try:
        return compute_weights(g, 0)
    except ResourceLimitError:
        raise ValueError("input is not a block graph: some block is not a clique") from None

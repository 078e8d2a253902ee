"""Immutable bitmask graphs, graph6 and edge-list I/O, constructors and generators.

Vertices are dense ids 0..n-1 with n capped at 64 so a single machine word
holds one adjacency row. Everything downstream (subset DP, clique recursion,
rotation closures) works on these rows directly.

Rows are checked once, where they enter the package: ``Graph(n, adj)`` and
``from_edges`` check the rows a caller gives. Rows the package derives from
rows already checked (a pair mask, an induced subgraph, a disjoint union)
are symmetric and loop-free by construction, so only their vertex count is
checked, before they are built.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import NamedTuple

MAX_VERTICES = 64

# Canonical augmentation enumerates the 12,346 classes on 8 vertices in about
# 2 s (Python 3.11, 2 vCPUs); n = 9 has 274,668 classes, out of desk range
# for the DP verifiers downstream. The labeling behind canonical_mask ends
# with one state per automorphism up to twin swaps, so it is capped with
# enumeration.
ENUMERATION_LIMIT = 8


class GraphParseError(ValueError):
    """Malformed graph6 or edge-list input."""


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds a configured size guard."""


def _require_vertex_count(n: int):
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[v]`` is the neighbor bitmask of v.

    Built directly, the rows are stored as a tuple and checked: n in
    0..64, one row per vertex, no bit >= n, no self-loop, every edge in
    both rows. The package's own constructors of derived rows check n
    before they build the rows, and skip the row checks (see ``_derived``)."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _require_vertex_count(self.n)
        # a list would stay mutable and unhashable inside a frozen graph
        object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} has bits >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            while row:
                b = row & -row
                row ^= b
                if not self.adj[b.bit_length() - 1] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{b.bit_length() - 1}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int):
        return iter_bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for v in range(self.n) for u in iter_bits(self.adj[v]) if u < v]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on ``vertices``, relabeled densely in sorted order.
        A repeated id, or one outside 0..n-1, is refused before a row is read."""
        vs = sorted(vertices)
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError(f"vertex {vs[0] if vs[0] < 0 else vs[-1]} not in graph")
        index = {v: i for i, v in enumerate(vs)}
        if len(index) < len(vs):
            raise ValueError(f"repeated vertex {next(v for v, u in zip(vs, vs[1:]) if v == u)}")
        rows = []
        for v in vs:
            row = 0
            for u in iter_bits(self.adj[v]):
                if u in index:
                    row |= 1 << index[u]
            rows.append(row)
        return _derived(len(vs), tuple(rows))


def _derived(n: int, adj: tuple[int, ...]) -> Graph:
    """The graph on rows the package derived from checked rows, so
    symmetric, loop-free and below bit n by construction; the caller has
    checked n before building them, and the rows are not walked again."""
    g = object.__new__(Graph)
    vars(g).update(n=n, adj=adj)
    return g


def from_edges(n: int, edges) -> Graph:
    """The graph on n vertices with the given edges; n is checked before an
    edge is read."""
    _require_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def pair_index(i: int, j: int) -> int:
    """Position of the unordered pair (i, j), i < j, in column-major order."""
    return j * (j - 1) // 2 + i


def from_pair_mask(n: int, mask: int) -> Graph:
    """Graph from an edge bitmask laid out in column-major pair order; bits
    past the n(n-1)/2 pairs are ignored."""
    _require_vertex_count(n)
    return _derived(n, tuple(_adj_from_mask(n, mask)))


def to_pair_mask(g: Graph) -> int:
    """The edge bitmask in column-major pair order: column j is the low j
    bits of row j."""
    mask = 0
    for j, row in enumerate(g.adj):
        mask |= (row & ((1 << j) - 1)) << pair_index(0, j)
    return mask


def _adj_from_mask(n: int, mask: int) -> list[int]:
    """Adjacency rows from a column-major pair mask: column j, the next j
    bits, is the low part of row j, and each of its bits i sets bit j of
    row i."""
    rows = [0] * n
    for j in range(1, n):
        col = mask & ((1 << j) - 1)
        mask >>= j
        rows[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            col ^= low
            rows[low.bit_length() - 1] |= bit
    return rows


def disjoint_union(*graphs: Graph) -> Graph:
    n = sum(g.n for g in graphs)
    _require_vertex_count(n)
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(row << offset for row in g.adj)
        offset += g.n
    return _derived(n, tuple(rows))


def reachable(nbr: dict[int, int], bit: int, free: int) -> int:
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


def is_connected(g: Graph) -> bool:
    """Whether a walk from vertex 0 reaches every vertex; True when n = 0."""
    rest = g.full_mask ^ 1
    return g.n == 0 or reachable({1 << v: row for v, row in enumerate(g.adj)}, 1, rest) == rest


class BlockDecomposition(NamedTuple):
    """Biconnected components (bridges as 2-sets, isolated vertices as
    singletons), cut vertices, and the bipartite block-cut tree given as
    (block index, cut vertex) incidences. ``clique[i]`` says whether block i
    induces a complete graph; ``blocks_at[v]`` lists the blocks holding
    vertex v, two or more exactly when v is a cut vertex. A tuple of its
    five fields in this order."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    tree_edges: tuple[tuple[int, int], ...]
    clique: tuple[bool, ...]
    blocks_at: tuple[tuple[int, ...], ...]

    @property
    def components(self) -> int:
        """Connected components: the block-cut forest has one tree each."""
        return len(self.blocks) + len(self.cut_vertices) - len(self.tree_edges)


def block_decomposition(g: Graph, mask: int | None = None) -> BlockDecomposition:
    """Hopcroft-Tarjan decomposition on vertex bitmasks, of the subgraph
    induced on the vertex bitmask ``mask`` (all of g by default) in g's own
    vertex ids; a vertex outside the mask is in no block.

    The DFS is ``_block_masks``, which gives the blocks as vertex masks;
    this builder turns them into the frozensets, clique flags, tree
    incidences and ``blocks_at`` tuples of a ``BlockDecomposition``. The
    package's own readers (the weights and the theorem-1 recognizer) read
    the masks and build none of these.
    """
    masks, cuts, nbr = _block_masks(g, mask)
    return _decomposition(g.n, masks, cuts, [_is_clique(nbr, m) for m in masks])


def _block_masks(g: Graph, mask: int | None = None) -> tuple[list[int], int, dict[int, int]]:
    """The blocks of the subgraph induced on ``mask`` (all of g by default)
    as vertex masks in the order the DFS closes them, the mask of its cut
    vertices, and its rows, keyed by vertex bit and cut to the mask.

    One iterative DFS descends to the least unvisited neighbour. A frame
    holds its vertex bit, its untried neighbours as a row, the union of
    the rows of its subtree's vertices, and the vertices of its subtree in
    no block yet (its part of the vertex stack). A neighbour of a vertex is
    visited before it only if it is an ancestor, so every neighbour of a
    subtree is in it or on the DFS path above it. A finished child whose
    rows meet no vertex of the path above its parent (no back edge reaches
    above the parent) closes a block, its pending vertices and the parent;
    otherwise the parent takes over its rows and pending vertices. A vertex
    with no neighbour is a block of its own.

    Every block closes after the blocks that hang below it in the block-cut
    tree, so the last block of each component is its root, and any other
    block's parent cut vertex is its one vertex that lies in a later block.
    """
    mask = g.full_mask if mask is None else mask & g.full_mask
    nbr = {1 << v: row & mask for v, row in enumerate(g.adj) if mask >> v & 1}
    masks: list[int] = []
    seen = 0
    rest = mask
    while rest:
        root = rest & -rest
        seen |= root
        row = nbr[root]
        if not row:
            masks.append(root)
        path = root  # the vertices of the open frames
        # frames: [vertex bit, untried neighbours, rows of the subtree, pending vertices]
        work = [[root, row, row, root]]
        while work:
            top = work[-1]
            untried = top[1] & ~seen
            if untried:
                w = untried & -untried
                top[1] = untried ^ w
                seen |= w
                path |= w
                row = nbr[w]
                work.append([w, row & ~seen, row, w])
                continue
            work.pop()
            path ^= top[0]
            if work:
                parent = work[-1]
                if top[2] & (path ^ parent[0]):
                    parent[2] |= top[2]
                    parent[3] |= top[3]
                else:
                    masks.append(top[3] | parent[0])
        rest &= ~seen

    once = cuts = 0
    for bmask in masks:
        cuts |= once & bmask
        once |= bmask
    return masks, cuts, nbr


def _is_clique(nbr: dict[int, int], bmask: int) -> bool:
    """Whether the vertex mask ``bmask`` induces a complete graph, with
    ``nbr`` the rows keyed by vertex bit."""
    m = bmask
    while m:
        b = m & -m
        m ^= b
        if (nbr[b] | b) & bmask != bmask:
            return False
    return True


def _decomposition(n: int, masks: list[int], cuts: int, clique) -> BlockDecomposition:
    """The ``BlockDecomposition`` of an n-vertex graph from its block
    ``masks``, cut-vertex mask ``cuts`` and per-block clique flags."""
    blocks: list[frozenset[int]] = []
    blocks_at: list[list[int]] = [[] for _ in range(n)]
    tree = []
    for bi, bmask in enumerate(masks):
        verts = []
        m = bmask
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            verts.append(v)
            blocks_at[v].append(bi)
            if b & cuts:
                tree.append((bi, v))
        blocks.append(frozenset(verts))
    return BlockDecomposition(
        tuple(blocks), frozenset(v for _, v in tree), tuple(tree), tuple(clique),
        tuple(map(tuple, blocks_at)),
    )


# ---------------------------------------------------------------------------
# graph6 codec (column-major upper triangle, 6-bit chunks offset by 63)
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# six pair bits, read low bit first, as the value of a graph6 character less
# 63: reversing six bits is its own inverse, so the one table serves both ways
_G6_BITS = bytes(int(f"{c:06b}"[::-1], 2) for c in range(64))
# the graph6 character of six pair bits read low bit first
_G6_CHUNK = tuple(chr(63 + _G6_BITS[c]) for c in range(64))
# Input whitespace is the six ASCII characters that bytes.split() splits at,
# and a line ends at "\n" alone: str.strip() and str.split() with no argument
# also take 0x1c-0x1f, 0x85 and 0xa0, and splitlines() ends lines at some.
_SPACE = " \t\n\r\x0b\x0c"
_FIELD = re.compile(f"[^{_SPACE}]+")
_INTEGER = re.compile("-?[0-9]+")


def ascii_int(text: str) -> int:
    """The integer written as an optional ``-`` and ASCII digits: the one
    integer grammar of edge lists, generator specs and command-line options.
    ``int()`` alone also reads ``+``, ``_``, surrounding whitespace and other
    scripts' digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_graph6(text: str) -> Graph:
    line = text.strip(_SPACE)
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise GraphParseError("empty graph6 input")
    if min(line) < "?" or max(line) > "~":
        off = next(off for off, ch in enumerate(line) if not "?" <= ch <= "~")
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
    for byte in reversed(data[body_start:]):
        mask = mask << 6 | _G6_BITS[byte - 63]
    if mask >> nbits:
        # need >= 1 here, and padding lives only in the last body byte
        raise GraphParseError(f"nonzero padding bits at offset {body_start + need - 1}")
    return from_pair_mask(n, mask)


def write_graph6(g: Graph) -> str:
    mask = to_pair_mask(g)
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + "".join(chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0))
    nbits = g.n * (g.n - 1) // 2
    return head + "".join(_G6_CHUNK[mask >> k & 63] for k in range(0, nbits, 6))


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n <count>`` header plus one ``u v`` edge per line. Blank
    lines are skipped; errors name the 1-based line of ``text``."""
    return _edge_list(enumerate(text.split("\n"), start=1))


def _edge_list(lines: Iterable[tuple[int, str]]) -> Graph:
    """The edge list on (line number, line) pairs, header first. Each number
    is read by ``ascii_int``."""
    body = [(no, text) for no, ln in lines if (text := ln.strip(_SPACE))]
    if not body:
        raise GraphParseError("empty edge-list input")
    head = _FIELD.findall(body[0][1])
    if len(head) != 2 or head[0] != "n":
        raise GraphParseError(f"bad edge-list header {body[0][1]!r}, expected 'n <count>'")
    try:
        n = ascii_int(head[1])
    except ValueError:
        raise GraphParseError(f"bad vertex count {head[1]!r}") from None
    if not 0 <= n <= MAX_VERTICES:
        raise GraphParseError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    edges = []
    for lineno, ln in body[1:]:
        try:
            u, v = (ascii_int(field) for field in _FIELD.findall(ln))
        except ValueError:
            raise GraphParseError(f"bad edge on line {lineno}: {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"edge {u} {v} on line {lineno} out of range")
        if u == v:
            raise GraphParseError(f"self-loop {u} {v} on line {lineno}")
        edges.append((u, v))
    return from_edges(n, set(tuple(sorted(e)) for e in edges))


def read_graphs(lines: Iterable[bytes]) -> Iterator[Graph]:
    """Yield the graphs of a stream of byte lines as each is read: one graph6
    string per line, or one edge list from the first nonblank line whose
    first field is ``n``. A byte is one character, so a non-ASCII one is out
    of range for graph6; graph6 errors name their 1-based line."""
    numbered = ((no, raw.decode("latin-1")) for no, raw in enumerate(lines, start=1))
    for lineno, line in numbered:
        fields = _FIELD.findall(line)
        if not fields:
            continue
        if fields[0] == "n":
            yield _edge_list(chain([(lineno, line)], numbered))
            return
        try:
            g = parse_graph6(line)
        except GraphParseError as exc:
            raise GraphParseError(f"line {lineno}: {exc}") from None
        yield g


# ---------------------------------------------------------------------------
# Standard constructors
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    return from_edges(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n in (1, 2):
        raise ValueError(f"cycle_graph needs n = 0 or n >= 3, got {n}")
    if n == 0:
        return Graph(0, ())
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def random_graph(n: int, p: float, seed: int) -> Graph:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    return from_edges(n, (e for e in combinations(range(n), 2) if rng.random() < p))


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration
# ---------------------------------------------------------------------------

def canonical_mask(g: Graph) -> int:
    """Lexicographically minimal pair-order edge bitmask over all relabelings.

    Exact search: positions are filled one vertex at a time, and a vertex
    goes next only if its adjacency column against the positions already
    filled ties the least one. A prefix of the bit-string is fixed once its
    columns are, so this greedy is optimal. The tied partial labelings are
    kept as ordered cells (see ``_canonical_search``), so interchangeable
    vertices are not ordered one way after another. C16 takes about 3 ms
    and C32 about 0.6 s (Python 3.11, 2 vCPUs); n is capped at
    ``ENUMERATION_LIMIT`` with enumeration.
    """
    if g.n > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"canonical labeling capped at n <= {ENUMERATION_LIMIT}, got {g.n}"
        )
    return _canonical_search(g.n, g.adj)[0]


def _canonical_search(n: int, adj) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """The canonical mask, one labeling that reaches it (the vertex placed at
    every position) and generators of Aut(G) as vertex maps.

    Individualization and refinement over ordered cells (McKay & Piperno,
    "Practical graph isomorphism, II", J. Symb. Comput. 60, 2014), keeping
    the lex-minimal form. A state is a sequence of cells of the placed
    vertices, each a clique or an independent set, every two completely
    joined or not joined, so every ordering inside the cells gives the same
    prefix. A free vertex's least column against a state puts its
    neighbours last in each cell; placing it splits each cell into
    (non-neighbours, neighbours) and appends it, or adds it to the last cell
    when it is interchangeable with that cell. States with the same cells
    are one state, and of two twins only the first is placed, since
    swapping them is an automorphism. Every labeling that reaches the mask
    is then an ordering inside the cells of a final state up to twin swaps.
    The members of a final cell are twins, so the differences between the
    final states' orderings and one transposition per vertex and its next
    twin generate Aut(G).
    """
    full = (1 << n) - 1
    # twins[v]: the vertices whose neighbourhood equals v's apart from v
    # and themselves; a twin with a lower id is placed in v's stead
    twins = [0] * n
    for v in range(n):
        for w in range(v + 1, n):
            if (adj[v] ^ adj[w]) & ~(1 << v | 1 << w) == 0:
                twins[v] |= 1 << w
                twins[w] |= 1 << v
    # Every column is zero while the placed vertices stay independent, so
    # the first states are the maximum independent sets, each one cell,
    # holding a vertex only with its lower twins.
    found: list[int] = []
    alpha = 0
    stack = [(0, full)]
    while stack:
        s, cand = stack.pop()
        k = s.bit_count()
        if k + cand.bit_count() < alpha:
            continue
        leaf = True
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            if not twins[v] & (b - 1) & ~s:
                stack.append((s | b, cand & ~adj[v]))
                leaf = False
        if leaf and k >= alpha:
            if k > alpha:
                alpha = k
                found = []
            found.append(s)
    states: dict[tuple[int, ...], int] = {(s,): s for s in found} if alpha else {(): 0}
    mask = 0
    bit = alpha * (alpha - 1) // 2
    for pos in range(alpha, n):
        best_col = -1
        chosen: dict[tuple[int, ...], int] = {}
        for cells, placed in states.items():
            sizes = [c.bit_count() for c in cells]
            free = full ^ placed
            least = -1
            tied: list[int] = []
            rest = free
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                if twins[v] & free & (b - 1):
                    continue
                row = adj[v]
                col = 0
                for c, size in zip(cells, sizes):
                    col = col << size | (1 << (row & c).bit_count()) - 1
                if col < least or least < 0:
                    least = col
                    tied = [v]
                elif col == least:
                    tied.append(v)
            if least < best_col or best_col < 0:
                best_col = least
                chosen = {}
            elif least > best_col:
                continue
            for v in tied:
                row = adj[v]
                split = []
                for c in cells:
                    if c & ~row:
                        split.append(c & ~row)
                    if c & row:
                        split.append(c & row)
                bv = 1 << v
                last = split[-1] if split else 0
                u = (last & -last).bit_length() - 1
                if last and not (row ^ adj[u]) & placed & ~last and (
                    last & (last - 1) == 0 or row & last == (last if adj[u] & last else 0)
                ):
                    split[-1] = last | bv
                else:
                    split.append(bv)
                chosen[tuple(split)] = placed | bv
        states = chosen
        for t in range(pos):
            if best_col >> (pos - 1 - t) & 1:
                mask |= 1 << (bit + t)
        bit += pos

    first, *others = ([v for c in cells for v in iter_bits(c)] for cells in states)
    gens = set()
    for order in others:
        perm = [0] * n
        for a, b in zip(first, order):
            perm[a] = b
        gens.add(tuple(perm))
    gens.discard(tuple(range(n)))
    for v in range(n):
        higher = twins[v] >> (v + 1) << (v + 1)
        if higher:
            w = (higher & -higher).bit_length() - 1
            perm = list(range(n))
            perm[v], perm[w] = w, v
            gens.add(tuple(perm))
    return mask, tuple(first), sorted(gens)


def _subset_orbit_reps(k: int, gens) -> list[int]:
    """The least member of each orbit of the subsets of 0..k-1 (bitmasks)
    under the group that ``gens`` generate."""
    size = 1 << k
    images = []
    for perm in gens:
        img = [0] * size
        for s in range(1, size):
            low = s & -s
            img[s] = img[s ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(img)
    seen = bytearray(size)
    reps = []
    for s in range(size):
        if seen[s]:
            continue
        reps.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for img in images:
                u = img[t]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return reps


def _vertex_orbit(v: int, gens) -> int:
    """The orbit of vertex v under the group that ``gens`` generate, as a bitmask."""
    orbit = 1 << v
    stack = [v]
    while stack:
        x = stack.pop()
        for perm in gens:
            y = perm[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                stack.append(y)
    return orbit


@lru_cache(maxsize=None)
def _canonical_reps(n: int) -> tuple[tuple[int, ...], dict[int, bytes]]:
    """Canonical masks of the n-vertex classes, sorted, by canonical
    augmentation (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 26, 1998), with their automorphism groups. Each (n-1)-vertex
    representative gets a new vertex n-1 once per Aut-orbit of
    neighbourhoods; the child is kept only if n-1 lies in the orbit of its
    canonical deletion vertex: the last vertex, in canonical order, of
    maximal (degree, sorted neighbour degrees). So every class is reached
    from exactly one parent, through one neighbourhood. A kept child's
    generators, conjugated into its canonical labels, are packed as the
    bytes of their images in a row under its mask (no entry for the trivial
    group), and level n + 1 reads them as its parents' groups, so no class
    is labeled twice; the top level has no next level and packs none."""
    if n == 0:
        return (0,), {}
    last = n - 1
    parents, groups = _canonical_reps(last)
    carry: dict[int, bytes] = {}
    out = []
    for parent in parents:
        padj = _adj_from_mask(last, parent)
        packed = groups.get(parent)
        gens = [packed[i:i + last] for i in range(0, len(packed), last)] if packed else []
        for nb in _subset_orbit_reps(last, gens):
            adj = [row | (nb >> u & 1) << last for u, row in enumerate(padj)] + [nb]
            deg = [row.bit_count() for row in adj]
            if deg[last] < max(deg):
                continue
            inv = {
                u: sorted(deg[w] for w in iter_bits(adj[u]))
                for u in range(n) if deg[u] == deg[last]
            }
            top = max(inv.values())
            if inv[last] != top:
                continue
            mask, order, child_gens = _canonical_search(n, adj)
            drop = next(u for u in reversed(order) if inv.get(u) == top)
            if _vertex_orbit(drop, child_gens) >> last & 1:
                out.append(mask)
                if child_gens and n < ENUMERATION_LIMIT:
                    at = [0] * n
                    for i, u in enumerate(order):
                        at[u] = i
                    carry[mask] = bytes(at[perm[u]] for perm in child_gens for u in order)
    return tuple(sorted(out)), carry


def enumerate_graphs(n: int):
    """Yield one representative per isomorphism class of n-vertex graphs."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if n > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"enumeration capped at n <= {ENUMERATION_LIMIT}, got {n}")
    for mask in _canonical_reps(n)[0]:
        yield from_pair_mask(n, mask)


# ---------------------------------------------------------------------------
# Extremal-family generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """Rooted tree of clique blocks: ``orders[0]`` is the root.

    ``parents[i]`` names the parent of block i+1 (defaults to a path-shaped
    tree). ``attachments[i]`` optionally picks the cut vertex as an index into
    the parent block's realized vertex tuple; the default is the parent's
    lowest-id vertex that is not already a cut vertex.
    """

    orders: tuple[int, ...]
    parents: tuple[int, ...] | None = None
    attachments: tuple[int | None, ...] | None = None

    def resolved_parents(self) -> tuple[int, ...]:
        k = len(self.orders)
        if self.parents is None:
            return tuple(range(k - 1))
        return self.parents

    def validate(self):
        k = len(self.orders)
        if k == 0:
            raise ValueError("block spec needs at least one block")
        if any(o < 2 for o in self.orders):
            raise ValueError(f"block orders must be >= 2, got {self.orders}")
        parents = self.resolved_parents()
        if len(parents) != k - 1:
            raise ValueError(f"need {k - 1} parent entries, got {len(parents)}")
        for child, par in enumerate(parents, start=1):
            if not 0 <= par < child:
                raise ValueError(f"parent of block {child} must be an earlier block, got {par}")
            if self.orders[child] > self.orders[par]:
                raise ValueError(
                    f"block {child} (order {self.orders[child]}) exceeds its parent "
                    f"block {par} (order {self.orders[par]})"
                )
        if self.attachments is not None and len(self.attachments) != k - 1:
            raise ValueError(f"need {k - 1} attachment entries, got {len(self.attachments)}")

    def vertex_count(self) -> int:
        return sum(self.orders) - (len(self.orders) - 1)


def generate_pdbg(spec: BlockSpec) -> Graph:
    """Realize a parent-dominated block graph: each block a clique, consecutive
    blocks sharing exactly the chosen cut vertex."""
    spec.validate()
    total = spec.vertex_count()
    if total > MAX_VERTICES:
        raise ValueError(f"spec realizes {total} vertices, limit is {MAX_VERTICES}")
    parents = spec.resolved_parents()
    attachments = spec.attachments or (None,) * (len(spec.orders) - 1)
    realized: list[tuple[int, ...]] = [tuple(range(spec.orders[0]))]
    cut: set[int] = set()
    edges = list(combinations(realized[0], 2))
    nxt = spec.orders[0]
    for child, par in enumerate(parents, start=1):
        choice = attachments[child - 1]
        parent_vs = realized[par]
        if choice is None:
            free = [v for v in parent_vs if v not in cut]
            attach = min(free) if free else min(parent_vs)
        else:
            if not 0 <= choice < len(parent_vs):
                raise ValueError(f"attachment index {choice} out of range for block {par}")
            attach = parent_vs[choice]
        fresh = tuple(range(nxt, nxt + spec.orders[child] - 1))
        nxt += len(fresh)
        block = (attach,) + fresh
        realized.append(block)
        cut.add(attach)
        edges.extend(combinations(block, 2))
    return from_edges(total, edges)


def random_clique_forest(num_cliques: int, min_order: int, max_order: int, seed: int) -> Graph:
    if num_cliques < 0:
        raise ValueError(f"clique count must be >= 0, got {num_cliques}")
    if min_order < 1:
        raise ValueError(f"min_order must be >= 1, got {min_order}")
    if max_order < min_order:
        raise ValueError(f"max_order {max_order} below min_order {min_order}")
    if num_cliques * min_order > MAX_VERTICES:
        raise ValueError(
            f"forest realizes at least {num_cliques * min_order} vertices, limit is {MAX_VERTICES}"
        )
    rng = random.Random(seed)
    orders = [rng.randint(min_order, max_order) for _ in range(num_cliques)]
    if sum(orders) > MAX_VERTICES:
        raise ValueError(f"forest realizes {sum(orders)} vertices, limit is {MAX_VERTICES}")
    return disjoint_union(*(complete_graph(o) for o in orders)) if orders else Graph(0, ())

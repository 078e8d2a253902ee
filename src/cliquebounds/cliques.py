"""Exact clique counting and the fractional per-vertex contribution scheme.

Cliques are expanded on bitmasks in vertex-id order: each one is reached
exactly once, from its lowest vertex, by repeatedly intersecting with the
higher-id neighbours of the vertex just added. One iterative expansion
counts the cliques of every order up to a top order at once, so a caller
that needs several orders of one graph expands its cliques once.

All bound arithmetic downstream is exact: the verdicts compare integer
numerators over common denominators, and the contribution shares below are
``fractions.Fraction``. Equality detection hinges on exact ties, so nothing
here ever floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graphs import MAX_VERTICES, Graph, ResourceLimitError, iter_bits

# Clique extensions one count may try before it gives up: each is one
# candidate vertex added to one clique of the expansion. The largest count
# in the tests and the seed-0 benchmark inputs tries 5,874; K40 up to
# order 8 tries about 23 million, in about 10 s on a 2-CPU machine.
CLIQUE_EXPANSION_BUDGET = 2_000_000


def binom(a: int, b: int) -> int:
    """Binomial with the zero-extension convention: 0 when b < 0 or b > a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def _later_masks(g: Graph) -> list[int]:
    return [a >> (v + 1) << (v + 1) for v, a in enumerate(g.adj)]


def _clique_counts(nbr: dict[int, int], cand: int, top: int) -> list[int]:
    """[N(K_0), ..., N(K_top)] inside the vertex mask ``cand``, in one
    expansion; ``nbr`` maps vertex bits to neighbour rows. Each clique is
    reached once, from its lowest vertex. Raises ResourceLimitError past
    ``CLIQUE_EXPANSION_BUDGET`` extensions."""
    counts = [1] + [0] * top
    if top == 0:
        return counts
    counts[1] = cand.bit_count()
    # (c, k): c holds the vertices that each close one k-clique, all higher
    # than the clique's other k - 1 vertices
    stack = [(cand, 1)] if top > 1 else []
    left = CLIQUE_EXPANSION_BUDGET
    while stack:
        c, k = stack.pop()
        left -= c.bit_count()
        if left < 0:
            raise ResourceLimitError(
                f"clique counting gave up after {CLIQUE_EXPANSION_BUDGET} extensions"
            )
        while c:
            b = c & -c
            c ^= b
            # c now holds only vertices above b, so the row needs no masking
            ext = c & nbr[b]
            if ext:
                counts[k + 1] += ext.bit_count()
                if k + 1 < top:
                    stack.append((ext, k + 1))
    return counts


def _rows(g: Graph) -> dict[int, int]:
    return {1 << v: row for v, row in enumerate(g.adj)}


def clique_counts(g: Graph, s_max: int, mask: int | None = None) -> list[int]:
    """The clique profile [N(G, K_0), ..., N(G, K_s_max)] of g, or of the
    subgraph induced on the vertex mask ``mask``, from one expansion of
    every clique with fewer than s_max vertices. A mask with a bit outside
    g is a ValueError."""
    if s_max < 0:
        raise ValueError(f"clique order must be >= 0, got {s_max}")
    # no graph the package can hold has a clique of more than MAX_VERTICES vertices
    if s_max > MAX_VERTICES:
        raise ResourceLimitError(f"clique profile capped at s <= {MAX_VERTICES}, got {s_max}")
    if mask is None:
        mask = g.full_mask
    elif mask & ~g.full_mask:
        raise ValueError(f"vertex mask {mask:#x} has bits outside the {g.n} vertices of the graph")
    return _clique_counts(_rows(g), mask, s_max)


def count_cliques(g: Graph, s: int) -> int:
    """Number of s-vertex cliques, read from the clique profile; 0 when
    s > n, without building a profile of s + 1 slots."""
    if s > g.n:
        return 0
    return clique_counts(g, s)[s]


def enumerate_cliques(g: Graph, s: int):
    """Yield every s-clique as an increasing vertex tuple, in lexicographic
    order. Raises ResourceLimitError past ``CLIQUE_EXPANSION_BUDGET``
    extensions, as the counts do."""
    if s < 0:
        raise ValueError(f"clique order must be >= 0, got {s}")
    if s == 0:
        yield ()
        return
    later = _later_masks(g)
    left = CLIQUE_EXPANSION_BUDGET
    # (c, clique): c holds the vertices that each extend the clique, all
    # higher than its vertices; the least extension is popped first
    stack = [(g.full_mask, ())]
    while stack:
        cand, chosen = stack.pop()
        left -= cand.bit_count()
        if left < 0:
            raise ResourceLimitError(
                f"clique listing gave up after {CLIQUE_EXPANSION_BUDGET} extensions"
            )
        if len(chosen) == s - 1:
            for v in iter_bits(cand):
                yield chosen + (v,)
        else:
            stack.extend(
                (cand & later[v], chosen + (v,)) for v in reversed(list(iter_bits(cand)))
            )


def count_cliques_touching(g: Graph, s: int, touch) -> int:
    """Count s-cliques meeting the vertex set ``touch`` at least once; 0
    when s > n, like ``count_cliques``."""
    if s < 0:
        raise ValueError(f"clique order must be >= 0, got {s}")
    touch_set = set(touch)
    if any(not 0 <= v < g.n for v in touch_set):
        raise ValueError("touch set contains vertices outside the graph")
    if not touch_set or s > g.n:
        return 0
    # all of them less those avoiding the touch set
    rest = g.full_mask & ~sum(1 << v for v in touch_set)
    return clique_counts(g, s)[s] - clique_counts(g, s, rest)[s]


@dataclass(frozen=True)
class ContributionTable:
    """Per-vertex shares N_v for (g, s, marked): a clique meeting ``marked``
    in k vertices hands 1/k to each of those k, so the shares sum exactly to
    the touching count."""

    s: int
    marked: frozenset[int]
    shares: dict[int, Fraction]

    def total(self) -> Fraction:
        return sum(self.shares.values(), Fraction(0))


def contribution_table(g: Graph, s: int, marked) -> ContributionTable:
    if s < 1:
        raise ValueError(f"clique order must be >= 1, got {s}")
    marked_set = frozenset(marked)
    if any(not 0 <= v < g.n for v in marked_set):
        raise ValueError("marked set contains vertices outside the graph")
    # tally[v][k]: the cliques that meet the marked set in k vertices, v one of them
    tally = {v: [0] * (s + 1) for v in marked_set}
    for clique in enumerate_cliques(g, s):
        inside = marked_set.intersection(clique)
        k = len(inside)
        for v in inside:
            tally[v][k] += 1
    shares = {
        v: sum((Fraction(t, k) for k, t in enumerate(row) if t), Fraction(0))
        for v, row in tally.items()
    }
    return ContributionTable(s, marked_set, shares)


def contribution_upper_bound(d: int, s_size: int, s: int) -> Fraction:
    """Cap on one vertex's share given degree d, with s_size neighbors outside
    the marked set: sum over t of (1/(s-t)) C(s_size, t) C(d-s_size, s-t-1),
    returned in its closed form (1/(d-s_size+1)) (C(d+1, s) - C(s_size, s)).
    ``oracle.identity_grid`` checks that the two forms agree.
    """
    if s < 1:
        raise ValueError(f"clique order must be >= 1, got {s}")
    if not 0 <= s_size <= d:
        raise ValueError(f"need 0 <= s_size <= d, got s_size={s_size}, d={d}")
    return Fraction(binom(d + 1, s) - binom(s_size, s), d - s_size + 1)

"""Exact evaluation of the two vertex-localized clique bounds.

Bound 1 (cycle form):  N(G, K_s) <= sum_v C(c(v), s)/(c(v)-1) minus one term
taken at the circumference. Bound 2 (path form):  N(G, K_s) <=
(1/s) sum_v C(p(v), s-1). Each report carries the verdict of the equality
class's predicate from ``extremal``; ``luo_dominance`` compares both right
sides with the classical global path/cycle bounds.

Each right side is an integer numerator over a common denominator, so
every verdict is decided in integers; ``Fraction`` is built only when a
report's right side or gap is read.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .cliques import binom
from .extremal import extremal_predicate
from .graphs import Graph, write_graph6
from .weights import VertexWeights


class RightSides:
    """Both right sides of one graph at every s as (numerator, denominator),
    from one tally of its distinct weights: k vertices of weight p add
    k C(p, s-1) over s, and k of weight c add k C(c, s) (L/(c-1)) over L,
    the lcm of the c - 1. The cycle form's subtracted term depends only on
    the maximum weight, so it takes one vertex off that weight's count.
    The p weights are tallied when a path form is first asked for, so the
    cycle form alone never reads p."""

    __slots__ = ("weights", "paths", "cycles", "lcm")

    def __init__(self, g: Graph, w: VertexWeights):
        self.weights = w
        self.paths: list[tuple[int, int]] | None = None
        cycles = {c: w.c.count(c) for c in set(w.c)}
        if g.n:
            cycles[w.circumference] -= 1
        self.lcm = lcm(*(c - 1 for c, k in cycles.items() if k))
        self.cycles = [(c, k * (self.lcm // (c - 1))) for c, k in cycles.items() if k]

    def cycle_form(self, s: int) -> tuple[int, int]:
        return sum(k * comb(c, s) for c, k in self.cycles), self.lcm

    def path_form(self, s: int) -> tuple[int, int]:
        if self.paths is None:
            p = self.weights.p
            self.paths = [(v, p.count(v)) for v in set(p)]
        return sum(k * comb(p, s - 1) for p, k in self.paths), s


def _require_order(s: int):
    if s < 1:
        raise ValueError(f"clique order must be >= 1, got {s}")


def thm1_rhs(g: Graph, s: int, w: VertexWeights) -> Fraction:
    """Cycle-form right side, sum_v C(c(v), s)/(c(v)-1) less the term at the
    circumference; 0 on the empty graph."""
    _require_order(s)
    return Fraction(*RightSides(g, w).cycle_form(s))


def thm2_rhs(g: Graph, s: int, w: VertexWeights) -> Fraction:
    """Path-form right side, (1/s) sum_v C(p(v), s-1)."""
    _require_order(s)
    return Fraction(*RightSides(g, w).path_form(s))


class BoundReport(NamedTuple):
    """One bound evaluation: the s-clique count, the right side
    ``rhs_num / rhs_den`` (not reduced), the structural predicate's verdict,
    and from them the equality flag and whether the two agree. ``in_scope``
    is False only for the degenerate cycle-form case s=1 on a single vertex,
    where the stated right side is an empty sum. ``ok`` is the verdict every
    checker reads. A tuple of its eight fields in this order, it unpacks
    and compares like one."""

    theorem: int
    s: int
    graph: Graph
    lhs: int
    rhs_num: int
    rhs_den: int
    extremal: bool
    in_scope: bool = True

    @property
    def equality(self) -> bool:
        return self.rhs_num == self.lhs * self.rhs_den

    @property
    def consistent(self) -> bool:
        return not self.in_scope or self.equality == self.extremal

    @property
    def ok(self) -> bool:
        """The violation rule: in scope, the bound holds and equality holds
        exactly when the predicate does; out of scope, nothing is claimed."""
        return not self.in_scope or (self.rhs_num >= self.lhs * self.rhs_den and self.consistent)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.rhs_den)

    @property
    def gap(self) -> Fraction:
        return self.rhs - self.lhs

    @property
    def graph6(self) -> str:
        """The graph as graph6, written when read."""
        return write_graph6(self.graph)

    def to_json_dict(self) -> dict:
        rhs = self.rhs
        out = {
            "theorem": self.theorem,
            "s": self.s,
            "graph6": self.graph6,
            "lhs": self.lhs,
            "rhs_num": rhs.numerator,
            "rhs_den": rhs.denominator,
            "equality": self.equality,
            "extremal": self.extremal,
            "consistent": self.consistent,
        }
        if not self.in_scope:
            out["in_scope"] = False
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def check_theorem(
    g: Graph, s: int, theorem: int, w: VertexWeights, lhs: int,
    extremal: bool | None = None, sides: RightSides | None = None,
) -> BoundReport:
    """Evaluate one bound on g from its weights ``w`` and its s-clique count
    ``lhs``, both computed once by the caller for every theorem it checks.
    ``extremal`` is the predicate's verdict when the caller has already
    decided it on the same heavy set; by default it is decided here.
    ``sides`` is ``RightSides(g, w)`` when the caller has already built it."""
    if theorem not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {theorem}")
    _require_order(s)
    if sides is None:
        sides = RightSides(g, w)
    num, den = sides.cycle_form(s) if theorem == 1 else sides.path_form(s)
    if extremal is None:
        extremal = extremal_predicate(g, s, theorem, w)
    return BoundReport(theorem, s, g, lhs, num, den, extremal,
                       not (theorem == 1 and s == 1 and g.n == 1))


def luo_dominance(g: Graph, s: int, w: VertexWeights) -> dict:
    """Both localized right sides refine the classical global bounds:
    cycle form <= (n-1)/(k-1) C(k, s) at k = circumference, and path form
    <= (n/k) C(k, s) at k = 1 + max p. The cycle side is skipped when k <= 1;
    the path side only on the empty graph. Both sides come from one
    ``RightSides``, and each verdict is an integer comparison."""
    if s < 2:
        raise ValueError(f"dominance needs clique order >= 2, got {s}")
    sides = RightSides(g, w)
    report: dict = {"s": s}
    k_cyc = w.circumference
    if k_cyc <= 1:
        report["cycle"] = {"skipped": True, "k": k_cyc}
    else:
        cap_num = (g.n - 1) * binom(k_cyc, s)
        report["cycle"] = _dominance(k_cyc, sides.cycle_form(s), cap_num, k_cyc - 1)
    k_path = 1 + max(w.p, default=0)
    if g.n == 0:
        report["path"] = {"skipped": True, "k": k_path}
    else:
        report["path"] = _dominance(k_path, sides.path_form(s), g.n * binom(k_path, s), k_path)
    report["ok"] = all(side.get("ok", True) for side in (report["cycle"], report["path"]))
    return report


def _dominance(k: int, rhs: tuple[int, int], cap_num: int, cap_den: int) -> dict:
    """One side of ``luo_dominance``: the right side ``rhs`` as (numerator,
    denominator) against the cap ``cap_num / cap_den``, cross-multiplied."""
    num, den = rhs
    lhs, cap = num * cap_den, cap_num * den
    return {"skipped": False, "k": k, "rhs": Fraction(num, den),
            "cap": Fraction(cap_num, cap_den), "ok": lhs <= cap, "tight": lhs == cap}

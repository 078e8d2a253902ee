"""Exact-rational evaluation of the two vertex-localized clique bounds.

Bound 1 (cycle form):  N(G, K_s) <= sum_v C(c(v), s)/(c(v)-1) minus one term
taken at the circumference. Bound 2 (path form):  N(G, K_s) <=
(1/s) sum_v C(p(v), s-1). Equality classes are recognized structurally and
both bounds dominate the classical global path/cycle bounds.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cliques import binom, count_cliques
from .extremal import extremal_predicate, heavy_cycle_set, heavy_path_set
from .graphs import Graph, write_graph6
from .weights import VertexWeights, compute_weights


def thm1_rhs(g: Graph, s: int, w: VertexWeights) -> Fraction:
    """Cycle-form right side, summed over the tally of distinct weights. The
    subtracted term depends only on the maximum weight, so the choice among
    maximizing vertices is irrelevant: it takes one vertex off that tally."""
    if s < 1:
        raise ValueError(f"clique order must be >= 1, got {s}")
    if g.n == 0:
        return Fraction(0)
    tally = Counter(w.c)
    tally[w.circumference] -= 1
    return sum((Fraction(k * binom(c, s), c - 1) for c, k in tally.items()), Fraction(0))


def thm2_rhs(g: Graph, s: int, w: VertexWeights) -> Fraction:
    """Path-form right side, (1/s) sum_v C(p(v), s-1), summed over the tally
    of distinct weights."""
    if s < 1:
        raise ValueError(f"clique order must be >= 1, got {s}")
    return Fraction(sum(k * binom(p, s - 1) for p, k in Counter(w.p).items()), s)


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: exact sides, gap, equality flag, the structural
    predicate verdict, and whether the two agree. ``in_scope`` is False only
    for the degenerate cycle-form case s=1 on a single vertex, where the
    stated right side is an empty sum. ``ok`` is the verdict every checker
    reads."""

    theorem: int
    s: int
    graph: Graph
    lhs: int
    rhs: Fraction
    gap: Fraction
    equality: bool
    extremal: bool
    consistent: bool
    in_scope: bool = True

    @property
    def ok(self) -> bool:
        """The violation rule: in scope, the bound holds and equality holds
        exactly when the predicate does; out of scope, nothing is claimed."""
        return not self.in_scope or (self.gap >= 0 and self.consistent)

    @property
    def graph6(self) -> str:
        """The graph as graph6, written when read."""
        return write_graph6(self.graph)

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "s": self.s,
            "graph6": self.graph6,
            "lhs": self.lhs,
            "rhs_num": self.rhs.numerator,
            "rhs_den": self.rhs.denominator,
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
    g: Graph, s: int, theorem: int, w: VertexWeights, lhs: int, extremal: bool | None = None
) -> BoundReport:
    """Evaluate one bound on g from its weights ``w`` and its s-clique count
    ``lhs``, both computed once by the caller for every theorem it checks.
    ``extremal`` is the predicate's verdict when the caller has already
    decided it on the same heavy set; by default it is decided here."""
    if theorem not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {theorem}")
    rhs = thm1_rhs(g, s, w) if theorem == 1 else thm2_rhs(g, s, w)
    gap = rhs - lhs
    in_scope = not (theorem == 1 and s == 1 and g.n == 1)
    if extremal is None:
        extremal = extremal_predicate(g, s, theorem, w)
    equality = gap == 0
    consistent = (equality == extremal) if in_scope else True
    return BoundReport(theorem, s, g, lhs, rhs, gap, equality, extremal, consistent, in_scope)


def reduction_invariance(g: Graph, s: int, theorem: int, w: VertexWeights) -> dict:
    """Dropping light vertices changes nothing: the heavy-set induced subgraph
    has the same clique count, the same right side (heavy weights survive
    induction because their witness paths/cycles stay inside the heavy set),
    and hence the same equality status."""
    heavy = heavy_cycle_set(g, s, w) if theorem == 1 else heavy_path_set(g, s, w)
    sub = g.induced(sorted(heavy))
    w_sub = compute_weights(sub)
    lhs = count_cliques(g, s)
    lhs_sub = count_cliques(sub, s)
    rhs = thm1_rhs(g, s, w) if theorem == 1 else thm2_rhs(g, s, w)
    rhs_sub = thm1_rhs(sub, s, w_sub) if theorem == 1 else thm2_rhs(sub, s, w_sub)
    failures = []
    if lhs != lhs_sub:
        failures.append({"check": "clique_count", "full": lhs, "heavy": lhs_sub})
    if rhs != rhs_sub:
        failures.append({"check": "rhs", "full": str(rhs), "heavy": str(rhs_sub)})
    if (rhs - lhs == 0) != (rhs_sub - lhs_sub == 0):
        failures.append({"check": "equality_status"})
    return {
        "theorem": theorem,
        "s": s,
        "heavy_size": len(heavy),
        "failures": failures,
        "ok": not failures,
    }


def luo_dominance(g: Graph, s: int, w: VertexWeights) -> dict:
    """Both localized right sides refine the classical global bounds:
    cycle form <= (n-1)/(k-1) C(k, s) at k = circumference, and path form
    <= (n/k) C(k, s) at k = 1 + max p. The cycle side is skipped when k <= 1;
    the path side only on the empty graph."""
    if s < 2:
        raise ValueError(f"dominance needs clique order >= 2, got {s}")
    report: dict = {"s": s}
    k_cyc = w.circumference
    if k_cyc <= 1:
        report["cycle"] = {"skipped": True, "k": k_cyc}
    else:
        cap = Fraction((g.n - 1) * binom(k_cyc, s), k_cyc - 1)
        rhs = thm1_rhs(g, s, w)
        report["cycle"] = {
            "skipped": False,
            "k": k_cyc,
            "rhs": rhs,
            "cap": cap,
            "ok": rhs <= cap,
            "tight": rhs == cap,
        }
    k_path = 1 + max(w.p, default=0)
    if g.n == 0:
        report["path"] = {"skipped": True, "k": k_path}
    else:
        cap = Fraction(g.n * binom(k_path, s), k_path)
        rhs = thm2_rhs(g, s, w)
        report["path"] = {
            "skipped": False,
            "k": k_path,
            "rhs": rhs,
            "cap": cap,
            "ok": rhs <= cap,
            "tight": rhs == cap,
        }
    report["ok"] = all(side.get("ok", True) for side in (report["cycle"], report["path"]))
    return report

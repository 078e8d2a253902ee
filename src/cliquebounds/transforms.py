"""Endpoint-rotation machinery for longest paths and the iterative peeling
decomposition built on it.

A rotation of a longest v0-path P = v0..vk along a chord (vj, vk), j <= k-2,
replaces the tail by v0..vj vk v(k-1)..v(j+1). Closing the set of paths
reachable by rotations yields the terminal set L, one representative path
per terminal, and the outside-neighbor sets S_v. Every rotation keeps the
base path's vertex set, so a closure builds its vertex mask once and tests
each terminal against it. Peeling repeatedly removes terminal sets and
isolated vertices until nothing is left, which splits every clique count
across stages; stage 0 is the whole input, so its graph is the input graph
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cliques import clique_counts
from .graphs import Graph, ResourceLimitError, iter_bits
from .weights import DEFAULT_DP_LIMIT, VertexWeights, compute_weights, longest_path_from

PathSeq = tuple[int, ...]

# Paths one rotation closure may hold before it gives up. A terminal clique
# block K_k has (k-1)! of them, so this caps peeling at k of about 10.
CLOSURE_BUDGET = 1_000_000


def _require_path(g: Graph, path) -> PathSeq:
    """``path`` as a tuple, once it is known to be a path of g: a sequence of
    distinct int vertex ids of g, each joined to the next by an edge."""
    path = tuple(path)
    if not path:
        raise ValueError("empty vertex sequence is not a path")
    for v in path:
        if type(v) is not int:
            raise ValueError(f"path vertex {v!r} is not an int")
    if len(set(path)) != len(path):
        raise ValueError(f"repeated vertex in path {path}")
    for v in path:
        if not 0 <= v < g.n:
            raise ValueError(f"path vertex {v} not in graph")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"path step {a}-{b} is not an edge")
    return path


def simple_transforms(g: Graph, path: PathSeq) -> list[PathSeq]:
    """All single rotations of a longest start-anchored path.

    The terminal's neighborhood must lie on the path (anything else means the
    path was extendable, violating the caller's longest-path certificate).
    """
    path = _require_path(g, path)
    return _rotations(g.adj, path, sum(1 << v for v in path))


def _rotations(adj, path: PathSeq, on_path: int) -> list[PathSeq]:
    """``simple_transforms`` of a sequence already known to be a path, whose
    vertex mask is ``on_path``. A rotation keeps the path's vertex set, so a
    closure validates only its base and builds the mask once."""
    terminal = path[-1]
    row = adj[terminal]
    off = row & ~on_path
    if off:
        u = (off & -off).bit_length() - 1
        raise ValueError(f"terminal {terminal} has neighbor {u} off the path; not a longest path")
    return [path[: j + 1] + path[:j:-1] for j in range(len(path) - 2) if row >> path[j] & 1]


@dataclass(frozen=True)
class TransformClosure:
    """Everything the rotation closure of one base path produces.
    ``terminal_set`` never contains the start vertex."""

    start: int
    base: PathSeq
    paths: tuple[PathSeq, ...]
    terminal_set: frozenset[int]
    representatives: dict[int, PathSeq]
    s_sets: dict[int, frozenset[int]]


def transform_closure(g: Graph, path: PathSeq) -> TransformClosure:
    """Breadth-first closure of a longest v0-path under single rotations.

    Paths are deduplicated by full vertex sequence, not by endpoint: distinct
    sequences with the same terminal can expose different chords later. The
    base is validated once, and its vertex mask, which every rotation keeps,
    is built once; each path's terminal is still checked for a neighbor off
    that mask, so a base that is not a longest path raises ValueError. A
    closure past ``CLOSURE_BUDGET`` paths raises ResourceLimitError.
    """
    path = _require_path(g, path)
    adj = g.adj
    on_path = sum(1 << v for v in path)
    start = path[0]
    seen: set[PathSeq] = {path}
    order: list[PathSeq] = [path]
    reps: dict[int, PathSeq] = {}
    if path[-1] != start:
        reps[path[-1]] = path
    for cur in order:  # the list grows as it is read: it is the queue
        for nxt in _rotations(adj, cur, on_path):
            if nxt in seen:
                continue
            if len(seen) >= CLOSURE_BUDGET:
                raise ResourceLimitError(
                    f"rotation closure exceeded budget of {CLOSURE_BUDGET} paths"
                )
            seen.add(nxt)
            order.append(nxt)
            term = nxt[-1]
            if term != start and term not in reps:
                reps[term] = nxt
    terminals = frozenset(reps)
    s_sets = {v: frozenset(u for u in g.neighbors(v) if u not in terminals) for v in reps}
    return TransformClosure(start, path, tuple(order), terminals, reps, s_sets)


def verify_closure_lemmas(g: Graph, tc: TransformClosure, weights: VertexWeights) -> dict:
    """Check the structural facts the closure is supposed to satisfy.

    Per terminal v with representative P_v (k edges, distances along P_v
    measured back from v), with cmin the least terminal weight:
      good_path          no neighbor of v at distance >= cmin
      back_window        every neighbor of v at distance <= c(v)-1
      terminals_in_back  every other terminal on P_v, none at distance
                         >= c(v)-1
      outside_bound      |S_v| <= c(v) - |L|
      degree_bound       d(v) <= |L|
      pivot_defined      k >= c(v)-1
    plus position invariance: the first |V(P)|-cmin+1 entries agree across
    every path in the closure.
    """
    failures: list[dict] = []
    terms = tc.terminal_set
    if terms:
        cmin = min(weights.c[v] for v in terms)
        nverts = len(tc.base)
        fixed = max(0, nverts - cmin + 1)
        prefix = tc.base[:fixed]
        for p in tc.paths:
            if p[:fixed] != prefix:
                failures.append(
                    {"check": "position_invariance", "path": p, "expected_prefix": prefix}
                )
        for v in sorted(terms):
            rep = tc.representatives[v]
            k = len(rep) - 1
            pos = {u: i for i, u in enumerate(rep)}
            cv = weights.c[v]
            if k < cv - 1:
                failures.append({"check": "pivot_defined", "terminal": v, "c": cv, "k": k})
            for u in g.neighbors(v):
                if u not in pos:
                    failures.append({"check": "back_window", "terminal": v, "neighbor": u})
                    continue
                dist = k - pos[u]
                if dist >= cmin:
                    failures.append(
                        {"check": "good_path", "terminal": v, "neighbor": u, "dist": dist}
                    )
                if dist > cv - 1:
                    failures.append(
                        {"check": "back_window", "terminal": v, "neighbor": u, "dist": dist}
                    )
            for u in terms:
                if u not in pos:
                    failures.append({"check": "terminals_in_back", "terminal": v, "other": u})
                    continue
                dist = k - pos[u]
                if dist >= cv - 1 and u != v:
                    failures.append(
                        {"check": "terminals_in_back", "terminal": v, "other": u, "dist": dist}
                    )
            if len(tc.s_sets[v]) > cv - len(terms):
                failures.append(
                    {"check": "outside_bound", "terminal": v,
                     "s_size": len(tc.s_sets[v]), "c": cv, "l_size": len(terms)}
                )
            if g.degree(v) > len(terms):
                failures.append(
                    {"check": "degree_bound", "terminal": v,
                     "degree": g.degree(v), "l_size": len(terms)}
                )
    return {"failures": failures, "ok": not failures}


@dataclass(frozen=True)
class PeelStage:
    """One live stage: its original-id vertex list, the dense induced graph,
    the start vertex, base path and terminal set (all original ids), plus the
    stage's weights and rotation closure (both in the dense graph's ids).
    Peeling and its verifier read only the weights' c, so the p pass of
    ``weights`` runs only if a reader of the trace asks for p."""

    vertices: tuple[int, ...]
    graph: Graph
    start: int
    path: PathSeq
    terminals: frozenset[int]
    weights: VertexWeights
    closure: TransformClosure


@dataclass(frozen=True)
class PeelTrace:
    graph: Graph
    start: int | None
    stages: tuple[PeelStage, ...]


def peel(g: Graph, u: int | None = None, dp_limit: int = DEFAULT_DP_LIMIT) -> PeelTrace:
    """Run the iterative terminal-set removal starting from a heaviest vertex.

    Stage i takes a longest x-path in the live graph, removes the closure's
    terminal set, then drops isolated vertices. x starts at ``u``, which must
    be a heaviest vertex; x is chosen (max stage weight, lowest id on ties)
    when ``u`` is omitted and again each time it has been removed. Stage 0
    is all of g, so its graph is g itself, not an induced copy.

    ``dp_limit`` reaches only each stage's ``compute_weights``; a non-clique
    block of a stage lies in one of g, so it refuses peel just when it
    refuses the weights of g.
    """
    if u is not None and not 0 <= u < g.n:
        raise ValueError(f"start vertex {u} not in graph")
    if g.n == 0:
        return PeelTrace(g, u, ())
    stages: list[PeelStage] = []
    mask = g.full_mask
    x = u
    while mask:
        live = list(iter_bits(mask))
        dense = g if mask == g.full_mask else g.induced(live)
        w = compute_weights(dense, dp_limit)
        if x not in live:  # u omitted, or x removed by an earlier stage
            x = live[w.c.index(w.circumference)]
        elif not stages and w.c[x] != w.circumference:
            raise ValueError(
                f"start vertex {x} has weight {w.c[x]}, not the maximum {w.circumference}"
            )
        path_local = longest_path_from(dense, live.index(x))
        tc = transform_closure(dense, path_local)
        terminals = frozenset(live[i] for i in tc.terminal_set)
        stages.append(
            PeelStage(
                vertices=tuple(live),
                graph=dense,
                start=x,
                path=tuple(live[i] for i in path_local),
                terminals=terminals,
                weights=w,
                closure=tc,
            )
        )
        kept = mask & ~sum(1 << v for v in terminals)
        mask = sum(1 << v for v in iter_bits(kept) if g.adj[v] & kept)
    return PeelTrace(g, stages[0].start, tuple(stages))


def verify_peel_decomposition(g: Graph, trace: PeelTrace, orders: tuple[int, ...]) -> dict:
    """Exact split of the s-clique count across stages, plus stage-weight
    monotonicity against the input graph and the trace bookkeeping rules,
    for every order s >= 2 in ``orders``, in one pass. A smaller order is a
    ValueError, since no split holds there: the start vertex, a 1-clique,
    is never a terminal, and the empty clique meets no terminal set. The
    input graph's weights are read from stage 0, which must be g. Each
    stage's cliques are counted in g on the stage's vertex mask, with one
    pair of expansions at the top order, or at n when that is less, since g
    has no larger clique; a stage vertex that is not a vertex of g is a
    failure, not part of the mask. The result maps each order to the report
    that order alone gives."""
    if not orders:
        raise ValueError("need at least one clique order")
    if min(orders) < 2:
        raise ValueError(f"clique order must be >= 2, got {min(orders)}")
    top = min(max(orders), g.n)
    failures: list[dict] = []
    stage0 = trace.stages[0] if trace.stages else None
    is_input = (
        stage0 is not None and stage0.vertices == tuple(range(g.n)) and stage0.graph == g
    )
    if g.n and not is_input:
        failures.append({"check": "stage0_is_input"})
    base_c = stage0.weights.c if is_input else ()
    totals = [0] * (top + 1)
    seen_terminals: set[int] = set()
    for i, stage in enumerate(trace.stages):
        inside = [v for v in stage.vertices if 0 <= v < g.n]
        if len(inside) < len(stage.vertices):
            failures.append({"check": "stage_vertices_in_graph", "stage": i})
        live = sum(1 << v for v in inside)
        # a negative id is in no stage: left out of the mask, named below
        touch = sum(1 << v for v in stage.terminals if v >= 0)
        if touch & ~live or min(stage.terminals, default=0) < 0:
            failures.append({"check": "terminals_in_stage", "stage": i})
        if touch:
            # cliques touching the terminals: all of them less those avoiding them
            whole = clique_counts(g, top, live)
            avoiding = clique_counts(g, top, live & ~touch)
            totals = [t + a - b for t, a, b in zip(totals, whole, avoiding)]
        overlap = seen_terminals.intersection(stage.terminals)
        if overlap:
            failures.append({"check": "terminals_disjoint", "stage": i, "overlap": sorted(overlap)})
        seen_terminals.update(stage.terminals)
        if trace.start in stage.terminals:
            failures.append({"check": "start_never_terminal", "stage": i})
        for v, cw in zip(stage.vertices, stage.weights.c):
            if is_input and 0 <= v < g.n and cw > base_c[v]:
                failures.append(
                    {"check": "weight_monotone", "stage": i, "vertex": v,
                     "stage_weight": cw, "base_weight": base_c[v]}
                )
    counts = clique_counts(g, top)
    reports = {}
    for order in orders:
        lhs, total = (counts[order], totals[order]) if order <= top else (0, 0)
        split = [] if lhs == total else [{"check": "clique_split", "lhs": lhs, "stage_sum": total}]
        reports[order] = {"s": order, "clique_count": lhs, "stage_sum": total,
                          "failures": failures + split, "ok": not failures and not split}
    return reports

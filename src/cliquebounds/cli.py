"""Command-line front end.

Subcommands: weights (TSV of per-vertex p and c), check (JSON-lines bound
reports), sweep (exhaustive verification summary), gen (extremal-family
generators), peel (stage trace plus decomposition verdict).

Exit codes: 0 all checks consistent, 1 mathematical inconsistency found,
2 usage, input, or resource error.

``main(argv)`` may be called repeatedly in one process: it builds its parser
on the first call and reuses it, since parsing leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from functools import cache

from .bounds import check_theorem
from .cliques import block_clique_counts
from .graphs import (
    BlockSpec,
    Graph,
    GraphParseError,
    ResourceLimitError,
    ascii_int,
    generate_pdbg,
    random_clique_forest,
    read_graphs,
    write_graph6,
)
from .oracle import exhaustive_verify
from .transforms import peel, verify_peel_decomposition
from .weights import DEFAULT_DP_LIMIT, compute_weights

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


def _read_graphs(source: str) -> Iterator[Graph]:
    with nullcontext(sys.stdin.buffer) if source == "-" else open(source, "rb") as fh:
        yield from read_graphs(fh)


def cmd_weights(args) -> int:
    for g in _read_graphs(args.input):
        w = compute_weights(g, dp_limit=args.dp_limit)
        for v in range(g.n):
            print(f"{v}\t{w.p[v]}\t{w.c[v]}")
        print(f"circumference\t{w.circumference}")
    return EXIT_OK


def cmd_check(args) -> int:
    status = EXIT_OK
    for g in _read_graphs(args.input):
        w = compute_weights(g, dp_limit=args.dp_limit)
        # no graph has a clique of more than n vertices
        lhs = block_clique_counts(g, args.s, w)[args.s] if args.s <= g.n else 0
        rep = check_theorem(g, args.s, args.theorem, w, lhs)
        print(rep.to_json())
        if not rep.ok:
            status = EXIT_INCONSISTENT
    return status


def cmd_sweep(args) -> int:
    summary = exhaustive_verify(args.n, args.s)
    print(json.dumps(summary))
    return EXIT_OK if summary["ok"] else EXIT_INCONSISTENT


def _parse_pdbg_spec(text: str) -> BlockSpec:
    try:
        orders = tuple(ascii_int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad block spec {text!r}, expected comma-separated orders") from None
    return BlockSpec(orders)


def _parse_forest_params(text: str, seed: int | None) -> Graph:
    count_s, _, order_s = text.partition("x")
    lo_s, ranged, hi_s = order_s.partition("-")
    try:
        count, lo = ascii_int(count_s), ascii_int(lo_s)
        hi = ascii_int(hi_s) if ranged else lo
    except ValueError:
        raise ValueError(f"bad clique-forest params {text!r}") from None
    if ranged and seed is None:
        raise ValueError("random clique forest needs an explicit --seed")
    return random_clique_forest(count, lo, hi, 0 if seed is None else seed)


def cmd_gen(args) -> int:
    if args.pdbg is not None:
        spec = _parse_pdbg_spec(args.pdbg)
        g = generate_pdbg(spec)
        theorem = 1
    else:
        g = _parse_forest_params(args.clique_forest, args.seed)
        theorem = 2
    print(write_graph6(g))
    if args.self_check:
        # generated families are extremal block forests, whose clique blocks
        # run no subset DP at any size the graph type allows, and every bound
        # must be tight
        w = compute_weights(g)
        counts = block_clique_counts(g, 4, w)
        for s in (2, 3, 4):
            rep = check_theorem(g, s, theorem, w, counts[s])
            if not (rep.equality and rep.ok):
                print(
                    json.dumps({"self_check": "failed", "s": s, "gap": str(rep.gap),
                                "extremal": rep.extremal}),
                    file=sys.stderr,
                )
                return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_peel(args) -> int:
    status = EXIT_OK
    for g in _read_graphs(args.input):
        trace = peel(g, args.start, dp_limit=args.dp_limit)
        if args.trace:
            for i, st in enumerate(trace.stages):
                print(
                    json.dumps(
                        {
                            "stage": i,
                            "graph6": write_graph6(st.graph),
                            "x": st.start,
                            "path": list(st.path),
                            "terminals": sorted(st.terminals),
                        }
                    )
                )
        reports = verify_peel_decomposition(g, trace, (2, 3, 4))
        verdicts = {s: rep["ok"] for s, rep in reports.items()}
        ok = all(verdicts.values())
        print(json.dumps({"stages": len(trace.stages), "identity": verdicts, "ok": ok}))
        if not ok:
            status = EXIT_INCONSISTENT
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquebounds",
        description="Exact verification of vertex-localized clique-count bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="per-vertex longest-path/cycle weights as TSV")
    p.add_argument("input", nargs="?", default="-", help="graph6 lines or edge-list file; - for stdin")
    p.add_argument("--dp-limit", type=ascii_int, default=DEFAULT_DP_LIMIT)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("check", help="evaluate one localized bound per input graph")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--theorem", type=ascii_int, choices=(1, 2), required=True)
    p.add_argument("--s", type=ascii_int, required=True)
    p.add_argument("--dp-limit", type=ascii_int, default=DEFAULT_DP_LIMIT)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="exhaustive verification over isomorphism classes")
    p.add_argument("--n", type=ascii_int, required=True)
    p.add_argument("--s", type=ascii_int, default=5)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="emit extremal-family graphs as graph6")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pdbg", help="comma-separated block orders, path-shaped tree")
    group.add_argument("--clique-forest", help="COUNTxORDER or COUNTxLO-HI (random, needs --seed)")
    p.add_argument("--seed", type=ascii_int)
    p.add_argument("--self-check", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("peel", help="terminal-set peeling trace and split verdict")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--start", type=ascii_int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--dp-limit", type=ascii_int, default=DEFAULT_DP_LIMIT)
    p.set_defaults(func=cmd_peel)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "s", 1) < 1:
        print("clique order must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "dp_limit", 0) < 0:
        print("dp limit must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (GraphParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

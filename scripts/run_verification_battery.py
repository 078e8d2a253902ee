#!/usr/bin/env python3
"""Run the full verification battery and print a sectioned report.

Usage: python scripts/run_verification_battery.py [--n-max N] [--s-max S] [--quick]

Sections:
  1. exhaustive bound verification over isomorphism classes
  2. labeled cross-check of the enumerator (n = 5)
  3. rotation-closure lemmas and peeling decomposition
  4. identity grids (convolution, shift, monotonicity, merge bound)
  5. classical-bound dominance
  6. longest-path endpoint and ratio-chain claims
Exit code 0 when every section is clean, 1 otherwise.
"""

import argparse
import sys
import time

from cliquebounds import (
    classical_bound_dominance,
    closure_and_peel_lemmas,
    exhaustive_verify,
    identity_grid,
    labeled_crosscheck,
    path_proof_claims,
)


def banner(title):
    print("\n" + "=" * 72)
    print(f"  {title}")
    print("=" * 72)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--s-max", type=int, default=5)
    parser.add_argument("--quick", action="store_true", help="n-max 5 and 100 random graphs")
    parser.add_argument("--random-graphs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=424242)
    args = parser.parse_args()
    if args.quick:
        args.n_max = min(args.n_max, 5)
        args.random_graphs = min(args.random_graphs, 100)

    t_start = time.time()
    all_ok = True

    banner(f"1. Exhaustive bound verification, n <= {args.n_max}, s <= {args.s_max}")
    t0 = time.time()
    summary = exhaustive_verify(args.n_max, args.s_max)
    all_ok &= summary["ok"]
    print(f"  graphs: {summary['graphs_total']}  violations: {len(summary['violations'])}"
          f"  degenerate: {summary['degenerate_cases']}  [{time.time()-t0:.1f}s]")
    per_n = summary["graphs"]
    print("  classes per n:", " ".join(f"{n}:{per_n[n]}" for n in sorted(per_n)))
    for v in summary["violations"][:5]:
        print("  VIOLATION:", v)

    banner("2. Labeled cross-check of the enumerator (n = 5)")
    t0 = time.time()
    lc = labeled_crosscheck(5)
    all_ok &= lc["ok"]
    print(f"  labeled graphs: {lc['labeled_total']}  classes: {lc['classes']}"
          f"  mismatches: {len(lc['canonicalizer_mismatches'])}  [{time.time()-t0:.1f}s]")

    banner("3. Rotation-closure lemmas and peeling decomposition")
    t0 = time.time()
    cp = closure_and_peel_lemmas(args.n_max, args.random_graphs, args.seed)
    all_ok &= cp["ok"]
    print(f"  graphs checked: {cp['graphs_checked']} ({args.random_graphs} random)"
          f"  failures: {len(cp['failures'])}  [{time.time()-t0:.1f}s]")
    for w6 in cp["failures"][:5]:
        print("  FAILURE:", w6)

    banner("4. Identity grids")
    t0 = time.time()
    grid = identity_grid()
    all_ok &= grid["ok"]
    print(f"  cells: {grid['cells']}  failures: {len(grid['failures'])}  [{time.time()-t0:.1f}s]")

    banner("5. Classical-bound dominance")
    t0 = time.time()
    dom = classical_bound_dominance(args.n_max)
    all_ok &= dom["ok"]
    print(f"  graphs: {dom['checked']}  violations: {len(dom['failures'])}"
          f"  [{time.time()-t0:.1f}s]")
    for failure in dom["failures"][:5]:
        print("  VIOLATION:", failure)

    banner("6. Longest-path endpoint and ratio-chain claims")
    t0 = time.time()
    pc = path_proof_claims(args.n_max)
    all_ok &= pc["ok"]
    print(f"  graphs: {pc['graphs_checked']}  longest paths: {pc['longest_paths_checked']}"
          f"  chain cells: {pc['chain_cells']}  failures: {len(pc['failures'])}"
          f"  [{time.time()-t0:.1f}s]")

    banner("SUMMARY")
    print(f"  {'ALL SECTIONS CLEAN' if all_ok else '*** FAILURES DETECTED ***'}"
          f"  (total {time.time()-t_start:.1f}s)")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the cliquebounds command line, end to end and per layer.

    python3 bench/run.py --workload check_blocky --seed 0 --seconds 36 --trace 0

Each workload drives ``cliquebounds.cli.main(argv)`` in a fresh interpreter
(bench/worker.py), one invocation at a time, on inputs generated from the
seed by bench/gen.py. With ``--trace 0`` it measures for ``--seconds`` and
reports the end-to-end metrics; their times are at the reference speed of
the machine-speed probe (bench/probe.py), so that a slow spell of the
shared host during a run does not read as a slower program. Set-up time is
scaled by one probe reading taken right after the import. With
``--trace 1`` it runs a fixed input (one sweep, or the first PREFIX_CHUNKS
chunks of bench/worker.py) once untraced and once traced and reports the
per-layer metrics, so per-layer totals describe the same input on every
commit however fast it runs.
Every metric, with its unit, quartiles and sample count, goes to stderr as
a table and to stdout as one JSON run record; the last stdout line is the
result object
``{"correct", "attempted", "failed", "metrics"}``. Exit code 0 when every
output check passed, 1 when one failed, 2 when the checkout has no source.

At the default seed the digests of the first PREFIX_CHUNKS chunks' inputs
and outputs must equal bench/expected.json. After an intended output change
the new digests are the ``prefix_*_digest`` fields printed by
``python3 bench/worker.py --workload W --seed 0``.

Workloads:
  sweep         sweep --n 7 --s 5: every class with n <= 7; the seed does
                not apply. One fresh interpreter per sweep, since users pay
                the enumeration on every run.
  check_blocky  check --theorem 1|2 --s 3 on block-glued graphs and
                disjoint unions, n 15..18, small blocks: the 2^n subset DP
                dominates; exact families (both recognizers true) and
                perturbed ones (false).
  peel          peel --trace on connected G(n, m) graphs, n 6..11: rotation
                closures, peeling, repeated weight computations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("sweep", "check_blocky", "peel")
DEFAULT_SEED = 0
# Set-up spawns at each end of a run. The machine's speed drifts over
# seconds, so half run before the measured phases and half after: their
# median then spans the run, not the few seconds around its start.
SETUP_SPAWNS = 6
# Whole-run limit: a run must print its result within 180 s.
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
from probe import REF_READING_S  # noqa: E402
from tracer import LAYERS  # noqa: E402


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its result and its spawn time (monotonic)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args[:2]} exceeded the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-1000:]}")
    try:
        return json.loads(lines[-1]), started
    except ValueError:
        raise WorkerError(f"worker {args[:2]} printed no result: {proc.stdout[-500:]}") from None


def setup_seconds(deadline: float) -> list[float]:
    spawn(["--setup"], deadline)  # warm-up: bytecode cache and page cache
    out = []
    for _ in range(SETUP_SPAWNS):
        result, started = spawn(["--setup"], deadline)
        out.append((result["imported_at"] - started) * REF_READING_S / result["probe_reading_s"])
    return out


def phase(workload: str, seed: int, budget: float, trace: bool, work_dir: str, deadline: float) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--budget", repr(budget), "--work-dir", work_dir]
    return spawn(args + (["--trace"] if trace else []), deadline)[0]


def sweeps(budget: float, work_dir: str, deadline: float) -> list[dict]:
    """Fresh-interpreter sweeps until the next one would overrun the budget."""
    out = [phase("sweep", 0, 0, False, work_dir, deadline)]
    while True:
        spent = [r["chunks"][0]["seconds"] for r in out]
        if sum(spent) + statistics.median(spent) > budget:
            return out
        out.append(phase("sweep", 0, 0, False, work_dir, deadline))


def merge(results: list[dict]) -> dict:
    merged = {"chunks": [], "samples_ms": [], "attempted": 0, "failed": 0, "failures": [], "maxrss_kb": [],
              "probe_reading_ms": []}
    for r in results:
        merged["chunks"] += r["chunks"]
        merged["samples_ms"] += r["samples_ms"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        merged["failures"] += r["failures"]
        merged["maxrss_kb"].append(r["maxrss_kb"])
        merged["probe_reading_ms"].append(r.get("probe_reading_ms"))
    return merged


# ---------------------------------------------------------------------------
# Statistics and metric assembly
# ---------------------------------------------------------------------------

def summary(values: list[float], unit: str, value: float | None = None) -> dict:
    """A metric with its median (or given value), quartiles and count."""
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0] if values else 0.0
    return {"value": q2 if value is None else value, "unit": unit, "q1": q1, "q3": q3, "count": len(values)}


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(runs: dict, setup: list[float]) -> dict:
    """Time figures at the probe's reference speed (bench/probe.py), except
    graphs_per_s_measured, which is in measured seconds and is kept in the
    run record only."""
    rates = [c["graphs"] / c["ref_seconds"] for c in runs["chunks"] if c["ref_seconds"] > 0]
    # Graphs over timed seconds, not the median chunk rate: the machine's
    # speed flips between states over seconds, and a median of chunk rates
    # jumps with whichever state held for half the run.
    graphs = sum(c["graphs"] for c in runs["chunks"])
    ref = sum(c["ref_seconds"] for c in runs["chunks"])
    measured = sum(c["seconds"] for c in runs["chunks"])
    samples = runs["samples_ms"]
    rss = [kb / 1024 for kb in runs["maxrss_kb"]]
    return {
        "graphs_per_s": summary(rates, "graphs/s", graphs / ref),
        "graphs_per_s_measured": {"value": graphs / measured, "unit": "graphs/s"},
        "graph_ms_p50": summary(samples, "ms", percentile(samples, 50)),
        "graph_ms_p90": summary(samples, "ms", percentile(samples, 90)),
        "setup_s": summary(setup, "s"),
        "peak_rss_mb": summary(rss, "MiB"),
        "failed_frac": {"value": runs["failed"] / max(runs["attempted"], 1), "unit": "frac",
                        "count": runs["attempted"]},
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    tr = traced["trace"]
    graphs = max(tr["graphs"], 1)
    wall = tr["wall_s"]
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    module_self = {module: 0.0 for module in LAYERS}
    for name, f in tr["functions"].items():
        put(f"{name}.calls", f["calls"], "count")
        put(f"{name}.self_s", f["self_s"], "s")
        module_self[name.split(".")[0]] += f["self_s"]
    module_self["cli"] = tr["cli_self_s"]
    for module, self_s in module_self.items():
        put(f"{module}.self_s", self_s, "s")
        put(f"{module}.share", self_s / wall if wall else 0.0, "frac")
    fn = tr["functions"]
    cw_calls = fn["weights.compute_weights"]["calls"]
    cc_calls = fn["cliques.count_cliques"]["calls"]
    put("weights.compute_weights.per_graph", cw_calls / graphs, "calls/graph")
    put("weights.compute_weights.unique_frac", tr["weights_unique"] / cw_calls if cw_calls else 0.0, "frac")
    put("cliques.count_cliques.unique_frac", tr["cliques_unique"] / cc_calls if cc_calls else 0.0, "frac")
    put("extremal.block_decomposition.per_graph",
        fn["extremal.block_decomposition"]["calls"] / graphs, "calls/graph")
    put("transforms.closure_paths", tr["closure_paths"], "count")
    put("transforms.peel_stages", tr["peel_stages"], "count")
    put("graphs.classes", tr["classes"], "count")
    untraced_s = sum(c["seconds"] for c in untraced["chunks"])
    traced_s = sum(c["seconds"] for c in traced["chunks"])
    put("trace_overhead_frac", (traced_s - untraced_s) / untraced_s if untraced_s else 0.0, "frac")
    put("trace.wall_s", wall, "s")
    put("trace.graphs", tr["graphs"], "count")
    put("trace.absent", len(tr["absent"]), "count")
    props = tr.get("inputs") or traced.get("inputs") or {}
    put("inputs.count", props.get("count", 0), "count")
    put("inputs.n_median", props.get("n_median", 0), "vertices")
    put("inputs.max_block_frac_median", props.get("max_block_frac_median", 0), "frac")
    return metrics


# ---------------------------------------------------------------------------
# Run metadata and expected outputs
# ---------------------------------------------------------------------------

def load_average() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def digest_failures(workload: str, seed: int, result: dict) -> tuple[int, list[str]]:
    """At the default seed, the prefix's input and output digests must equal
    the stored ones; a mismatch fails every attempt the prefix covers."""
    with open(EXPECTED, encoding="ascii") as fh:
        expected = json.load(fh)
    want = expected.get(workload)
    if seed != expected["seed"] or not want or workload == "sweep":
        return 0, []
    got = {"input": result["prefix_input_digest"], "output": result["prefix_output_digest"]}
    bad = [key for key in ("input", "output") if got[key] != want[key]]
    if not bad:
        return 0, []
    return result["prefix_attempted"], [f"{key} digest {got[key]} != expected {want[key]}" for key in bad]


# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: int, trace: bool, work_dir: str, deadline: float) -> dict:
    setup = setup_seconds(deadline)
    if trace:
        # budget 0: one sweep, or exactly the prefix chunks, in both passes
        untraced = [phase(workload, seed, 0, False, work_dir, deadline)]
        traced = [phase(workload, seed, 0, True, work_dir, deadline)]
    elif workload == "sweep":
        untraced, traced = sweeps(seconds, work_dir, deadline), []
    else:
        untraced, traced = [phase(workload, seed, seconds, False, work_dir, deadline)], []
    setup += setup_seconds(deadline)
    everything = merge(untraced + traced)
    failed, failures = everything["failed"], everything["failures"]
    for result in untraced + traced:
        n_bad, reasons = digest_failures(workload, seed, result)
        failed += n_bad
        failures += reasons
    if traced and traced[0]["output_digest"] != untraced[0]["output_digest"]:
        failed += traced[0]["attempted"]
        failures.append("traced output differs from untraced output")
    failed = min(failed, everything["attempted"])
    metrics = end_to_end(merge(untraced), setup)
    metrics["failed_frac"]["value"] = failed / max(everything["attempted"], 1)
    first = untraced[0]
    record = {
        "attempted": everything["attempted"],
        "failed": failed,
        "failures": failures[:10],
        "metrics": metrics,
        "digests": {key: first.get(key) for key in
                    ("input_digest", "output_digest", "prefix_input_digest", "prefix_output_digest")},
        "inputs": first.get("inputs"),
        "probe_reading_ms": [ms for ms in merge(untraced)["probe_reading_ms"] if ms],
    }
    if traced:
        record["per_layer"] = per_layer(untraced[0], traced[0])
        record["absent"] = traced[0]["trace"]["absent"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cliquebounds benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    if not os.path.isfile(os.path.join(ROOT, "src", "cliquebounds", "cli.py")):
        print(f"error: no cliquebounds source under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": git_sha(),
        "loadavg_1m_start": load_average(),
    }
    work_dir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir, deadline)
    except WorkerError as exc:
        record = {"metrics": {}, "attempted": 1, "failed": 1, "failures": [str(exc)]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    meta["loadavg_1m_end"] = load_average()
    record = {"meta": meta, **record}
    shown = record.get("per_layer", {}) if args.trace else record["metrics"]
    print(f"probe reading ms per phase (reference {1000 * REF_READING_S:g}): {record.get('probe_reading_ms')}",
          file=sys.stderr)
    for name, m in {**record["metrics"], **record.get("per_layer", {})}.items():
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['count']}" if "q1" in m else ""
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}{spread}", file=sys.stderr)
    for reason in record["failures"]:
        print(f"FAILED: {reason}", file=sys.stderr)
    correct = record["failed"] == 0
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in shown.items() if name not in ("failed_frac", "graphs_per_s_measured")},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

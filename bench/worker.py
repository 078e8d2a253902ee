"""One benchmark phase in a fresh interpreter.

Drives the documented entry point ``cliquebounds.cli.main(argv)`` in
process, with stdout captured line by line and time-stamped, as one closed
loop: the next invocation starts only after the previous one returned. The
inputs are written to a file by the benchmark's own generator; the program
sees only that file. Prints one JSON result line on its real stdout.

    python3 bench/worker.py --setup
    python3 bench/worker.py --workload check_blocky --seed 0 --budget 10 \
        --work-dir DIR [--trace]

A stream workload always runs its first PREFIX_CHUNKS chunks, then further
chunks until ``--budget`` timed seconds have passed; with the default
budget of 0 it runs exactly the prefix. The ``prefix_*_digest`` fields of
such a run at seed 0 are the digests stored in bench/expected.json.
Untraced phases run under the machine-speed probe of bench/probe.py, which
adds reference-speed times.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import cliquebounds  # noqa: E402  (set-up time ends when this import returns)

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from fractions import Fraction  # noqa: E402
from statistics import median  # noqa: E402

import gen  # noqa: E402
from cliquebounds.cli import main as cli_main  # noqa: E402
from probe import Probe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SWEEP_ARGV = ["sweep", "--n", "7", "--s", "5"]
# OEIS A000088: isomorphism classes of graphs on n = 1..7 vertices.
A000088 = {"1": 1, "2": 2, "3": 4, "4": 11, "5": 34, "6": 156, "7": 1044}
CHECK_S = 3
# Chunks every stream run processes, whatever its budget: the input of every
# traced run, and of the expected digests at the default seed.
PREFIX_CHUNKS = {"check_blocky": 8, "peel": 48}


class LineClock(io.TextIOBase):
    """Text sink that time-stamps every completed line."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._partial: list[str] = []

    def writable(self):
        return True

    def write(self, s):
        start = 0
        while True:
            end = s.find("\n", start)
            if end < 0:
                self._partial.append(s[start:])
                return len(s)
            self._partial.append(s[start:end])
            self.stamps.append(time.perf_counter())
            self.lines.append("".join(self._partial))
            self._partial = []
            start = end + 1


def invoke(argv, tracer=None) -> dict:
    """Run the CLI once; the timed region is exactly the ``main`` call."""
    out, err = LineClock(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = tracer.root(cli_main, argv) if tracer else cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed attempt, not a dead benchmark
            code = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
    return {"argv": argv, "code": code, "lines": out.lines, "stamps": out.stamps,
            "t0": t0, "t1": t1, "stderr": err.getvalue()[-2000:]}


def graph_stamps(inv: dict, is_graph_line) -> array:
    """Time stamps of the per-graph output lines of one invocation."""
    return array("d", (stamp for line, stamp in zip(inv["lines"], inv["stamps"]) if is_graph_line(line)))


def timed_spans(spans, probe=None) -> tuple[list[dict], list[float]]:
    """Seconds per chunk and ms per graph, from ``spans``: per chunk, its
    graph count and a ``(t0, t1, graph stamps)`` triple per invocation.

    A graph's time is the gap from the previous per-graph output line (the
    first from the start of the call). With a probe, its own time inside a
    gap or an invocation is taken out, and ``ref_seconds`` and the per-graph
    ms are at the probe's reference speed; without one they equal the
    measured time."""
    busy = probe.busy if probe else (lambda t0, t1: 0.0)
    scale = probe.scale if probe else (lambda t0, t1: 1.0)
    chunks, samples = [], array("d")
    for graphs, invocations in spans:
        measured = ref = 0.0
        for t0, t1, stamps in invocations:
            seconds = t1 - t0 - busy(t0, t1)
            measured += seconds
            ref += seconds * scale(t0, t1)
            prev = t0
            for stamp in stamps:
                samples.append(1000 * (stamp - prev - busy(prev, stamp)) * scale(prev, stamp))
                prev = stamp
        chunks.append({"graphs": graphs, "seconds": measured, "ref_seconds": ref})
    return chunks, list(samples)


# ---------------------------------------------------------------------------
# Output checks: each returns one failure reason (or None) per input graph
# ---------------------------------------------------------------------------

def _load(line: str):
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


def _exit_failure(inv: dict) -> str | None:
    if inv["code"] == 0:
        return None
    return f"exit code {inv['code']}: {inv['stderr'][-300:]}"


def check_reports(inv: dict, graphs: list[str], theorem: int, lhs_expected: list[int]) -> list:
    if reason := _exit_failure(inv):
        return [reason] * len(graphs)
    lines = inv["lines"]
    reasons = []
    for i, g6 in enumerate(graphs):
        rec = _load(lines[i]) if i < len(lines) else None
        if rec is None:
            reasons.append("missing or malformed report line")
        elif rec.get("theorem") != theorem or rec.get("s") != CHECK_S or rec.get("graph6") != g6:
            reasons.append(f"report does not match its input {g6}")
        elif rec.get("consistent") is not True or rec.get("in_scope", True) is not True:
            reasons.append(f"inconsistent verdict on {g6}")
        elif Fraction(rec["rhs_num"], rec["rhs_den"]) < rec["lhs"]:
            reasons.append(f"rhs < lhs on {g6}")
        elif rec["lhs"] != lhs_expected[i]:
            reasons.append(f"lhs {rec['lhs']} != {lhs_expected[i]} triangles on {g6}")
        else:
            reasons.append(None)
    if len(lines) > len(graphs) and reasons:
        reasons[-1] = reasons[-1] or "extra output lines"
    return reasons


def is_peel_summary(line: str) -> bool:
    return '"stages"' in line


def check_peel(inv: dict, graphs: list[str]) -> list:
    if reason := _exit_failure(inv):
        return [reason] * len(graphs)
    reasons: list = []
    stages: list[dict] = []
    for line in inv["lines"]:
        rec = _load(line)
        if rec is None:
            stages.append({"malformed": True})
        elif "stages" not in rec:
            stages.append(rec)
        else:
            g6 = graphs[len(reasons)] if len(reasons) < len(graphs) else None
            if g6 is None:
                reasons[-1] = reasons[-1] or "extra peel summary"
            elif rec.get("ok") is not True or not all(rec.get("identity", {}).values()):
                reasons.append(f"peel summary not ok on {g6}")
            elif rec.get("stages") != len(stages) or [st.get("stage") for st in stages] != list(range(len(stages))):
                reasons.append(f"stage lines do not match the summary on {g6}")
            elif not stages or stages[0].get("graph6") != g6:
                reasons.append(f"stage 0 is not the input graph {g6}")
            else:
                reasons.append(None)
            stages = []
    return reasons + ["missing peel summary"] * (len(graphs) - len(reasons))


def check_sweep(inv: dict) -> str | None:
    if reason := _exit_failure(inv):
        return reason
    rec = _load(inv["lines"][-1]) if inv["lines"] else None
    if rec is None:
        return "missing or malformed sweep summary"
    if rec.get("ok") is not True or rec.get("violations"):
        return "sweep reports violations"
    if rec.get("graphs") != A000088 or rec.get("graphs_total") != sum(A000088.values()):
        return f"class counts {rec.get('graphs')} differ from OEIS A000088"
    return None


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def input_properties(orders, block_fracs) -> dict:
    """Count, median order and median largest-block share of the inputs."""
    if not orders:
        return {"count": 0, "n_median": 0, "max_block_frac_median": 0}
    return {"count": len(orders), "n_median": median(orders), "max_block_frac_median": median(block_fracs)}


def run_sweep(tracer, probe=None) -> dict:
    with probe or contextlib.nullcontext():
        inv = invoke(SWEEP_ARGV, tracer)
    reason = check_sweep(inv)
    classes = sum(A000088.values())
    chunks, _ = timed_spans([(classes, [(inv["t0"], inv["t1"], ())])], probe)
    return {
        "chunks": chunks,
        "samples_ms": [1000 * chunks[0]["ref_seconds"] / classes],
        "attempted": 1,
        "failed": int(reason is not None),
        "failures": [reason] if reason else [],
        "input_digest": gen.digest(SWEEP_ARGV),
        "output_digest": gen.digest(inv["lines"]),
        "prefix_output_digest": gen.digest(inv["lines"]),
        "prefix_attempted": 1,
        "graphs": classes,
    }


def run_stream(workload, seed, budget, work_dir, tracer, probe=None, prefix=None) -> dict:
    """The first ``prefix`` chunks of the workload's stream (by default
    PREFIX_CHUNKS[workload]), then further chunks until ``budget`` timed
    seconds have passed. Outputs are hashed as they arrive, so the worker's
    own memory does not grow with the output."""
    if prefix is None:
        prefix = PREFIX_CHUNKS[workload]
    path = os.path.join(work_dir, f"{workload}-{os.getpid()}.g6")
    spans, failures = [], []
    orders, block_fracs = array("l"), array("d")
    attempted = failed = 0
    inputs, outputs = hashlib.sha256(), hashlib.sha256()
    prefix_digests = None
    timed = 0.0
    is_graph_line = is_peel_summary if workload == "peel" else (lambda line: True)
    busy = probe.busy if probe else (lambda t0, t1: 0.0)
    with probe or contextlib.nullcontext():
        while len(spans) < prefix or timed < budget:
            if len(spans) == prefix:
                prefix_digests = (inputs.hexdigest(), outputs.hexdigest(), attempted, maxrss_kb())
            pairs = gen.chunk(workload, seed, len(spans))
            graphs = [gen.graph6(n, adj) for n, adj in pairs]
            triangles = [gen.triangles(n, adj) for n, adj in pairs]
            orders.extend(n for n, _ in pairs)
            block_fracs.extend(gen.largest_block(n, adj) / n for n, adj in pairs)
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(graphs) + "\n")
            gen.feed(inputs, graphs)
            if workload == "peel":
                runs = [(["peel", "--trace", path], None)]
            else:
                runs = [(["check", "--theorem", str(t), "--s", str(CHECK_S), path], t) for t in (1, 2)]
            invocations = []
            for argv, theorem in runs:
                inv = invoke(argv, tracer)
                invocations.append((inv["t0"], inv["t1"], graph_stamps(inv, is_graph_line)))
                timed += inv["t1"] - inv["t0"] - busy(inv["t0"], inv["t1"])
                gen.feed(outputs, inv["lines"])
                if theorem is None:
                    reasons = check_peel(inv, graphs)
                else:
                    reasons = check_reports(inv, graphs, theorem, triangles)
                attempted += len(graphs)
                failed += sum(r is not None for r in reasons)
                failures += [r for r in reasons if r is not None][: max(0, 5 - len(failures))]
            spans.append((len(graphs), invocations))
    if prefix_digests is None:
        prefix_digests = (inputs.hexdigest(), outputs.hexdigest(), attempted, maxrss_kb())
    os.remove(path)
    chunks, samples = timed_spans(spans, probe)
    return {
        "chunks": chunks,
        "samples_ms": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "input_digest": inputs.hexdigest(),
        "output_digest": outputs.hexdigest(),
        "prefix_input_digest": prefix_digests[0],
        "prefix_output_digest": prefix_digests[1],
        "prefix_attempted": prefix_digests[2],
        "prefix_maxrss_kb": prefix_digests[3],
        "graphs": len(samples),
        "inputs": input_properties(orders, block_fracs),
    }


def trace_summary(tracer: Tracer, graphs: int) -> dict:
    self_s, wall = tracer.self_times()
    obs = tracer.observed
    funcs = {}
    for module, names in LAYERS.items():
        for func in names:
            name = f"{module}.{func}"
            funcs[name] = {"calls": tracer.calls.get(name, 0), "self_s": self_s.get(name, 0.0)}
    out = {
        "wall_s": wall,
        "cli_self_s": self_s["cli.main"],
        "functions": funcs,
        "absent": tracer.absent,
        "spans": len(tracer.span_start),
        "graphs": graphs,
        "weights_unique": len(obs.weights_keys),
        "cliques_unique": len(obs.clique_keys),
        "closure_paths": obs.closure_paths,
        "peel_stages": obs.peel_stages,
        "classes": len(obs.classes),
    }
    if obs.classes:
        graphs = [(n, list(adj)) for n, adj in obs.classes if n]
        out["inputs"] = input_properties([n for n, _ in graphs], [gen.largest_block(n, adj) / n for n, adj in graphs])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", action="store_true", help="import the package and exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=0.0, help="timed seconds to aim for")
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(cliquebounds.__file__))
    if os.path.commonpath([here, SRC]) != SRC:
        sys.exit(f"imported cliquebounds from {here}, not from {SRC}")
    # the machine's speed right after the import, to scale set-up time by
    result = {"imported_at": IMPORTED_AT, "probe_reading_s": Probe().fire()}
    if not args.setup:
        tracer = Tracer() if args.trace else None
        probe = None if tracer else Probe()
        if tracer:
            tracer.install()
        try:
            if args.workload == "sweep":
                result.update(run_sweep(tracer, probe))
            else:
                result.update(run_stream(args.workload, args.seed, args.budget, args.work_dir, tracer, probe))
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            result["trace"] = trace_summary(tracer, result["graphs"])
        if probe:
            result["probe_reading_ms"] = probe.reading_ms()
    # a stream reports its peak over the prefix, the input every commit runs
    # in full: a faster program gets through more chunks after it
    result["maxrss_kb"] = result.get("prefix_maxrss_kb") or maxrss_kb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

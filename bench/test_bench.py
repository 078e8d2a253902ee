"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import worker
from probe import INTERVAL_S, REF_READING_S, Probe
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import cliquebounds  # noqa: E402  (importable once worker has put src on the path)
from cliquebounds.cli import main  # noqa: E402


@pytest.fixture
def chunk_file(tmp_path):
    def write(workload, index=0):
        graphs = [gen.graph6(n, adj) for n, adj in gen.chunk(workload, 3, index)]
        path = tmp_path / f"{workload}.g6"
        path.write_text("\n".join(graphs) + "\n")
        return graphs, str(path)
    return write


@pytest.mark.parametrize("workload", ["check_blocky", "peel"])
def test_generator_is_seeded_and_matches_the_package(workload):
    graphs = gen.chunk(workload, 7, 2)
    assert graphs == gen.chunk(workload, 7, 2)
    assert graphs != gen.chunk(workload, 8, 2)
    for n, adj in graphs:
        g6 = gen.graph6(n, adj)
        g = cliquebounds.parse_graph6(g6)
        assert cliquebounds.write_graph6(g) == g6 and g.n == n and list(g.adj) == adj
        assert gen.triangles(n, adj) == cliquebounds.count_cliques(g, 3)
        blocks = cliquebounds.block_decomposition(g).blocks
        assert gen.largest_block(n, adj) == max(len(b) for b in blocks)
        if workload == "peel":
            assert gen.is_connected(n, adj)


def test_blocky_families_take_both_recognizer_branches(chunk_file):
    graphs, path = chunk_file("check_blocky")
    families = [family for family, _ in gen.BLOCKY_STRATA]
    for theorem, exact in ((1, "pdbg"), (2, "forest")):
        inv = worker.invoke(["check", "--theorem", str(theorem), "--s", "3", path])
        verdicts = [json.loads(line)["extremal"] for line in inv["lines"]]
        assert verdicts == [family == exact for family in families]


@pytest.mark.parametrize("workload", ["check_blocky", "peel"])
def test_latency_capture_yields_one_sample_per_graph(workload, chunk_file):
    graphs, path = chunk_file(workload)
    argv = ["peel", "--trace", path] if workload == "peel" else ["check", "--theorem", "1", "--s", "3", path]
    inv = worker.invoke(argv)
    is_graph_line = worker.is_peel_summary if workload == "peel" else (lambda line: True)
    span = (inv["t0"], inv["t1"], worker.graph_stamps(inv, is_graph_line))
    chunks, samples = worker.timed_spans([(len(graphs), [span])])
    assert inv["code"] == 0 and len(samples) == len(graphs)
    assert all(s > 0 for s in samples)
    assert sum(samples) <= 1000 * chunks[0]["seconds"] == 1000 * (inv["t1"] - inv["t0"])


def test_probe_takes_its_own_time_out_and_scales_to_the_reference_speed(tmp_path):
    probe = Probe()
    result = worker.run_stream("peel", 5, 0, str(tmp_path), None, probe, prefix=40)
    wall = probe.end[-1] - probe.start[0]
    assert len(probe.reading_s) >= 2 + int(wall / INTERVAL_S) - 1
    assert probe.busy(probe.start[0], probe.end[-1]) == pytest.approx(sum(e - s for s, e in zip(probe.start, probe.end)))
    assert probe.busy(probe.end[0], probe.start[1]) == 0.0
    first = (probe.start[0] + probe.end[0]) / 2
    assert probe.busy(first, probe.end[0]) == pytest.approx(probe.end[0] - first)
    t = probe.start[2]
    near = [u for s, u in zip(probe.start, probe.reading_s) if abs(s - t) <= INTERVAL_S]
    assert probe.scale(t, t) == pytest.approx(REF_READING_S * len(near) / sum(near))
    assert result["failed"] == 0 and len(result["samples_ms"]) == result["graphs"] == 40 * 8
    measured = sum(c["seconds"] for c in result["chunks"])
    assert 0 < measured < wall - probe.busy(probe.start[0], probe.end[-1]) + 1e-9
    for c in result["chunks"]:
        assert c["ref_seconds"] > 0


def test_output_checks_flag_wrong_reports(chunk_file):
    graphs, path = chunk_file("check_blocky")
    inv = worker.invoke(["check", "--theorem", "2", "--s", "3", path])
    lhs = [gen.triangles(n, adj) for n, adj in gen.chunk("check_blocky", 3, 0)]
    assert worker.check_reports(inv, graphs, 2, lhs) == [None] * len(graphs)
    lhs[0] += 1
    assert worker.check_reports(inv, graphs, 2, lhs)[0] is not None
    inv["code"] = 1
    assert all(worker.check_reports(inv, graphs, 2, lhs))


def test_traced_self_times_sum_to_at_most_the_wall_time(chunk_file):
    _, path = chunk_file("peel")
    tracer = Tracer()
    tracer.install()
    try:
        for argv in (["peel", "--trace", path], ["sweep", "--n", "4", "--s", "3"]):
            assert tracer.root(main, argv) == 0
    finally:
        tracer.uninstall()
    self_s, wall = tracer.self_times()
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) <= wall * (1 + 1e-9)
    assert tracer.calls["transforms.peel"] == len(gen.chunk("peel", 3, 0))
    assert tracer.observed.peel_stages > 0 and tracer.observed.closure_paths > 0
    # the generator is timed across its next() calls, not at creation only
    assert tracer.calls["graphs.enumerate_graphs"] == 4
    assert len(tracer.observed.classes) == 1 + 2 + 4 + 11
    assert self_s["graphs.enumerate_graphs"] > 0
    assert cliquebounds.compute_weights.__module__ == "cliquebounds.weights"
    assert not hasattr(cliquebounds.compute_weights, "__wrapped__")


def test_tracer_reports_a_missing_public_name_as_absent(monkeypatch, chunk_file):
    _, path = chunk_file("check_blocky")
    monkeypatch.delattr("cliquebounds.weights.compute_weights_block_graph")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.root(main, ["check", "--theorem", "1", "--s", "3", path]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["weights.compute_weights_block_graph"]
    assert tracer.calls["weights.compute_weights"] == len(gen.chunk("check_blocky", 3, 0))


def test_traced_output_equals_untraced_output(tmp_path):
    plain = worker.run_stream("peel", 5, 0, str(tmp_path), None, prefix=2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = worker.run_stream("peel", 5, 0, str(tmp_path), tracer, prefix=2)
    finally:
        tracer.uninstall()
    assert len(plain["chunks"]) == len(traced["chunks"]) == 2
    assert plain["failed"] == traced["failed"] == 0
    assert plain["output_digest"] == traced["output_digest"]


def _checkout(tmp_path, with_source=True):
    """A copy of the files the benchmark may rely on: src/ and bench/."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, tmp_path / "bench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=ignore)
    return tmp_path


def _run(checkout, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=checkout, capture_output=True, text=True, timeout=170,
    )


def test_wrong_expected_digest_surfaces_as_failures(tmp_path):
    checkout = _checkout(tmp_path)
    expected_path = checkout / "bench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["peel"]["output"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    proc = _run(checkout, "--workload", "peel", "--seed", str(expected["seed"]), "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1
    *_, record, result = proc.stdout.strip().splitlines()
    result, record = json.loads(result), json.loads(record)
    assert result["correct"] is False and result["failed"] > 0
    assert record["metrics"]["failed_frac"]["value"] > 0
    assert any("output digest" in reason for reason in record["failures"])


def test_run_without_source_fails_without_a_result(tmp_path):
    proc = _run(_checkout(tmp_path, with_source=False), "--workload", "sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

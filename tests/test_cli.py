import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cliquebounds import (
    BlockSpec,
    binom,
    complete_graph,
    compute_weights,
    cycle_graph,
    from_edges,
    generate_pdbg,
    parse_graph6,
    path_graph,
    random_graph,
    write_graph6,
)
from cliquebounds import bounds, cli, cliques, graphs, transforms, weights
from cliquebounds.cli import main
from cliquebounds.extremal import heavy_mask
from oracles import bowtie
from strategies import blocky_families


def run_cli(capsys, args, stdin=None, monkeypatch=None):
    """Run ``main(args)``; ``stdin``, text or bytes, is what the process
    reads on its standard input, byte for byte."""
    if stdin is not None:
        data = stdin if isinstance(stdin, bytes) else stdin.encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWeightsCommand:
    def test_triangle(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["weights"], stdin="Bw\n", monkeypatch=monkeypatch)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:3] == ["0\t2\t3", "1\t2\t3", "2\t2\t3"]
        assert lines[3] == "circumference\t3"

    def test_path(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["weights"], stdin="Bg\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.strip().splitlines()[:3] == ["0\t2\t2", "1\t2\t2", "2\t2\t2"]

    def test_empty_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["weights"], stdin="", monkeypatch=monkeypatch)
        assert code == 0 and out == ""

    def test_edge_list_file(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("n 3\n0 1\n1 2\n")
        code, out, _ = run_cli(capsys, ["weights", str(f)])
        assert code == 0
        assert "circumference\t2" in out

    def test_edge_list_errors_name_the_physical_line(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("n 3\n\n0 1\nx y\n")
        code, _, err = run_cli(capsys, ["weights", str(f)])
        assert code == 2 and "line 4" in err
        f.write_text("\n\nn 3\n0 1\nx y\n")
        code, _, err = run_cli(capsys, ["weights", str(f)])
        assert code == 2 and "line 5" in err

    def test_self_loop_exits_2_and_is_named(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["weights"], stdin="n 3\n0 0\n", monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err == "error: self-loop 0 0 on line 2\n"

    def test_path_19_at_the_default_limit(self, capsys, monkeypatch):
        # every block is a bridge, so no block runs the subset DP
        code, out, err = run_cli(
            capsys, ["weights"], stdin=write_graph6(path_graph(19)), monkeypatch=monkeypatch
        )
        assert code == 0, err
        assert out.splitlines()[0] == "0\t18\t2"

    def test_oversized_dp_exits_2_before_allocating(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys,
            ["weights", "--dp-limit", "64"],
            stdin=write_graph6(cycle_graph(40)),
            monkeypatch=monkeypatch,
        )
        assert code == 2 and out == ""
        assert "resource guard" in err and "physical memory" in err


class TestCheckCommand:
    def test_bowtie_equality(self, capsys, monkeypatch):
        line = write_graph6(bowtie())
        code, out, _ = run_cli(
            capsys, ["check", "--theorem", "1", "--s", "2"], stdin=line, monkeypatch=monkeypatch
        )
        assert code == 0
        rep = json.loads(out.strip())
        assert rep["equality"] and rep["extremal"] and rep["consistent"]
        assert rep["graph6"] == line

    def test_c4_strict_consistent(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["check", "--theorem", "1", "--s", "3"],
            stdin=write_graph6(cycle_graph(4)),
            monkeypatch=monkeypatch,
        )
        rep = json.loads(out.strip())
        assert code == 0
        assert not rep["equality"] and not rep["extremal"] and rep["consistent"]

    def test_malformed_graph6_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["check", "--theorem", "1", "--s", "2"], stdin="B\x01w", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("line", [b"B\xff\n", b"B\xc3\xa9\n"], ids=["0xff", "utf8"])
    def test_non_ascii_byte_is_refused_alike_from_stdin_and_file(
        self, capsys, monkeypatch, tmp_path, line
    ):
        # a non-ASCII byte is out of range, never read as "?"; the offset counts bytes
        f = tmp_path / "g6.txt"
        f.write_bytes(line)
        args = ["check", "--theorem", "1", "--s", "2"]
        for result in (
            run_cli(capsys, args, stdin=line, monkeypatch=monkeypatch),
            run_cli(capsys, args + [str(f)]),
        ):
            assert result == (2, "", "error: line 1: out-of-range graph6 byte at offset 1\n")

    @pytest.mark.parametrize(
        "data, err",
        [
            # 0x1c-0x1f are no whitespace: graph6 refuses them at their offset
            (b"Bw\x1c\n", "error: line 1: out-of-range graph6 byte at offset 2\n"),
            (b"\x1fBw\n", "error: line 1: out-of-range graph6 byte at offset 0\n"),
            # a line ends at "\n" alone, so errors name physical lines
            (b"n 3\n0 1\x0c\n1 x\n", "error: bad edge on line 3: '1 x'\n"),
            (b"n 3\n0 1\x1e1 2\n", "error: bad edge on line 2: '0 1\\x1e1 2'\n"),
            (b"n 3\n0\x1f1\n", "error: bad edge on line 2: '0\\x1f1'\n"),
        ],
    )
    def test_control_bytes_are_refused_alike_from_stdin_and_file(
        self, capsys, monkeypatch, tmp_path, data, err
    ):
        f = tmp_path / "in.txt"
        f.write_bytes(data)
        for args in (["weights"], ["check", "--theorem", "1", "--s", "2"]):
            assert run_cli(capsys, args, stdin=data, monkeypatch=monkeypatch) == (2, "", err)
            assert run_cli(capsys, args + [str(f)]) == (2, "", err)

    @pytest.mark.parametrize(
        "data, same_as",
        [
            (b"n\t3\n0 1\n1 2\n", b"n 3\n0 1\n1 2\n"),
            (b"n 3\r\n0 1\r\n\r\n1\x0b2\r\n", b"n 3\n0 1\n1 2\n"),
            (b"Bw\r\n", b"Bw\n"),
            (b" Bw \n\t\n", b"Bw\n"),
        ],
    )
    def test_ascii_whitespace_reads_alike_from_stdin_and_file(
        self, capsys, monkeypatch, tmp_path, data, same_as
    ):
        f = tmp_path / "in.txt"
        f.write_bytes(data)
        expected = run_cli(capsys, ["weights"], stdin=same_as, monkeypatch=monkeypatch)
        assert expected[0] == 0 and expected[1]
        assert run_cli(capsys, ["weights"], stdin=data, monkeypatch=monkeypatch) == expected
        assert run_cli(capsys, ["weights", str(f)]) == expected

    def test_bad_line_after_a_good_one_keeps_its_report(self, capsys, tmp_path):
        f = tmp_path / "g6.txt"
        f.write_text(write_graph6(bowtie()) + "\nB\x01w\n")
        code, out, err = run_cli(capsys, ["check", "--theorem", "1", "--s", "2", str(f)])
        assert code == 2
        assert len(out.strip().splitlines()) == 1
        assert json.loads(out)["graph6"] == write_graph6(bowtie())
        assert "line 2" in err

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_blocky_families_build_no_decomposition(self, capsys, tmp_path, count_calls, theorem):
        # one DFS per graph for its weights; the cycle form adds one on each
        # heavy set of two or more vertices that is not every vertex
        inputs = list(blocky_families(random.Random(26)))
        expected = len(inputs)
        if theorem == 1:
            for g in inputs:
                heavy = heavy_mask(compute_weights(g), 3, 1)
                expected += heavy != g.full_mask and heavy & (heavy - 1) != 0
            assert expected > len(inputs)
        f = tmp_path / "in.g6"
        f.write_text("".join(write_graph6(g) + "\n" for g in inputs))
        dfs = count_calls("_block_masks", graphs)
        public = count_calls("block_decomposition")
        code, out, err = run_cli(capsys, ["check", "--theorem", str(theorem), "--s", "3", str(f)])
        assert code == 0 and err == "" and len(out.splitlines()) == len(inputs)
        assert len(dfs) == expected and public == []

    def test_bad_s_exits_2(self, capsys, monkeypatch):
        code, _, _ = run_cli(
            capsys, ["check", "--theorem", "2", "--s", "0"], stdin="Bw", monkeypatch=monkeypatch
        )
        assert code == 2

    def test_clique_count_past_its_budget_exits_2(self, capsys, monkeypatch):
        # K8 less one edge is one non-clique block, which the count expands:
        # its 1- to 4-cliques try 8 + 27 + 50 + 55 extensions below order 5
        stdin = write_graph6(from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)][1:]))
        argv = ["check", "--theorem", "2", "--s", "5"]
        monkeypatch.setattr(cliques, "CLIQUE_EXPANSION_BUDGET", 140)
        code, out, _ = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["lhs"] == binom(8, 5) - binom(6, 3)
        monkeypatch.setattr(cliques, "CLIQUE_EXPANSION_BUDGET", 139)
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err == "resource guard: clique counting gave up after 139 extensions\n"

    def test_clique_blocks_are_counted_past_the_expansion_budget(self, capsys, monkeypatch):
        # K40 has about 4.8e11 cliques below order 20, far past the budget,
        # but as one clique block it is counted in closed form
        code, out, err = run_cli(
            capsys, ["check", "--theorem", "2", "--s", "20"],
            stdin=write_graph6(complete_graph(40)), monkeypatch=monkeypatch,
        )
        rep = json.loads(out)
        assert code == 0 and err == ""
        assert rep["lhs"] == binom(40, 20) and rep["equality"]

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_two_clique_blocks_at_s_8(self, capsys, monkeypatch, theorem):
        # K40 and K20 sharing a vertex hold about 7.7e7 8-cliques
        code, out, err = run_cli(
            capsys, ["check", "--theorem", str(theorem), "--s", "8"],
            stdin=write_graph6(generate_pdbg(BlockSpec((40, 20)))), monkeypatch=monkeypatch,
        )
        rep = json.loads(out)
        assert code == 0 and err == ""
        assert rep["lhs"] == binom(40, 8) + binom(20, 8)
        # only the cycle form is tight on a parent-dominated block graph
        assert rep["equality"] == (theorem == 1) and rep["consistent"]

    def test_order_past_the_graph_counts_nothing_and_allocates_nothing(self, capsys, monkeypatch):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                capsys, ["check", "--theorem", "2", "--s", str(10**9)],
                stdin=write_graph6(bowtie()), monkeypatch=monkeypatch,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["lhs"] == 0
        assert peak < 1 << 20

    def test_tight_bound_without_its_predicate_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "extremal_predicate", lambda g, s, theorem, w: False)
        code, out, _ = run_cli(
            capsys, ["check", "--theorem", "1", "--s", "2"], stdin=write_graph6(bowtie()),
            monkeypatch=monkeypatch,
        )
        rep = json.loads(out)
        assert rep["equality"] and not rep["consistent"]
        assert code == 1


class TestSweepCommand:
    def test_n4(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--n", "4", "--s", "3"])
        assert code == 0
        summary = json.loads(out)
        assert summary["ok"] and summary["graphs_total"] == 18

    def test_n0(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--n", "0"])
        assert code == 0

    def test_negative_n_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--n", "-1"])
        assert code == 2 and out == ""
        assert "vertex count must be >= 0" in err

    def test_bad_s_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--n", "3", "--s", "0"])
        assert code == 2 and out == ""
        assert "clique order" in err

    def test_module_entry_point_in_a_fresh_interpreter(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "cliquebounds.cli", "sweep", "--n", "4", "--s", "3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["graphs_total"] == 18

    def test_n9_guard(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--n", "9"])
        assert code == 2
        assert "resource" in err

    def test_s_guard_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--n", "7", "--s", "1000000"])
        assert code == 2 and out == ""
        assert err == "resource guard: exhaustive sweep capped at s <= 64, got 1000000\n"


class TestGenCommand:
    def test_pdbg_bowtie(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--pdbg", "3,3"])
        assert code == 0
        g = parse_graph6(out.strip())
        assert (g.n, g.edge_count()) == (5, 6)

    def test_clique_forest(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--clique-forest", "2x4"])
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 8 and g.edge_count() == 12

    def test_random_forest_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--clique-forest", "2x3-5"])
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("params", ["3x", "3x2-", "3x-2", "x3", "3", "3x2-5-"])
    def test_malformed_forest_params_exit_2(self, capsys, params):
        code, out, err = run_cli(capsys, ["gen", "--clique-forest", params, "--seed", "1"])
        assert (code, out) == (2, "")
        assert err == f"error: bad clique-forest params {params!r}\n"

    def test_negative_forest_count_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["gen", "--clique-forest=-1x3"])
        assert (code, out) == (2, "")
        assert err == "error: clique count must be >= 0, got -1\n"

    def test_random_forest_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, ["gen", "--clique-forest", "3x2-5", "--seed", "42"])
        code2, out2, _ = run_cli(capsys, ["gen", "--clique-forest", "3x2-5", "--seed", "42"])
        assert code == code2 == 0 and out1 == out2

    def test_pdbg_past_62_vertices(self, capsys):
        code, out, err = run_cli(capsys, ["gen", "--pdbg", "33,32"])
        assert code == 0, err
        assert parse_graph6(out.strip()) == generate_pdbg(BlockSpec((33, 32)))

    def test_invalid_pdbg_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["gen", "--pdbg", "2,3"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["", "3_0", "\u0663", "+3", "3, 3", "3,"])
    def test_pdbg_orders_are_ascii_integers(self, capsys, spec):
        code, out, err = run_cli(capsys, ["gen", "--pdbg", spec])
        assert (code, out) == (2, "")
        assert err == f"error: bad block spec {spec!r}, expected comma-separated orders\n"

    @pytest.mark.parametrize("params", ["1_0x3", "2x\u0663", "+2x3", "2x3-+5"])
    def test_forest_params_are_ascii_integers(self, capsys, params):
        code, out, err = run_cli(capsys, ["gen", "--clique-forest", params, "--seed", "1"])
        assert (code, out) == (2, "")
        assert err == f"error: bad clique-forest params {params!r}\n"

    def test_oversized_forest_is_refused_before_its_draws(self, capsys):
        code, out, err = run_cli(capsys, ["gen", "--clique-forest", "10000000x1"])
        assert (code, out) == (2, "")
        assert err == "error: forest realizes at least 10000000 vertices, limit is 64\n"

    def test_self_check(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--pdbg", "4,3,2", "--self-check"])
        assert code == 0

    def test_self_check_fails_a_tight_bound_without_its_predicate(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "extremal_predicate", lambda g, s, theorem, w: False)
        code, _, err = run_cli(capsys, ["gen", "--pdbg", "4,3,2", "--self-check"])
        assert code == 1
        assert json.loads(err) == {"self_check": "failed", "s": 2, "gap": "0", "extremal": False}

    def test_self_check_past_the_dp_limit(self, capsys):
        code, out, err = run_cli(capsys, ["gen", "--pdbg", "30,20", "--self-check"])
        assert code == 0, err
        assert parse_graph6(out.strip()).n == 49


class TestPeelCommand:
    def test_k4_trace(self, capsys, monkeypatch):
        from cliquebounds import complete_graph

        code, out, _ = run_cli(
            capsys, ["peel", "--trace"], stdin=write_graph6(complete_graph(4)), monkeypatch=monkeypatch
        )
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["stage"] == 0
        assert sorted(lines[0]["terminals"]) == [1, 2, 3]
        assert lines[-1]["ok"] and lines[-1]["stages"] == 1

    def test_a_failed_split_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "verify_peel_decomposition",
            lambda g, trace, orders: {s: {"ok": s != 3} for s in orders},
        )
        code, out, _ = run_cli(capsys, ["peel"], stdin="Bw\nBg\n", monkeypatch=monkeypatch)
        assert code == 1
        for line in out.splitlines():
            summary = json.loads(line)
            assert summary["identity"] == {"2": True, "3": False, "4": True}
            assert not summary["ok"]

    def test_empty_graph(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["peel"], stdin="?", monkeypatch=monkeypatch)
        assert code == 0
        summary = json.loads(out)
        assert summary["stages"] == 0 and summary["ok"]
        assert summary["identity"] == {"2": True, "3": True, "4": True}

    def test_start_outside_the_empty_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("n 0\n")
        code, out, err = run_cli(capsys, ["peel", "--start", "5", str(path)])
        assert code == 2 and out == ""
        assert "start vertex 5 not in graph" in err

    def test_dp_limit_reaches_every_stage(self, capsys, monkeypatch):
        # C19 is one non-clique block of 19 vertices, past the default limit
        code, out, err = run_cli(
            capsys,
            ["peel", "--dp-limit", "19"],
            stdin=write_graph6(cycle_graph(19)),
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        assert json.loads(out.strip().splitlines()[-1])["ok"] is True

    def test_path_19_names_the_longest_path_guard(self, capsys, monkeypatch):
        # --dp-limit bounds only the subset DP: P19, all bridges, runs none,
        # and C19 is refused by the weights' guard, not the path search
        code, out, err = run_cli(
            capsys, ["peel"], stdin=write_graph6(path_graph(19)), monkeypatch=monkeypatch
        )
        assert code == 0 and err == ""
        assert json.loads(out)["ok"] is True
        code, out, err = run_cli(
            capsys, ["peel"], stdin=write_graph6(cycle_graph(19)), monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert err == (
            "resource guard: subset DP guarded at non-clique block order <= 18 (got 19); "
            "raise dp_limit explicitly\n"
        )

    @pytest.mark.parametrize("limit", ["3", "4"])
    def test_refused_exactly_when_weights_is(self, capsys, monkeypatch, reps_by_n, reps7, limit):
        # a non-clique block of a stage lies inside one of the input graph,
        # so stage 0's weights are the only ones the limit can refuse
        refused = 0
        for g in [g for n in range(1, 7) for g in reps_by_n[n]] + reps7:
            g6 = write_graph6(g)
            code, _, err = run_cli(capsys, ["weights", "--dp-limit", limit], g6, monkeypatch)
            peel_code, out, peel_err = run_cli(capsys, ["peel", "--dp-limit", limit], g6, monkeypatch)
            assert (peel_code, peel_err) == (code, err), g6
            if code:
                refused += 1
            else:
                assert json.loads(out)["ok"] is True, g6
        assert refused > 100

    def test_path_search_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(weights, "PATH_SEARCH_BUDGET", 10)
        code, out, err = run_cli(
            capsys, ["peel"], stdin=write_graph6(random_graph(12, 0.3, 5)), monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert err == (
            "resource guard: longest-path search from vertex 1 gave up after "
            "10 candidate tries\n"
        )

    def test_closure_budget_exits_2(self, capsys, monkeypatch):
        # the closure of K8 holds 7! paths
        monkeypatch.setattr(transforms, "CLOSURE_BUDGET", 10)
        code, out, err = run_cli(
            capsys, ["peel"], stdin=write_graph6(complete_graph(8)), monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert err == "resource guard: rotation closure exceeded budget of 10 paths\n"

    def test_bowtie_verdict(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["peel"], stdin=write_graph6(bowtie()), monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["ok"]


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["weights"], ["check", "--theorem", "1", "--s", "2"], ["peel"]])
def test_negative_dp_limit_is_a_usage_error(capsys, monkeypatch, command):
    code, out, err = run_cli(capsys, command + ["--dp-limit", "-1"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "dp limit must be >= 0\n")


@pytest.mark.parametrize(
    "command, option",
    [
        (["sweep"], "--n"),
        (["sweep", "--n", "3"], "--s"),
        (["check", "--s", "2"], "--theorem"),
        (["check", "--theorem", "1"], "--s"),
        (["weights"], "--dp-limit"),
        (["peel"], "--start"),
        (["gen", "--pdbg", "3"], "--seed"),
    ],
)
@pytest.mark.parametrize("literal", ["\u0663", "1_0", "+1", " 1", "1 "])
def test_integer_options_take_the_ascii_grammar(capsys, command, option, literal):
    with pytest.raises(SystemExit) as exc:
        main(command + [option, literal])
    assert exc.value.code == 2
    assert f"argument {option}: invalid ascii_int value: {literal!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, answer",
    [
        (["weights"], "0\t2\t3\n1\t2\t3\n2\t2\t3\ncircumference\t3\n"),
        (["check", "--theorem", "1", "--s", "2"], '"equality": true'),
    ],
)
def test_dp_limit_0_answers_clique_blocks(capsys, monkeypatch, command, answer):
    # a triangle is one clique block and runs no subset DP
    code, out, err = run_cli(capsys, command + ["--dp-limit", "0"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    assert answer in out


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it; each
    call still parses as if the parser were new."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @pytest.fixture
    def c5(self, tmp_path):
        path = tmp_path / "c5.g6"
        path.write_text(write_graph6(cycle_graph(5)) + "\n")
        return str(path)

    @staticmethod
    def outcome(capsys, args):
        """Exit code, stdout and stderr of ``main(args)``; a usage error or
        ``--help`` gives the code of its ``SystemExit``."""
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def fresh(self, capsys, args):
        cli._parser.cache_clear()
        return self.outcome(capsys, args)

    def test_builds_the_parser_once(self, capsys, monkeypatch, c5):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        for args in (
            ["weights", c5],
            ["check", "--theorem", "2", "--s", "3", c5],
            ["peel", c5],
            ["gen", "--clique-forest", "2x3"],
            ["sweep", "--n", "3"],
        ):
            assert self.outcome(capsys, args)[0] == 0, args
        assert len(builds) == 1

    def assert_forgets(self, capsys, first, second):
        """``second`` after ``first`` gives what ``second`` gives on a fresh
        parser, and ``first`` gives something else."""
        alone = self.fresh(capsys, second)
        assert self.fresh(capsys, first) != alone
        assert self.outcome(capsys, second) == alone

    def test_start_does_not_leak(self, capsys, c5):
        self.assert_forgets(capsys, ["peel", "--trace", "--start", "2", c5], ["peel", "--trace", c5])

    def test_dp_limit_does_not_leak(self, capsys, c5):
        check = ["check", "--theorem", "1", "--s", "2", c5]
        self.assert_forgets(capsys, check + ["--dp-limit", "4"], check)
        code, out, err = self.outcome(capsys, check + ["--dp-limit", "4"])
        assert code == 2 and out == "" and "order <= 4 (got 5)" in err
        code, out, _ = self.outcome(capsys, check)
        assert code == 0 and json.loads(out)["graph6"] == "Dhc"

    def test_self_check_does_not_leak(self, capsys, monkeypatch):
        # without its predicate every tight bound fails the self-check
        monkeypatch.setattr(bounds, "extremal_predicate", lambda g, s, theorem, w: False)
        self.assert_forgets(capsys, ["gen", "--pdbg", "3,3", "--self-check"], ["gen", "--pdbg", "3,3"])
        assert self.outcome(capsys, ["gen", "--pdbg", "3,3"]) == (0, "D{c\n", "")

    @pytest.mark.parametrize(
        "args, code",
        [(["frobnicate"], 2), (["check", "--help"], 0), (["--help"], 0), (["check", "--s", "2"], 2)],
    )
    def test_exits_as_on_a_fresh_parser(self, capsys, c5, args, code):
        expected = self.fresh(capsys, args)
        assert expected[0] == code
        for earlier in (["peel", "--start", "1", c5], ["frobnicate"], ["check", "--help"]):
            self.outcome(capsys, earlier)
            assert self.outcome(capsys, args) == expected, earlier


# sha256 of the 1,252 classes with n = 1..7, one graph6 line each in
# enumerate_graphs order, and of what each command prints over them: a
# faster path must print the same bytes
CLASSES7_SHA256 = "8d6359ec94a50cd375d088fe322be05c2ef17ffa0bca47644387ac8e40a215d5"
OUTPUT_SHA256 = {
    "sweep": "95c0eb7751f30a5d5a145e55714ed221aa8c9bca143495dcf702189cda4b9e23",
    "check": "315686a7d7252c5db39fba85905d36bf0d1d68cd1c9a4c7a44bdf1ad1e093078",
    "peel": "203adda885ae8229448cbea44f4fd500441fa0fee86ac04a97b4aef7e776b006",
    "weights": "d72f0345a2ae0941b87700aaf785788f0c0acc09a3bb2bdaca1640a8c9657a90",
}


class TestOutputBytes:
    @pytest.fixture(scope="class")
    def classes7(self, tmp_path_factory, reps_by_n, reps7):
        path = tmp_path_factory.mktemp("classes") / "classes7.g6"
        classes = [g for n in range(1, 7) for g in reps_by_n[n]] + reps7
        path.write_text("".join(write_graph6(g) + "\n" for g in classes))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CLASSES7_SHA256
        return str(path)

    # the argument lists of each command's runs, the classes file appended
    # to each but sweep's; check runs theorem 1 at s = 1..5, then theorem 2
    RUNS = {
        "sweep": [["sweep", "--n", "7", "--s", "5"]],
        "check": [["check", "--theorem", str(t), "--s", str(s)] for t in (1, 2) for s in range(1, 6)],
        "peel": [["peel", "--trace"]],
        "weights": [["weights"]],
    }

    @pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
    def test_stdout_over_the_classes_up_to_7(self, capsys, classes7, command):
        digest = hashlib.sha256()
        for args in self.RUNS[command]:
            code, out, err = run_cli(capsys, args if command == "sweep" else args + [classes7])
            assert code == 0 and err == "", args
            digest.update(out.encode())
        assert digest.hexdigest() == OUTPUT_SHA256[command]

"""CLI: subcommands, exit codes, report determinism."""

from __future__ import annotations

import json

import pytest

from localgraphs import BLACK, WHITE
from localgraphs.cli import main
from localgraphs.generators import numbered_cycle, strong_blowup
from localgraphs.graph import dumps, loads


@pytest.fixture
def c4_file(tmp_path, c4_coloured):
    path = tmp_path / "c4.json"
    path.write_text(dumps(c4_coloured) + "\n")
    return str(path)


@pytest.fixture
def p4_file(tmp_path, p4_coloured):
    path = tmp_path / "p4.json"
    path.write_text(dumps(p4_coloured) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "cycle", "--n", "6"],
        ["gen", "--family", "cycle-power", "--n", "8", "--k", "2"],
        ["gen", "--family", "strong-blowup", "--n", "8", "--delta", "3"],
        ["gen", "--family", "weak-layered", "--n", "4", "--delta", "3"],
        ["gen", "--family", "symmetric-complete", "--delta", "3"],
        ["gen", "--family", "random-bipartite", "--n", "10", "--delta", "3", "--seed", "1"],
        ["gen", "--family", "random-weak", "--n", "10", "--delta", "3", "--seed", "1"],
    ])
    def test_families_emit_valid_graphs(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert loads(out).n >= 2

    def test_gen_to_file_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _ = run_cli(capsys, "gen", "--family", "random-weak", "--n", "12",
                              "--delta", "3", "--seed", "7", "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["--family", "random-weak", "--n", "3000000000"],
        ["--family", "random-bipartite", "--n", "400000", "--delta", "3"],
        ["--family", "symmetric-complete", "--delta", "100001"],
        ["--family", "cycle-power", "--n", "1000", "--k", "1000"],
    ])
    def test_size_cap_exit_2_before_generating(self, capsys, monkeypatch, argv):
        import localgraphs.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("generator called past the size cap")

        for name in ("random_weak", "random_bipartite", "symmetric_complete",
                     "numbered_cycle"):
            monkeypatch.setattr(cli.generators, name, unreachable)
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "gen-size"
        assert "Traceback" not in captured.err

    def test_degenerate_params_exit_2(self, capsys):
        code, out = run_cli(capsys, "gen", "--family", "cycle", "--n", "2")
        assert code == 2
        assert "error" in json.loads(out)


class TestRun:
    def test_star_ds_on_c4(self, capsys, c4_file):
        code, out = run_cli(capsys, "run", "--graph", c4_file,
                            "--alg", "star-ds", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == 1.0
        assert doc["paper_bound"] == 1.5
        assert doc["rounds_used"] == 5
        assert doc["solution_size"] == 2 and doc["optimal_size"] == 2

    def test_all_nodes_baseline(self, capsys, c4_file):
        code, out = run_cli(capsys, "run", "--graph", c4_file,
                            "--alg", "all-nodes", "--oracle")
        doc = json.loads(out)
        assert code == 0
        assert doc["solution_size"] == 4 and doc["optimal_size"] == 2
        assert doc["ratio"] == 2.0 and doc["paper_bound"] == 3.0

    def test_matching_scheme_on_p4(self, capsys, p4_file):
        code, out = run_cli(capsys, "run", "--graph", p4_file, "--alg",
                            "matching-scheme", "--k", "2", "--oracle",
                            "--assert-oracle")
        doc = json.loads(out)
        assert code == 0
        assert doc["ratio"] == 1.0 and doc["paper_bound"] == 1.5

    def test_star_matching(self, capsys, c4_file):
        code, out = run_cli(capsys, "run", "--graph", c4_file,
                            "--alg", "star-matching", "--oracle")
        doc = json.loads(out)
        assert code == 0
        assert doc["solution_size"] == 2 and doc["ratio"] == 1.0

    def test_white_is(self, capsys, c4_file):
        code, out = run_cli(capsys, "run", "--graph", c4_file,
                            "--alg", "white-is", "--oracle")
        doc = json.loads(out)
        assert code == 0 and doc["solution_size"] == 2

    def test_odd_ds_centralized(self, capsys, tmp_path, k4_oriented):
        path = tmp_path / "k4.json"
        path.write_text(dumps(k4_oriented))
        code, out = run_cli(capsys, "run", "--graph", str(path),
                            "--alg", "odd-ds", "--oracle")
        doc = json.loads(out)
        assert code == 0
        assert doc["solution_size"] <= 2 and doc["paper_bound"] == 3.0

    def test_odd_ds_external_provider(self, capsys, tmp_path, k4_oriented):
        gpath = tmp_path / "k4.json"
        gpath.write_text(dumps(k4_oriented))
        cpath = tmp_path / "colours.json"
        cpath.write_text(json.dumps({"colours": [WHITE, BLACK, BLACK, BLACK]}))
        code, out = run_cli(capsys, "run", "--graph", str(gpath), "--alg", "odd-ds",
                            "--weak-colouring", f"external:{cpath}")
        assert code == 0
        assert json.loads(out)["solution_size"] >= 1

    def test_bad_external_provider_exit_2(self, capsys, tmp_path, k4_oriented):
        gpath = tmp_path / "k4.json"
        gpath.write_text(dumps(k4_oriented))
        cpath = tmp_path / "colours.json"
        cpath.write_text(json.dumps({"colours": [WHITE, WHITE, WHITE, WHITE]}))
        code, out = run_cli(capsys, "run", "--graph", str(gpath), "--alg", "odd-ds",
                            "--weak-colouring", f"external:{cpath}")
        assert code == 2

    def test_missing_colour_exit_3(self, capsys, tmp_path, k4_oriented):
        path = tmp_path / "k4.json"
        path.write_text(dumps(k4_oriented))
        code, _ = run_cli(capsys, "run", "--graph", str(path), "--alg", "star-ds")
        assert code == 3

    def test_unparseable_graph_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _ = run_cli(capsys, "run", "--graph", str(path), "--alg", "star-ds")
        assert code == 2

    def test_scheme_round_budget_cap_exit_2(self, capsys, tmp_path):
        # delta = 3 and k = 20 need about 3.5e8 rounds
        gpath = tmp_path / "blowup.json"
        gpath.write_text(dumps(strong_blowup(numbered_cycle(8), 3)))
        trace = tmp_path / "trace.jsonl"
        code = main(["run", "--graph", str(gpath), "--alg", "matching-scheme",
                     "--k", "20", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "round-budget"
        assert "Traceback" not in captured.err
        assert not trace.exists()

    def test_unwritable_trace_exit_2(self, capsys, tmp_path, c4_file):
        code, out = run_cli(capsys, "run", "--graph", c4_file, "--alg", "star-ds",
                            "--trace", str(tmp_path / "no-such-dir" / "t.jsonl"))
        assert code == 2 and json.loads(out)["error"] == "io-error"

    def test_missing_external_provider_exit_2(self, capsys, tmp_path, k4_oriented):
        gpath = tmp_path / "k4.json"
        gpath.write_text(dumps(k4_oriented))
        code, out = run_cli(capsys, "run", "--graph", str(gpath), "--alg", "odd-ds",
                            "--weak-colouring", f"external:{tmp_path / 'missing.json'}")
        assert code == 2 and json.loads(out)["error"] == "io-error"
        cpath = tmp_path / "colours.json"      # no "colours" key
        cpath.write_text(json.dumps({"colors": [WHITE, BLACK, BLACK, BLACK]}))
        code, out = run_cli(capsys, "run", "--graph", str(gpath), "--alg", "odd-ds",
                            "--weak-colouring", f"external:{cpath}")
        assert code == 2 and json.loads(out)["error"] == "ProviderFailureError"

    @pytest.mark.parametrize("nodes", [["a", "b"], [True, 0]])
    def test_non_object_nodes_exit_2(self, capsys, tmp_path, nodes):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": nodes, "edges": [
            {"u": 0, "v": 1, "port_u": 1, "port_v": 1, "dir": None}]}))
        code, out = run_cli(capsys, "run", "--graph", str(path), "--alg", "star-ds")
        assert code == 2 and json.loads(out)["error"] == "GraphFormatError"

    def test_internal_invariant_exit_4(self, capsys, monkeypatch, p4_file):
        import localgraphs.cli as cli
        from localgraphs.errors import InvariantError

        def broken(*args, **kwargs):
            raise InvariantError("planted")

        monkeypatch.setattr(cli, "run_matching_scheme", broken)
        code, out = run_cli(capsys, "run", "--graph", p4_file,
                            "--alg", "matching-scheme")
        assert code == 4
        assert json.loads(out) == {"error": "InvariantError", "message": "planted"}

    def test_reports_byte_identical(self, capsys, c4_file):
        outputs = set()
        for _ in range(2):
            _, out = run_cli(capsys, "run", "--graph", c4_file,
                             "--alg", "star-ds", "--oracle")
            outputs.add(out)
        assert len(outputs) == 1

    def test_trace_written(self, capsys, tmp_path, c4_file):
        trace = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, "run", "--graph", c4_file,
                          "--alg", "star-ds", "--trace", str(trace))
        assert code == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert {d["round"] for d in lines} == {0, 1, 2, 3, 4, 5}
        assert all({"node", "sent", "state_digest"} <= set(d) for d in lines)


class TestOracleVerifyExport:
    def test_oracle_sizes(self, capsys, c4_file):
        for problem, size in (("ds", 2), ("matching", 2), ("is", 2)):
            code, out = run_cli(capsys, "oracle", "--graph", c4_file,
                                "--problem", problem)
            assert code == 0
            assert json.loads(out)["size"] == size

    def test_verify_good_and_bad(self, capsys, tmp_path, c4_file):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"kind": "dominating-set", "members": [0, 2]}))
        code, out = run_cli(capsys, "verify", "--graph", c4_file,
                            "--solution", str(good))
        assert code == 0 and json.loads(out)["ok"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "dominating-set", "members": [0]}))
        code, out = run_cli(capsys, "verify", "--graph", c4_file,
                            "--solution", str(bad))
        assert code == 0 and not json.loads(out)["ok"]

    @pytest.mark.parametrize("members", [[0, 1.5], [True, 2], [[0, 1.5]], [[True, 0]]])
    def test_verify_rejects_coerced_members(self, capsys, tmp_path, c4_file, members):
        kind = "matching" if isinstance(members[0], list) else "dominating-set"
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"kind": kind, "members": members}))
        code, out = run_cli(capsys, "verify", "--graph", c4_file, "--solution", str(path))
        assert code == 2 and json.loads(out)["error"] == "bad-solution"

    def test_export_dot_plain(self, capsys, tmp_path, single_edge):
        path = tmp_path / "edge.json"
        path.write_text(dumps(single_edge))
        code, out = run_cli(capsys, "export-dot", "--graph", str(path))
        assert code == 0
        assert out.startswith("graph g {") and "0 -- 1" in out

    def test_export_dot_matching_double_lines(self, capsys, tmp_path, single_edge):
        gpath = tmp_path / "edge.json"
        gpath.write_text(dumps(single_edge))
        spath = tmp_path / "sol.json"
        spath.write_text(json.dumps({"kind": "matching", "members": [[0, 1]]}))
        code, out = run_cli(capsys, "export-dot", "--graph", str(gpath),
                            "--solution", str(spath))
        assert code == 0 and "black:invis:black" in out

    def test_export_dot_oriented_arrows(self, capsys, tmp_path, k4_oriented):
        path = tmp_path / "k4.json"
        path.write_text(dumps(k4_oriented))
        code, out = run_cli(capsys, "export-dot", "--graph", str(path))
        assert code == 0 and out.startswith("digraph g {") and "->" in out

    def test_export_dot_bad_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("nope")
        code, _ = run_cli(capsys, "export-dot", "--graph", str(path))
        assert code == 2

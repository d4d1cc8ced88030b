"""CLI: subcommands, exit codes, report determinism."""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ascending_ports
from localgraphs import (BLACK, WHITE, RunResult, cli, errors, run_local_algorithm,
                         with_colours)
from localgraphs.cli import export_dot, main
from localgraphs.generators import (cycle_power, numbered_cycle, random_bipartite,
                                    random_weak, shuffle_ports, strong_blowup,
                                    weak_layered)
from localgraphs.graph import dumps, graph_to_json_dict, loads
from localgraphs.matching import (approximate_maximum_matching, eliminate_length,
                                  flood_phase, run_matching_scheme)
from localgraphs.oddds import odd_delta_pipeline
from localgraphs.oracles import (Solution, SolutionKind, brute_max_matching,
                                 brute_min_dominating_set)
from localgraphs.starforest import StarForestAlgorithm, run_star_forest, star_forest


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
        assert json.loads(captured.out)["error"] == "TooLargeError"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--family", "cycle", "--n", "2"], "cycle needs at least 3 nodes, got 2"),
        (["--family", "cycle-power", "--n", "300000", "--k", "0"],
         "need n > 2k >= 2, got n=300000, k=0"),
        (["--family", "strong-blowup", "--n", "300000", "--delta", "0"],
         "need n > delta >= 1, got n=300000, delta=0"),
        (["--family", "weak-layered", "--n", "300000", "--delta", "-1"],
         "need delta >= 3, got -1"),
        (["--family", "weak-layered", "--n", "50001", "--delta", "3"],
         "need an even cycle, got n=50001"),
    ], ids=["cycle", "cycle-power", "strong-blowup", "weak-layered", "weak-layered-odd"])
    def test_bad_parameter_refused_before_the_cycle_is_built(self, capsys, monkeypatch,
                                                             argv, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("graph built for a refused parameter")

        monkeypatch.setattr(cli.generators, "build_graph", unreachable)
        code, out = run_cli(capsys, "gen", *argv)
        assert code == 2
        assert json.loads(out) == {"error": "ValueError", "message": message}

    def test_degenerate_params_exit_2(self, capsys):
        code, out = run_cli(capsys, "gen", "--family", "cycle", "--n", "2")
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("argv, message", [
        (["--family", "random-weak", "--n", "1"], "need n >= 2 and delta >= 1, got 1, 3"),
        (["--family", "random-bipartite", "--delta", "0"],
         "need n >= 2 and delta >= 1, got 8, 0"),
        (["--family", "random-weak", "--n", "3", "--delta", "1"],
         "no degree-1 graph without isolated nodes on 3 nodes"),
        (["--family", "random-bipartite", "--n", "3", "--delta", "1"],
         "no bipartite degree-1 graph without isolated nodes on 3 nodes")])
    def test_degenerate_random_family_exit_2(self, capsys, argv, message):
        code, out = run_cli(capsys, "gen", *argv)
        assert code == 2
        assert json.loads(out) == {"error": "ValueError", "message": message}


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

    def test_assert_oracle_refuses_disagreeing_schemes(self, capsys, monkeypatch, p4_file):
        monkeypatch.setattr(cli, "approximate_maximum_matching",
                            lambda g, k, assert_oracle: frozenset({(0, 1)}))
        code, out = run_cli(capsys, "run", "--graph", p4_file, "--alg",
                            "matching-scheme", "--k", "2", "--assert-oracle")
        assert code == 4
        assert json.loads(out) == {"error": "InvariantError",
                                   "message": "simulated and centralized schemes disagree"}

    def test_star_matching(self, capsys, c4_file):
        code, out = run_cli(capsys, "run", "--graph", c4_file,
                            "--alg", "star-matching", "--oracle")
        doc = json.loads(out)
        assert code == 0
        assert doc["solution_size"] == 2 and doc["ratio"] == 1.0

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

    def test_unknown_provider_exit_2(self, capsys, tmp_path, k4_oriented):
        path = tmp_path / "k4.json"
        path.write_text(dumps(k4_oriented))
        code, out = run_cli(capsys, "run", "--graph", str(path), "--alg", "odd-ds",
                            "--weak-colouring", "bogus")
        assert code == 2
        assert json.loads(out)["error"] == "ValueError"

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
        assert json.loads(captured.out) == {
            "error": "TooLargeError",
            "message": "matching-scheme with k=20 on degree bound 3 needs more than 1000000 rounds"}
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

    @pytest.mark.parametrize("command", ["verify", "export-dot"])
    def test_missing_solution_file_exit_2(self, capsys, tmp_path, c4_file, command):
        code, out = run_cli(capsys, command, "--graph", c4_file,
                            "--solution", str(tmp_path / "missing.json"))
        assert code == 2 and json.loads(out)["error"] == "io-error"

    @pytest.mark.parametrize("doc, message", [
        ({"colors": [WHITE, BLACK, BLACK, BLACK]}, "provider must return one colour per node"),
        ({"colours": None}, "provider must return one colour per node"),
        ([WHITE], "provider must return one colour per node"),
        ([WHITE] * 4, "provider output is not a weak 2-colouring"),
    ], ids=["no-colours-key", "null", "short", "not-weak"])
    def test_bad_external_colouring_exit_2(self, capsys, tmp_path, k4_oriented, doc, message):
        gpath = tmp_path / "k4.json"
        gpath.write_text(dumps(k4_oriented))
        cpath = tmp_path / "colours.json"
        cpath.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "run", "--graph", str(gpath), "--alg", "odd-ds",
                            "--weak-colouring", f"external:{cpath}")
        assert code == 2
        assert json.loads(out) == {"error": "MalformedSolutionError", "message": message}

    def test_scheme_k_below_one_exit_2(self, capsys, c4_file):
        code, out = run_cli(capsys, "run", "--graph", c4_file, "--alg", "matching-scheme",
                            "--k", "0")
        assert code == 2
        assert json.loads(out) == {"error": "ValueError", "message": "k must be at least 1"}

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

    @pytest.mark.parametrize("argv, solver, optimum, message", [
        (["--alg", "star-ds"], "brute_min_dominating_set", {0},
         "ratio 2 exceeds the guaranteed bound 3/2"),
        (["--alg", "matching-scheme", "--k", "1"], "brute_max_matching", set(range(6)),
         "ratio 3 exceeds the guaranteed bound 2"),
    ])
    def test_ratio_above_bound_exit_4(self, capsys, monkeypatch, c4_file, argv, solver,
                                      optimum, message):
        # an oracle planted to beat the paper's bound; ratios print in lowest terms
        monkeypatch.setattr(cli.oracles, solver, lambda g: frozenset(optimum))
        code, out = run_cli(capsys, "run", "--graph", c4_file, "--oracle", *argv)
        assert code == 4
        assert json.loads(out) == {"error": "InvariantError", "message": message}

    def test_reports_byte_identical(self, capsys, c4_file):
        outputs = set()
        for _ in range(2):
            _, out = run_cli(capsys, "run", "--graph", c4_file,
                             "--alg", "star-ds", "--oracle")
            outputs.add(out)
        assert len(outputs) == 1

    def test_trace_written(self, capsys, tmp_path, c4_file, c4_coloured):
        trace = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, "run", "--graph", c4_file,
                          "--alg", "star-ds", "--trace", str(trace))
        assert code == 0
        text = trace.read_text().splitlines()
        lines = [json.loads(l) for l in text]
        expected: list[str] = []
        run = run_local_algorithm(c4_coloured, StarForestAlgorithm(), trace=expected.append)
        assert len(lines) == c4_coloured.n + run.steps     # one per init, one per step
        assert {d["round"] for d in lines} <= {0, 1, 2, 3, 4, 5}
        assert text == expected
        assert all({"node", "sent", "state_digest"} <= set(d) for d in lines)

    def test_odd_ds_trace_is_the_star_phase(self, capsys, tmp_path, k4_oriented):
        # an odd maximum degree puts a node in the core, so the star phase
        # always runs, for its 5 rounds
        drawn = [random_weak(20, delta, seed) for delta in (3, 5, 7) for seed in range(4)]
        graphs = [k4_oriented, random_weak(14, 3, seed=5, oriented=True)]
        for g in graphs + [g for g in drawn if g.max_degree % 2]:
            path, trace = tmp_path / "g.json", tmp_path / "trace.jsonl"
            path.write_text(dumps(g))
            code, out = run_cli(capsys, "run", "--graph", str(path), "--alg", "odd-ds",
                                "--trace", str(trace))
            assert code == 0 and '"rounds_used": 5,' in out
            result = odd_delta_pipeline(g)
            assert isinstance(result.star_run, RunResult)
            assert result.star_run.rounds_used == 5
            lines = []
            run_local_algorithm(with_colours(result.h2.base, result.core_colours),
                                StarForestAlgorithm(), trace=lines.append)
            assert trace.read_text() == "".join(line + "\n" for line in lines)

    def test_failed_run_keeps_an_earlier_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes(b"earlier trace\n")
        blowup = tmp_path / "blowup.json"
        blowup.write_text(dumps(strong_blowup(numbered_cycle(8), 3)))
        failing = []
        for instance, alg in (("uncoloured", "matching-scheme"), ("not-weak", "star-ds")):
            path = tmp_path / f"{instance}.json"
            path.write_text(dumps(_CAPABILITY_MATRIX[instance][0]))
            failing.append((["--graph", str(path), "--alg", alg], 3))
        failing.append((["--graph", str(blowup), "--alg", "matching-scheme",
                         "--k", "20"], 2))
        for argv, expected in failing:
            code, _ = run_cli(capsys, "run", *argv, "--trace", str(trace))
            assert code == expected
            assert trace.read_bytes() == b"earlier trace\n"
        empty = tmp_path / "empty.json"        # a successful run that writes no line
        empty.write_text(json.dumps({"nodes": [], "edges": []}))
        code, _ = run_cli(capsys, "run", "--graph", str(empty), "--alg", "all-nodes",
                          "--trace", str(trace))
        assert code == 0 and trace.read_bytes() == b""

    @pytest.mark.parametrize("alg, output", [
        ("star-ds", {"parent_port": 1, "matched_port": None}),     # no node is a root
        ("star-ds", {"parent_port": 9, "matched_port": None}),     # no such port
        ("odd-ds", {"parent_port": 1, "matched_port": None}),
        ("matching-scheme", {"matched_port": 1}),      # the two ends disagree
        ("matching-scheme", {"matched_port": 9}),
    ])
    def test_malformed_algorithm_output_exit_4(self, capsys, monkeypatch, tmp_path,
                                               k4_oriented, p4_coloured, alg, output):
        import localgraphs.matching as matching
        import localgraphs.starforest as starforest
        owner = (matching.MatchingSchemeAlgorithm if alg == "matching-scheme"
                 else starforest.StarForestAlgorithm)
        monkeypatch.setattr(owner, "finalize", lambda self, state: dict(output))
        g = p4_coloured if alg == "matching-scheme" else with_colours(
            k4_oriented, [BLACK, WHITE, WHITE, WHITE])
        path = tmp_path / "g.json"
        path.write_text(dumps(g))
        code = main(["run", "--graph", str(path), "--alg", alg])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["error"] == "InvariantError"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("alg", ["star-ds", "star-matching"])
    def test_simulated_forest_of_bare_roots_exit_4(self, capsys, monkeypatch, tmp_path, alg):
        """Every node a root with no leaves assembles, but is no star forest."""
        monkeypatch.setattr(StarForestAlgorithm, "finalize",
                            lambda self, state: {"parent_port": None, "matched_port": None})
        path = tmp_path / "g.json"
        path.write_text(dumps(random_weak(12, 3, 1)))
        code = main(["run", "--graph", str(path), "--alg", alg])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["error"] == "InvariantError"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("sends", [{9: b"x"}, {True: b"x"}, {1.0: b"x"}, {"1": b"x"},
                                       {1: "x"}],
                             ids=["port-9", "port-True", "port-1.0", "port-str", "str-payload"])
    def test_send_contract_broken_exit_4(self, capsys, monkeypatch, c4_file, sends):
        """A step that sends on anything but an int port in 1..deg, or sends a
        payload that is not bytes, is a bug in the algorithm."""
        monkeypatch.setattr(StarForestAlgorithm, "step",
                            lambda self, state, inbox, round_no: (state, dict(sends), None))
        code = main(["run", "--graph", c4_file, "--alg", "star-ds"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["error"] == "InvariantError"
        assert "Traceback" not in captured.err

    def test_step_without_its_wake_exit_4(self, capsys, monkeypatch, c4_file):
        """A step that returns (state, sends) breaks the engine's contract, not
        the input's: exit 4, where unpacking it raised a ValueError (exit 2)."""
        monkeypatch.setattr(StarForestAlgorithm, "step",
                            lambda self, state, inbox, round_no: (state, {}))
        code = main(["run", "--graph", c4_file, "--alg", "star-ds"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out) == {
            "error": "InvariantError",
            "message": "star-forest returned a 2-tuple, not (state, sends, wake)"}
        assert "Traceback" not in captured.err


class TestOracleVerifyExport:
    def test_oracle_sizes(self, capsys, c4_file):
        for problem, size in (("ds", 2), ("matching", 2)):
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

    @pytest.mark.parametrize("members, violations", [
        ([1, 3], []),
        ([], []),
        ([0, 1, 2], ["edge (0, 1) lies inside the set", "edge (1, 2) lies inside the set"]),
        ([1, 99], ["99 is not a node"]),
    ], ids=["odd-nodes", "empty", "path-inside", "outside"])
    def test_verify_independent_set(self, capsys, tmp_path, c4_file, members, violations):
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"kind": "independent-set", "members": members}))
        code, out = run_cli(capsys, "verify", "--graph", c4_file, "--solution", str(path))
        assert code == 0
        assert json.loads(out) == {"ok": not violations, "violations": violations}

    @pytest.mark.parametrize("kind", ["dominating-set", "independent-set", "matching"])
    def test_verify_on_the_empty_graph(self, capsys, tmp_path, kind):
        graph, solution = tmp_path / "empty.json", tmp_path / "sol.json"
        graph.write_text(json.dumps({"nodes": [], "edges": []}))
        solution.write_text(json.dumps({"kind": kind, "members": []}))
        code, out = run_cli(capsys, "verify", "--graph", str(graph), "--solution", str(solution))
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

    @pytest.mark.parametrize("problem", ["ds", "matching"])
    def test_oracle_on_the_empty_graph(self, capsys, tmp_path, problem):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"nodes": [], "edges": []}))
        code, out = run_cli(capsys, "oracle", "--graph", str(path), "--problem", problem)
        assert code == 0
        assert json.loads(out) == {"members": [], "size": 0}

    @pytest.mark.parametrize("family, problem, size", [
        (["symmetric-complete", "--delta", "5"], "ds", 1),
        (["symmetric-complete", "--delta", "5"], "matching", 3),
        # the 48-node lower-bound constructions: cheap searches, whatever n is
        (["weak-layered", "--n", "8", "--delta", "5"], "ds", 8),
        (["strong-blowup", "--n", "24", "--delta", "3"], "ds", 12),
    ], ids=["k6-ds", "k6-matching", "weak-layered-48", "strong-blowup-48"])
    def test_oracle_solves_within_the_work_budget(self, capsys, tmp_path, family,
                                                  problem, size):
        path = tmp_path / "g.json"
        assert run_cli(capsys, "gen", "--family", *family, "--out", str(path))[0] == 0
        code, out = run_cli(capsys, "oracle", "--graph", str(path), "--problem", problem)
        assert code == 0 and json.loads(out)["size"] == size

    @pytest.mark.parametrize("kind, members, violation", [
        ("matching", [[0, 5]], "(0, 5) is not an edge of the graph"),
        ("dominating-set", [0, 2, 99], "99 is not a node"),
    ])
    def test_verify_reports_members_outside_the_graph(self, capsys, tmp_path, c4_file,
                                                      kind, members, violation):
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"kind": kind, "members": members}))
        code, out = run_cli(capsys, "verify", "--graph", c4_file, "--solution", str(path))
        assert code == 0
        assert json.loads(out) == {"ok": False, "violations": [violation]}

    @pytest.mark.parametrize("members", [[0, 1.5], [True, 2], [[0, 1.5]], [[True, 0]]])
    def test_verify_rejects_coerced_members(self, capsys, tmp_path, c4_file, members):
        kind = "matching" if isinstance(members[0], list) else "dominating-set"
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"kind": kind, "members": members}))
        code, out = run_cli(capsys, "verify", "--graph", c4_file, "--solution", str(path))
        assert code == 2 and json.loads(out)["error"] == "MalformedSolutionError"

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

    def test_export_dot_numbered_cycle_arrows_follow_successors(self):
        out = export_dot(numbered_cycle(5).graph)
        arrows = sorted(line.strip().rstrip(";") for line in out.splitlines()
                        if "->" in line)
        assert arrows == sorted(f"{v} -> {(v + 1) % 5}" for v in range(5))

    def test_long_augmenting_path(self, capsys, tmp_path):
        # a properly coloured 3000-node path whose ids make the oracle's
        # augmenting searches run along the whole path
        n = 3000
        ids = [1499 - p // 2 if p % 2 == 0 else 1500 + p // 2 for p in range(n)]
        colours = [BLACK if v < n // 2 else WHITE for v in range(n)]
        path = tmp_path / "path.json"
        path.write_text(dumps(ascending_ports(n, list(zip(ids, ids[1:])), colours)))
        code, out = run_cli(capsys, "oracle", "--graph", str(path), "--problem", "matching")
        assert code == 0 and json.loads(out)["size"] == 1500
        code, out = run_cli(capsys, "run", "--graph", str(path), "--alg", "star-matching",
                            "--oracle")
        assert code == 0 and json.loads(out)["optimal_size"] == 1500

    def test_long_odd_cycle_matching(self, capsys, tmp_path):
        # a non-bipartite graph far above the exponential oracles' default
        # limit: the matching solver must neither recurse per node nor
        # search subsets
        path = tmp_path / "c1501.json"
        code, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "1501",
                          "--out", str(path))
        assert code == 0
        code = main(["oracle", "--graph", str(path), "--problem", "matching"])
        captured = capsys.readouterr()
        assert code == 0 and json.loads(captured.out)["size"] == 750
        assert "Traceback" not in captured.err

    def test_export_dot_bad_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("nope")
        code, _ = run_cli(capsys, "export-dot", "--graph", str(path))
        assert code == 2


# export_dot's bytes per graph: SHA-256 over its text with no solution,
# with a maximum matching and with a minimum dominating set, each
# followed by a newline
EXPORT_DOT = [
    ("numbered_cycle(5)", lambda: numbered_cycle(5).graph,
     "144c1bbba59a2c777bb1fef0c1fbd5436a54829d871677fb85be684c19bdb39e"),
    ("strong_blowup(C8, 3)", lambda: strong_blowup(numbered_cycle(8), 3),
     "9cc8f15958827f14fbabebfb8a51be09fe42c75341829e1d5c99f49816678a65"),
    ("weak_layered(C4, 3)", lambda: weak_layered(numbered_cycle(4), 3),
     "63905fcb3174ae16882acea14d21c46048bc352020621a3f3b59ae0966ef2e2b"),
    ("cycle_power(C9, 2)", lambda: cycle_power(numbered_cycle(9), 2),
     "86b81c90d99c8cc049df5b101726fb7db4ec5275d4319daa52f2465bbd056ba1"),
    ("random_weak(30, 3, 1)", lambda: random_weak(30, 3, 1),
     "c4861aa51747f26afb74b2df707c1acb2bd9f0f47f2f9ced799a4c1bbe43b332"),
    ("unoriented random_weak(30, 4, 2)", lambda: random_weak(30, 4, 2, oriented=False),
     "b95b221504ea930a720adacce4b41acb5f7781cb6253cca6bc502856d5df8af4"),
    ("shuffle_ports(random_bipartite(24, 3, 4), 7)",
     lambda: shuffle_ports(random_bipartite(24, 3, 4), 7),
     "959f52c9df02e24797a2a81bb7f77e47e53a708f171509ffcf86a390357eb04f"),
]


@pytest.mark.parametrize("make, digest", [(m, d) for _, m, d in EXPORT_DOT],
                         ids=[name for name, _, _ in EXPORT_DOT])
def test_export_dot_pinned(make, digest):
    g = make()
    h = hashlib.sha256()
    for solution in (None,
                     Solution(SolutionKind.MATCHING, brute_max_matching(g)),
                     Solution(SolutionKind.DOMINATING_SET, brute_min_dominating_set(g))):
        h.update(export_dot(g, solution).encode() + b"\n")
    assert h.hexdigest() == digest


# gen's bytes per family: SHA-256 over its stdout with each parameter set
# in turn
GEN_PARAMS = [["--n", "8", "--delta", "3", "--k", "2", "--seed", "3"],
              ["--n", "12", "--delta", "5", "--k", "3", "--seed", "4"]]
GEN = {
    "cycle": "36cccfcfc15575d761f42aa35824500b3d142d85778321e8c4d2f05e7097cd7a",
    "cycle-power": "fda56c06cebc6b3f83e5f2b4bcb364599d2d32a19ecae94f698f93d8635cb0b5",
    "strong-blowup": "7b4bf34bcc79a7710350f3057784973ae31b46551a6e2401dcfdf3b038432e05",
    "weak-layered": "7e787ff3a2895e1b2d568fabaf6c4bfc85bab2bf54ac47d12a753cc16f77abe4",
    "symmetric-complete": "3d3d4dcfd83b6c5583b2865357c6a0efb302a876fdf2fad1a994ad16dd9aaf49",
    "random-bipartite": "477ae146634b8989c217c8c78f170c6a847ee12a3358d673377f9d37d1725ad6",
    "random-weak": "de5639451a597351f9125fcdd7e987f0c8d4e2d4db451c945101f2d615a21e59",
}


@pytest.mark.parametrize("family, digest", list(GEN.items()), ids=list(GEN))
def test_gen_pinned(capsys, family, digest):
    h = hashlib.sha256()
    for params in GEN_PARAMS:
        code, out = run_cli(capsys, "gen", "--family", family, *params)
        assert code == 0
        h.update(out.encode())
    assert h.hexdigest() == digest


def test_gen_help_pinned(capsys, monkeypatch):
    """SHA-256 of ``gen --help`` on a terminal wide enough that no line wraps.

    At 80 columns argparse wraps the usage line differently from Python
    3.13 on, so the digest would depend on the interpreter.
    """
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as info:
        main(["gen", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0e789256b9bd8faf6ee2eb0c08536df14773567c191f3ac86b4dbf1f6de35318")


# which document is nested too deeply -> argv after the graph, error reported
_DEEP = {
    "run-graph": (["run", "--alg", "star-ds"], "GraphFormatError"),
    "oracle-graph": (["oracle", "--problem", "ds"], "GraphFormatError"),
    "verify-graph": (["verify", "--solution", "SOLUTION"], "GraphFormatError"),
    "export-graph": (["export-dot"], "GraphFormatError"),
    "verify-solution": (["verify", "--solution", "DEEP"], "MalformedSolutionError"),
    "export-solution": (["export-dot", "--solution", "DEEP"], "MalformedSolutionError"),
    "colour-file": (["run", "--alg", "odd-ds", "--weak-colouring", "external:DEEP"],
                    "MalformedSolutionError"),
}


@pytest.mark.parametrize("case", sorted(_DEEP))
def test_deeply_nested_json_exit_2(capsys, tmp_path, k4_oriented, case):
    argv, error = _DEEP[case]
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    good = tmp_path / "g.json"
    good.write_text(dumps(k4_oriented))
    solution = tmp_path / "s.json"
    solution.write_text(json.dumps({"kind": "dominating-set", "members": [0]}))
    graph = deep if case.endswith("-graph") else good
    argv = [argv[0], "--graph", str(graph)] + [
        a.replace("SOLUTION", str(solution)).replace("DEEP", str(deep)) for a in argv[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, captured.out
    assert json.loads(captured.out)["error"] == error
    assert "Traceback" not in captured.err


def _graph_doc(n, edges, colours=None):
    """A graph document with ``(u, v, port_u, port_v, dir)`` edges, not validated."""
    return {"nodes": [{"id": v, "colour": colours and colours[v]} for v in range(n)],
            "edges": [dict(zip(("u", "v", "port_u", "port_v", "dir"), e)) for e in edges]}


# structural fault -> (a graph document with it, the GraphFormatError message)
_GRAPH_FAULTS = {
    "self-loop": (_graph_doc(2, [(0, 0, 1, 2, None), (0, 1, 3, 1, None)]),
                  "self-loop at node 0"),
    "duplicate-edge": (_graph_doc(2, [(0, 1, 1, 1, None), (1, 0, 2, 2, None)]),
                       "edge (0, 1) listed twice"),
    "port-clash": (_graph_doc(3, [(0, 1, 1, 1, None), (0, 2, 1, 1, None)]),
                   "port 1 reused at node 0"),
    "port-gap": (_graph_doc(3, [(0, 1, 1, 1, None), (1, 2, 3, 1, None)]),
                 "node 1: ports [1, 3] are not exactly 1..2"),
    "isolated-node": (_graph_doc(3, [(0, 1, 1, 1, None)]), "node 2 has no neighbours"),
    "out-of-range": (_graph_doc(2, [(0, 2, 1, 1, None)]),
                     "edge (0, 2) out of range for 2 nodes"),
    "bad-dir": (_graph_doc(2, [(0, 1, 1, 1, "xy")]),
                "direction must be 'uv', 'vu' or None, got 'xy'"),
    "unknown-colour": (_graph_doc(2, [(0, 1, 1, 1, None)], ["red", BLACK]),
                       "unknown colour 'red'"),
}


@pytest.mark.parametrize("fault", sorted(_GRAPH_FAULTS))
def test_graph_fault_is_a_graph_format_error(capsys, tmp_path, fault):
    doc, message = _GRAPH_FAULTS[fault]
    with pytest.raises(errors.GraphFormatError) as caught:
        loads(json.dumps(doc))
    assert str(caught.value) == message
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "run", "--graph", str(path), "--alg", "star-ds")
    assert code == 2
    assert json.loads(out) == {"error": "GraphFormatError", "message": message}


# every LocalGraphError subclass in `errors` and the exit code it must give
_EXIT_CODES = {
    "LocalGraphError": 2, "GraphFormatError": 2, "MalformedSolutionError": 2,
    "TooLargeError": 2, "CapabilityError": 3, "InvariantError": 4,
}

_ALGORITHMS = ["star-ds", "star-matching", "matching-scheme", "odd-ds", "all-nodes"]
_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
_STAR = [(0, 1), (0, 2), (0, 3)]


def _oriented(pairs):
    return {pair: "uv" for pair in pairs}


_COLOUR_ALGS = ["star-ds", "star-matching", "matching-scheme"]

# the simulated algorithm each CLI name runs, as its refusals name it
_NAMES = {"star-ds": "star-forest", "star-matching": "star-forest",
          "matching-scheme": "matching-scheme"}


def _needs(algs, need):
    return {alg: f"{_NAMES[alg]} needs {need}" for alg in algs}


# instance -> (graph, the CapabilityError message each algorithm that needs
# what it lacks reports)
_CAPABILITY_MATRIX = {
    "uncoloured": (ascending_ports(4, _K4, None, _oriented(_K4)),
                   _needs(_COLOUR_ALGS, "node colours")),
    "not-weak": (ascending_ports(4, _K4, [WHITE] * 4, _oriented(_K4)),
                 {**_needs(["star-ds", "star-matching"], "a weak 2-colouring"),
                  **_needs(["matching-scheme"], "a proper 2-colouring")}),
    "weak-not-proper": (ascending_ports(4, _K4, [BLACK, WHITE, BLACK, WHITE],
                                        _oriented(_K4)),
                        _needs(["matching-scheme"], "a proper 2-colouring")),
    "unoriented": (ascending_ports(4, _STAR, [BLACK, WHITE, WHITE, WHITE]),
                   {"odd-ds": "pipeline requires an edge orientation"}),
    "even-bound": (ascending_ports(4, _C4, [BLACK, WHITE, BLACK, WHITE], _oriented(_C4)),
                   {"odd-ds": "degree bound 2 is even"}),
    "complete": (ascending_ports(4, _STAR, [BLACK, WHITE, WHITE, WHITE],
                                 _oriented(_STAR)), {}),
}


def _refusal(call):
    """The message and class a call raises, or None when it returns."""
    try:
        call()
    except (errors.LocalGraphError, ValueError) as exc:
        return str(exc), type(exc).__name__
    return None


@pytest.mark.parametrize("instance", ["uncoloured", "not-weak", "weak-not-proper"])
def test_both_implementations_refuse_alike(instance):
    """The simulated algorithm and its centralized reference refuse the
    same graphs with the same class and message."""
    g, refusals = _CAPABILITY_MATRIX[instance]
    star = [_refusal(lambda: run_star_forest(g)), _refusal(lambda: star_forest(g))]
    scheme = [_refusal(lambda: run_matching_scheme(g, 1)),
              _refusal(lambda: approximate_maximum_matching(g, 1)),
              _refusal(lambda: eliminate_length(g, frozenset(), 1)),
              _refusal(lambda: flood_phase(g, frozenset(), 1))]
    for alg, outcomes in (("star-ds", star), ("matching-scheme", scheme)):
        assert [o and o[0] for o in outcomes] == [refusals.get(alg)] * len(outcomes)
        assert len(set(outcomes)) == 1, outcomes


@pytest.mark.parametrize("k, max_degree, refusal", [
    # the budget 6k^2 on degree bound 2 passes 10^6
    (409, None, ("matching-scheme with k=409 on degree bound 2 needs more than 1000000 "
                 "rounds", "TooLargeError")),
    (0, None, ("k must be at least 1", "ValueError")),
    # a declared bound below the actual degree 2
    (1, 1, ("declared degree bound 1 below actual 2", "ValueError")),
])
def test_both_scheme_implementations_refuse_the_same_parameters(k, max_degree, refusal):
    g = random_bipartite(10, 2, 0)
    assert g.max_degree == 2
    outcomes = [_refusal(lambda: run_matching_scheme(g, k, max_degree=max_degree)),
                _refusal(lambda: approximate_maximum_matching(g, k, max_degree=max_degree))]
    if k >= 1:      # eliminate_length refuses an i < 1 with its own message
        outcomes.append(_refusal(lambda: eliminate_length(g, frozenset(), k,
                                                          max_degree=max_degree)))
    assert outcomes[0] == refusal
    assert len(set(outcomes)) == 1, outcomes


class TestExitCodeContract:
    def test_table_covers_every_error_class(self):
        defined = {name for name, cls in vars(errors).items()
                   if isinstance(cls, type) and issubclass(cls, errors.LocalGraphError)}
        assert defined == set(_EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(_EXIT_CODES))
    def test_planted_error_exit_code(self, capsys, monkeypatch, p4_file, name):
        import localgraphs.cli as cli

        def broken(*args, **kwargs):
            raise getattr(errors, name)("planted")

        monkeypatch.setattr(cli, "run_matching_scheme", broken)
        code, out = run_cli(capsys, "run", "--graph", p4_file, "--alg", "matching-scheme")
        assert code == _EXIT_CODES[name]
        assert json.loads(out) == {"error": name, "message": "planted"}

    @pytest.mark.parametrize("alg", _ALGORITHMS)
    @pytest.mark.parametrize("instance", sorted(_CAPABILITY_MATRIX))
    def test_capability_matrix(self, capsys, tmp_path, instance, alg):
        g, refusals = _CAPABILITY_MATRIX[instance]
        path = tmp_path / "g.json"
        path.write_text(dumps(g))
        code, out = run_cli(capsys, "run", "--graph", str(path), "--alg", alg)
        assert code == (3 if alg in refusals else 0), out
        if alg in refusals:
            assert json.loads(out) == {"error": "CapabilityError", "message": refusals[alg]}

    def test_gen_even_delta_is_input_error(self, capsys):
        code, out = run_cli(capsys, "gen", "--family", "symmetric-complete", "--delta", "4")
        assert code == 2
        assert json.loads(out) == {
            "error": "ValueError",
            "message": "K_(delta+1) is delta-edge-colourable only for odd delta, got 4"}


# -- one parser per process ------------------------------------------------------

def _outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv); a usage error or --help exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_outcome(capsys, monkeypatch, argv):
    """The same, parsed by a newly built parser."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli._build_parser())
        return _outcome(capsys, argv)


class TestParserReuse:
    def test_one_parser_answers_a_mixed_sequence_like_fresh_ones(
            self, capsys, monkeypatch, tmp_path, k4_oriented):
        bad, uncoloured, graph, solution = (str(tmp_path / name) for name in
                                            ("bad.json", "k4.json", "g.json", "sol.json"))
        (tmp_path / "bad.json").write_text("{broken")
        (tmp_path / "k4.json").write_text(dumps(k4_oriented))
        (tmp_path / "sol.json").write_text(
            json.dumps({"kind": "dominating-set", "members": [0, 3, 5]}))
        sequence = [
            (["run", "--graph", graph, "--alg", "no-such-alg"], 2),          # usage error
            (["run", "--graph", bad, "--alg", "star-ds"], 2),                # input error
            (["run", "--graph", uncoloured, "--alg", "star-ds"], 3),         # capability
            (["gen", "--family", "random-weak", "--n", "12", "--seed", "4",
              "--out", graph], 0),
            (["gen", "--family", "weak-layered", "--n", "4", "--delta", "3"], 0),
            (["run", "--graph", graph, "--alg", "star-ds", "--oracle"], 0),
            (["run", "--graph", graph, "--alg", "matching-scheme", "--k", "2",
              "--oracle"], 0),
            (["verify", "--graph", graph, "--solution", solution], 0),
            (["oracle", "--graph", graph, "--problem", "matching"], 0),
            (["gen", "--family", "cycle", "--n", "eight"], 2),                # usage error
        ]
        monkeypatch.setattr(cli, "_parser", None)
        shared = None
        for argv, code in sequence:
            got = _outcome(capsys, argv)
            shared = shared or cli._parser
            assert cli._parser is shared        # built once, then reused
            assert got[0] == code, got
            assert got == _fresh_outcome(capsys, monkeypatch, argv), argv

    @pytest.mark.parametrize("command", [[], ["gen"], ["run"], ["oracle"], ["verify"],
                                         ["export-dot"]])
    def test_help_texts_equal_a_fresh_build(self, capsys, monkeypatch, command):
        _outcome(capsys, ["oracle", "--graph", "missing.json", "--problem", "ds"])
        got = _outcome(capsys, command + ["--help"])
        assert got[0] == 0 and got[1]
        assert got == _fresh_outcome(capsys, monkeypatch, command + ["--help"])


@pytest.mark.parametrize("argv", [["run", "--alg", "white-is"], ["oracle", "--problem", "is"]],
                         ids=["run-white-is", "oracle-is"])
def test_removed_choices_are_usage_errors(capsys, c4_file, argv):
    """The independent-set baseline and oracle are gone: argparse refuses
    their names, on a graph they used to accept."""
    command, option, choice = argv
    code, out, err = _outcome(capsys, [command, "--graph", c4_file, option, choice])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: localgraph {command} ")
    assert f"error: argument {option}: invalid choice: '{choice}'" in err
    assert "Traceback" not in err


# -- malformed documents -------------------------------------------------------

_KEYS = ["nodes", "edges", "id", "colour", "u", "v", "port_u", "port_v", "dir",
         "kind", "members"]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.integers(-2**80, 2**80),
    st.floats(), st.text(max_size=4),
    st.sampled_from([BLACK, WHITE, "uv", "vu", "matching", "dominating-set",
                     "independent-set"]))
_JUNK = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

_GRAPH_DOCS = [graph_to_json_dict(g) for g, _ in _CAPABILITY_MATRIX.values()]
_SOLUTION_DOCS = [{"kind": "matching", "members": [[0, 1]]},
                  {"kind": "dominating-set", "members": [0, 2]},
                  {"kind": "independent-set", "members": [1]}]
# command -> strategy for its arguments after --graph; SOLUTION names the solution file
_ARGUMENTS = {
    "run": st.tuples(st.sampled_from(_ALGORITHMS), st.booleans()).map(
        lambda a: ["--alg", a[0]] + ["--oracle"] * a[1]),
    "oracle": st.sampled_from(["ds", "matching"]).map(lambda p: ["--problem", p]),
    "verify": st.just(["--solution", "SOLUTION"]),
    "export-dot": st.sampled_from([[], ["--solution", "SOLUTION"]]),
}


@st.composite
def _mutated(draw, value):
    """``value`` with one part deleted or replaced by junk, mostly deep inside."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        out = copy.copy(value)
        key = draw(st.sampled_from(list(value) if isinstance(value, dict)
                                   else range(len(value))))
        if draw(st.booleans()):
            del out[key]
        else:
            out[key] = draw(_mutated(value[key]))
        return out
    return draw(_JUNK)


@st.composite
def _malformed(draw, docs):
    """JSON text of a valid document with up to two mutations."""
    doc = draw(st.sampled_from(docs))
    for _ in range(draw(st.integers(0, 2))):
        doc = draw(_mutated(doc))
    return json.dumps(doc)


@pytest.mark.parametrize("command", sorted(_ARGUMENTS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), graph=_malformed(_GRAPH_DOCS), solution=_malformed(_SOLUTION_DOCS))
def test_malformed_documents_keep_exit_contract(tmp_path_factory, command, data, graph,
                                                 solution):
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "g.json").write_text(graph)
    (workdir / "s.json").write_text(solution)
    argv = [command, "--graph", str(workdir / "g.json")] + [
        str(workdir / "s.json") if a == "SOLUTION" else a
        for a in data.draw(_ARGUMENTS[command])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if command == "export-dot" and code == 0:
        assert lines[0] in ("graph g {", "digraph g {")
    else:
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)

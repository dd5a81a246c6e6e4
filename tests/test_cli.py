import gc
import importlib
import json

import pytest

from tworoman import FamilySpec, cli, generate, parse_graph_file, write_graph_file
from tworoman.cli import cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestValidate:
    def test_invalid_at_two(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "validate", fixture(fixtures_dir, "fig1_star.txt"),
                           "--attack", "2")
        assert code == 1
        assert "invalid" in out
        assert "[1, 2]" in out

    def test_valid_at_one(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "validate", fixture(fixtures_dir, "fig1_star.txt"),
                           "--attack", "1")
        assert code == 0 and "valid" in out

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "validate", fixture(fixtures_dir, "fig2_k6.txt"),
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True and doc["weight"] == 4

    def test_unlabeled_file_is_usage_error(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "validate", fixture(fixtures_dir, "p4.txt"))
        assert code == 2 and "no labels" in err


class TestSolve:
    def test_text_output(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "solve", fixture(fixtures_dir, "fig2_k6.txt"))
        assert code == 0
        assert "gamma: 4" in out

    def test_json_output(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "solve", fixture(fixtures_dir, "fig7_eccd.txt"),
                           "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["gamma"] == 8 and doc["optimal_number"] == 2
        assert doc["stats"]["nodes"] > 0
        assert doc["stats"]["method"] == "eccd"
        assert doc["stats"]["frontier_width"] is None

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_order_past_recursion_limit(self, capsys, tmp_path, kind):
        path = tmp_path / "g.txt"
        path.write_text(write_graph_file(generate(FamilySpec(kind, (1200,)))))
        code, out, _ = run(capsys, "solve", str(path), "--json")
        assert code == 0 and json.loads(out)["gamma"] == 960

    def test_json_frontier_width(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"),
                           "--method", "bruteforce", "--json")
        assert code == 0
        assert json.loads(out)["stats"]["frontier_width"] == 1

    def test_max_twos(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "solve", fixture(fixtures_dir, "fig2_k6.txt"),
                           "--max-twos", "1", "--json")
        assert json.loads(out)["gamma"] == 6

    def test_two_mode_min(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"),
                           "--two-mode", "min", "--json")
        doc = json.loads(out)
        assert doc["gamma"] == 4 and doc["partition_sizes"]["v2"] == 0

    def test_all_flag(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"),
                           "--all", "--json")
        doc = json.loads(out)
        assert doc["feasible_two_counts"] == [0, 1, 2]
        assert len(doc["all_minimum"]) >= 5
        assert doc["stats"]["method"] == "bruteforce"
        assert [doc["labels"][str(v)] for v in range(4)] == doc["all_minimum"][0]

    def test_all_vectors_in_id_order(self, capsys, tmp_path):
        p5 = tmp_path / "p5.txt"
        p5.write_text("4;-1;3\n0;-1;1\n1;-1;0,2\n2;-1;1,3\n3;-1;2,4\n")
        code, out, _ = run(capsys, "solve", str(p5), "--all", "--json")
        doc = json.loads(out)
        assert code == 0
        assert [doc["labels"][str(v)] for v in range(5)] == [0, 2, 0, 2, 0]
        assert doc["all_minimum"] == [[0, 2, 0, 2, 0]]
        code, out, _ = run(capsys, "solve", str(p5), "--all")
        assert code == 0 and out.endswith("minimum labelings: 1\n  0,2,0,2,0\n")

    def test_method_selection(self, capsys, fixtures_dir):
        for method in ("bruteforce", "eccd", "auto"):
            code, out, _ = run(capsys, "solve", fixture(fixtures_dir, "k66.txt"),
                               "--method", method, "--json")
            assert code == 0 and json.loads(out)["gamma"] == 8

    def test_dot_export(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "out.dot"
        code, _, _ = run(capsys, "solve", fixture(fixtures_dir, "fig2_k6.txt"),
                         "--dot", str(target))
        assert code == 0
        assert target.read_text().startswith("graph G {")


class TestOptimal:
    def test_optimal_graph(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "optimal", fixture(fixtures_dir, "fig7_eccd.txt"))
        assert code == 0
        assert "optimal (optimal number 2)" in out
        assert "0-2-0-2-0" in out

    def test_suboptimal_graph(self, capsys, tmp_path):
        path = tmp_path / "k3.txt"
        cli_main(["gen", "complete", "3", "-o", str(path)])
        capsys.readouterr()
        code, out, _ = run(capsys, "optimal", str(path))
        assert code == 0 and "sub-optimal" in out

    def test_suboptimal_dot_is_unlabeled(self, capsys, tmp_path):
        path = tmp_path / "k3.txt"
        target = tmp_path / "k3.dot"
        cli_main(["gen", "complete", "3", "-o", str(path)])
        capsys.readouterr()
        code, out, _ = run(capsys, "optimal", str(path), "--dot", str(target))
        assert code == 0 and "sub-optimal" in out
        dot = target.read_text()
        assert dot.startswith("graph G {") and '"0" [label="0"' in dot

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "optimal", fixture(fixtures_dir, "k66.txt"),
                           "--json")
        doc = json.loads(out)
        assert doc["optimal"] is True and doc["optimal_number"] == 4
        assert len(doc["certificate"]) == 5


class TestDensity:
    def test_text(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "density", fixture(fixtures_dir, "k66.txt"))
        assert code == 0 and "2/3" in out

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "density", fixture(fixtures_dir, "p4.txt"), "--json")
        doc = json.loads(out)
        assert doc == {"density": "1", "numerator": 1, "denominator": 1}


class TestGen:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "5")
        assert code == 0
        parsed = parse_graph_file(out)
        assert parsed.graph.order == 5 and parsed.labeling is None

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        code, _, _ = run(capsys, "gen", "grid", "5", "5", "-o", str(path))
        assert code == 0
        parsed = parse_graph_file(path.read_text())
        assert parsed.graph.order == 25 and parsed.graph.edge_count() == 40

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "2")
        assert code == 2

    def test_bad_family(self, capsys):
        code, _, _ = run(capsys, "gen", "wheel", "5")
        assert code == 2


class TestTiling:
    def test_verify_hexagonal(self, capsys):
        code, out, _ = run(capsys, "tiling", "hexagonal", "--size", "6x6",
                           "--wrap", "torus", "--verify-pattern")
        assert code == 0
        assert "valid, density 2/3" in out

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "tiling", "square", "--size", "14x14",
                           "--verify-pattern", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["valid"] is True and doc["density"] == "4/7"

    def test_patch_output(self, capsys):
        code, out, _ = run(capsys, "tiling", "square", "--size", "3x3")
        parsed = parse_graph_file(out)
        assert parsed.graph.order == 9 and parsed.graph.edge_count() == 12

    def test_dump_pattern(self, capsys):
        code, out, _ = run(capsys, "tiling", "square", "--dump-pattern")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(len(line.split()) == 3 for line in lines)

    def test_size_required(self, capsys):
        code, _, err = run(capsys, "tiling", "square")
        assert code == 2

    def test_bad_size(self, capsys):
        code, _, err = run(capsys, "tiling", "square", "--size", "7by7")
        assert code == 2

    def test_incompatible_torus(self, capsys):
        code, _, err = run(capsys, "tiling", "hexagonal", "--size", "6x5",
                           "--wrap", "torus")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["validate", "fig2_k6.txt", "--json", "--dot", "k6.dot"],
    ["validate", "fig1_star.txt", "--attack", "3"],
    ["gen", "grid", "5", "5", "-o", "grid.txt"],
    ["tiling", "square", "--size", "14x14", "--wrap", "torus", "-o", "sq.txt",
     "--dot", "sq.dot"],
    ["tiling", "square", "--size", "14x14", "--verify-pattern", "--json"],
], ids=["validate", "validate-a3", "gen", "tiling", "tiling-verify"])
def test_commands_without_a_search_build_no_masks(capsys, monkeypatch, fixtures_dir,
                                                  tmp_path, argv):
    # The two solver routes are the only modules that build adjacency bitmasks.
    argv = [fixture(fixtures_dir, a) if a.startswith("fig") else
            str(tmp_path / a) if "." in a else a for a in argv]
    built = []
    for name in ("tworoman.search", "tworoman.packing"):
        route = importlib.import_module(name)
        real = route.neighbor_masks
        monkeypatch.setattr(route, "neighbor_masks",
                            lambda nbrs, real=real: built.append(nbrs) or real(nbrs))
    assert run(capsys, *argv)[0] in (0, 1)
    assert built == []
    # the spies see the builds of a command that does search, one per route
    p4 = fixture(fixtures_dir, "p4.txt")
    for method in ("eccd", "bruteforce"):
        assert run(capsys, "solve", p4, "--method", method)[0] == 0
    assert len(built) == 2


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/graph.txt")
        assert code == 2

    def test_bad_attack_number(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "validate", fixture(fixtures_dir, "fig2_k6.txt"),
                           "--attack", "0")
        assert code == 2 and "error" in err

    def test_eccd_method_needs_attack_two(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"),
                           "--method", "eccd", "--attack", "3")
        assert code == 2 and "error" in err

    def test_eccd_method_rejects_two_mode(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"),
                           "--method", "eccd", "--two-mode", "min")
        assert code == 2 and "error" in err

    def test_eccd_method_rejects_all(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"),
                             "--method", "eccd", "--all")
        assert code == 2 and out == "" and "error" in err

    def test_two_mode_with_cap_rejected(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"),
                           "--two-mode", "min", "--max-twos", "1")
        assert code == 2 and "error" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0;9;1\n1;0;0\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("raw", ["abc", "-3", ""])
    def test_bad_max_order_env(self, capsys, fixtures_dir, monkeypatch, raw):
        monkeypatch.setenv("TWO_RD_MAX_ORDER", raw)
        code, out, err = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "TWO_RD_MAX_ORDER" in err
        assert repr(raw) in err

    @pytest.mark.parametrize("argv", [("validate", "fig2_k6.txt"),
                                      ("solve", "p4.txt", "--attack", "3")],
                             ids=["validate", "solve-attack-3"])
    def test_bad_max_order_env_any_subcommand(self, capsys, fixtures_dir, monkeypatch, argv):
        monkeypatch.setenv("TWO_RD_MAX_ORDER", "abc")
        code, out, err = run(capsys, argv[0], fixture(fixtures_dir, argv[1]), *argv[2:])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "TWO_RD_MAX_ORDER" in err

    def test_solve_has_no_threads_flag(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "solve", fixture(fixtures_dir, "p4.txt"),
                           "--threads", "2")
        assert code == 2 and "--threads" in err

    def test_tiling_has_no_threads_flag(self, capsys):
        code, _, err = run(capsys, "tiling", "square", "--size", "14x14",
                           "--verify-pattern", "--threads", "2")
        assert code == 2 and "--threads" in err

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestCollectorState:
    """``cli_main`` pauses the cyclic collector for the whole command, and
    hands back the caller's state."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, expected", [
        (["gen", "cycle", "5"], 0),
        (["solve"], 2),
        (["validate", "fig1_star.txt"], 1),
    ], ids=["success", "usage-error", "invalid-labeling"])
    def test_state_restored(self, capsys, fixtures_dir, enabled, argv, expected):
        argv = [fixture(fixtures_dir, a) if a.endswith(".txt") else a for a in argv]
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, *argv)[0] == expected
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("argv, build, after", [
        (["solve", "fig7_eccd.txt"], ("graphio", "parse_graph_file"), ("solver", "solve")),
        (["gen", "grid", "3", "3"], ("families", "generate"), ("graphio", "write_graph_file")),
        (["tiling", "square", "--size", "4x4"], ("tilings", "generate_patch"),
         ("graphio", "write_graph_file")),
        (["tiling", "square", "--size", "14x14", "--verify-pattern"],
         ("tilings", "generate_patch"), ("tilings", "validate")),
        (["optimal", "fig7_eccd.txt"], ("graphio", "parse_graph_file"),
         ("solver", "is_optimal")),
    ], ids=["solve", "gen", "tiling", "tiling-verify", "optimal"])
    def test_paused_for_whole_command(self, capsys, monkeypatch, fixtures_dir,
                                      argv, build, after):
        # The searches leave only a constant number of cycles, so the whole
        # command runs with the collector off, the build and what follows it.
        argv = [fixture(fixtures_dir, a) if a.endswith(".txt") else a for a in argv]
        seen = {}
        for step, (module, name) in (("build", build), ("after", after)):
            module = importlib.import_module(f"tworoman.{module}")
            real = getattr(module, name)

            def spy(*args, step=step, real=real):
                seen[step] = gc.isenabled()
                return real(*args)

            monkeypatch.setattr(module, name, spy)
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            assert run(capsys, *argv)[0] == 0
            assert gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == {"build": False, "after": False}

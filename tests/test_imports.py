"""What ``import tworoman`` and each command load, and the public names.

The load checks run in a fresh interpreter: pytest itself has imported
``dataclasses`` and, by now, every ``tworoman`` module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tworoman

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).parent / "fixtures"

# The public names and their home submodules, pinned from the package as it
# stood before its names became lazy.
HOMES = {
    "errors": ["BadLimitError", "BadSpecError", "DuplicateVertexError", "EmptyGraphError",
               "IncompatibleTorusError", "InvalidEccdError", "MixedLabelsError",
               "NotMinimumError", "OutOfRangeError", "ParseError", "SelfLoopError",
               "TooLargeError", "TwoRomanError", "UnknownNeighborError"],
    "families": ["FamilySpec", "density", "density_lower_bound", "gamma_formula", "generate"],
    "graph": ["Graph", "ball", "build_graph", "induced_subgraph", "max_degree",
              "open_neighborhood"],
    "graphio": ["ParseResult", "parse_graph_file", "structured_document", "to_dot",
                "write_graph_file"],
    "labeling": ["Labeling", "ValidationReport", "epn_set", "partition", "public_set",
                 "validate", "validate_by_enumeration"],
    "solver": ["EccdSet", "OptimalityCertificate", "SolveOptions", "SolveResult",
               "SolveStats", "assign_private_neighbors", "check_eccd", "eccd_to_labeling",
               "enumerate_minimum_labelings", "find_02020_path", "gamma_bruteforce",
               "gamma_via_eccd", "is_optimal", "max_eccd", "p5_candidates", "solve",
               "solve_finite_resources", "strip_ones", "two_extremal_minimum"],
    "tilings": ["Patch", "PatchSpec", "PatternReport", "TilingPattern",
                "ball_density_bounds", "ball_density_sequence", "ball_graph",
                "find_pattern", "generate_patch", "pattern_labeling", "pattern_table",
                "verify_pattern"],
}

# The exact routes, which cross-check each other, so none may import another,
# nor ``solver`` or ``cli``, which import the routes.
ROUTES = ("search", "packing")

# Runs ``python -m tworoman ARGS`` in this interpreter and prints the exit
# code, then every module the command loaded.
COMMAND_PROBE = """
import contextlib, io, runpy, sys
before = set(sys.modules)
sys.argv = ["tworoman", *sys.argv[1:]]
code = 0
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("tworoman", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(set(sys.modules) - before))
"""


def fresh_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def loaded_by(*argv, cwd=None):
    code, *modules = fresh_python(COMMAND_PROBE, *argv, cwd=cwd)
    return int(code), set(modules)


def test_import_loads_no_submodule():
    out = fresh_python("import sys, tworoman\n"
                       "print(*[m for m in sys.modules if m.startswith('tworoman.')])")
    assert out == []


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["validate", str(FIXTURES / "fig2_k6.txt"), "--json"],
    ["gen", "cycle", "10"],
], ids=["help", "validate", "gen"])
def test_light_commands_skip_solver_and_tilings(argv):
    code, modules = loaded_by(*argv)
    assert code == 0
    assert "tworoman.cli" in modules
    assert not modules & {"tworoman.solver", "tworoman.search", "tworoman.packing",
                          "tworoman.tilings", "dataclasses", "fractions"}


@pytest.mark.parametrize("argv", [
    ["solve", str(FIXTURES / "p4.txt"), "--json"],
    ["solve", str(FIXTURES / "p4.txt"), "--all"],
    ["optimal", str(FIXTURES / "p4.txt"), "--json"],
    ["density", str(FIXTURES / "p4.txt")],
    ["tiling", "square", "--size", "7x7", "--verify-pattern"],
    ["tiling", "hexagonal", "--size", "4x4"],
], ids=["solve", "solve-all", "optimal", "density", "tiling-verify", "tiling-patch"])
def test_no_command_loads_dataclasses(argv):
    code, modules = loaded_by(*argv)
    assert code == 0
    assert "tworoman.cli" in modules and "dataclasses" not in modules


def test_public_names_pinned():
    pinned = sorted(name for names in HOMES.values() for name in names)
    assert len(pinned) == 68
    assert sorted(tworoman.__all__) == pinned
    for module, names in HOMES.items():
        home = importlib.import_module(f"tworoman.{module}")
        for name in names:
            assert getattr(tworoman, name) is getattr(home, name), name
    assert set(tworoman.__all__) <= set(dir(tworoman))


def test_star_import_and_submodules_in_fresh_process():
    out = fresh_python(
        "import tworoman\n"
        "from tworoman import *\n"
        "print(len(tworoman.__all__), *[n for n in tworoman.__all__ if n not in globals()])\n"
        "print(tworoman.solver.__name__, tworoman.limits.__name__, tworoman.cli.__name__)\n"
        "print(tworoman.__version__)\n")
    assert out == ["68", "tworoman.solver", "tworoman.limits", "tworoman.cli", "0.1.0"]


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        tworoman.no_such_name
    with pytest.raises(ImportError):
        exec("from tworoman import no_such_name", {})


def imported_submodules(module):
    """The ``tworoman`` submodules that ``module``'s source imports, read with
    ``ast``; a public name imported from the package counts as its home."""
    tree = ast.parse((SRC / "tworoman" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("tworoman."))
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            path = ".".join(filter(None, ("tworoman" if node.level else "", node.module)))
            if path == "tworoman":
                found.update(tworoman._HOME.get(alias.name, alias.name)
                             for alias in node.names)
            elif path.startswith("tworoman."):
                found.add(path.split(".")[1])
    return found


@pytest.mark.parametrize("route", ROUTES)
def test_routes_import_no_other_route(route):
    imported = imported_submodules(route)
    assert "graph" in imported  # every route reads the graph: the reader sees imports
    assert not imported & ({"solver", "cli", *ROUTES} - {route})

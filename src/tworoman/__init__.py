"""Exact solver library for n-attack Roman domination on finite simple graphs.

Every public name loads on first use (PEP 562): ``import tworoman`` imports
no submodule, and ``tworoman.solve`` imports ``tworoman.solver`` the first
time it is read.  So a command pays only for the modules it runs.
"""

__version__ = "0.1.0"

# home submodule -> the public names it defines
_HOMES = {
    "errors": ("BadLimitError", "BadSpecError", "DuplicateVertexError", "EmptyGraphError",
               "IncompatibleTorusError", "InvalidEccdError", "MixedLabelsError",
               "NotMinimumError", "OutOfRangeError", "ParseError", "SelfLoopError",
               "TooLargeError", "TwoRomanError", "UnknownNeighborError"),
    "families": ("FamilySpec", "density", "density_lower_bound", "gamma_formula", "generate"),
    "graph": ("Graph", "ball", "build_graph", "induced_subgraph", "max_degree",
              "open_neighborhood"),
    "graphio": ("ParseResult", "parse_graph_file", "structured_document", "to_dot",
                "write_graph_file"),
    "labeling": ("Labeling", "ValidationReport", "epn_set", "partition", "public_set",
                 "validate", "validate_by_enumeration"),
    "solver": ("EccdSet", "OptimalityCertificate", "SolveOptions", "SolveResult",
               "SolveStats", "assign_private_neighbors", "check_eccd", "eccd_to_labeling",
               "enumerate_minimum_labelings", "find_02020_path", "gamma_bruteforce",
               "gamma_via_eccd", "is_optimal", "max_eccd", "p5_candidates", "solve",
               "solve_finite_resources", "strip_ones", "two_extremal_minimum"),
    "tilings": ("Patch", "PatchSpec", "PatternReport", "TilingPattern",
                "ball_density_bounds", "ball_density_sequence", "ball_graph",
                "find_pattern", "generate_patch", "pattern_labeling", "pattern_table",
                "verify_pattern"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset((*_HOMES, "cli", "limits"))

__all__ = sorted(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

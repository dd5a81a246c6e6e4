"""Named graph families, their closed-form 2-attack numbers, and density."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadSpecError
from .graph import Graph, build_graph
from .solver import solve

KINDS = ("path", "cycle", "complete", "star", "complete_bipartite", "grid")

_PARAM_COUNT = {"path": 1, "cycle": 1, "complete": 1, "star": 1,
                "complete_bipartite": 2, "grid": 2}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadSpecError(f"unknown family kind: {self.kind!r}")
        if len(self.params) != _PARAM_COUNT[self.kind]:
            raise BadSpecError(
                f"{self.kind} takes {_PARAM_COUNT[self.kind]} parameter(s), "
                f"got {len(self.params)}")
        if any(p < 1 for p in self.params):
            raise BadSpecError("parameters must be positive")
        if self.kind == "cycle" and self.params[0] < 3:
            raise BadSpecError("cycle needs at least 3 vertices")


def generate(spec: FamilySpec) -> Graph:
    """Standard graph of the family with deterministic vertex numbering.

    Paths and cycles number vertices along the walk, stars put the hub at 0,
    complete bipartite graphs number part A then part B, grids run row-major.
    """
    kind, params = spec.kind, spec.params
    if kind == "path":
        n = params[0]
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        n = params[0]
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        n = params[0]
        return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if kind == "star":
        n = params[0]
        return build_graph(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind == "complete_bipartite":
        a, b = params
        return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    rows, cols = params
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build_graph(rows * cols, edges)


def gamma_formula(spec: FamilySpec) -> int | None:
    """Closed-form 2-attack number, or None when only the solver can answer.

    Known forms: paths and cycles give n - floor(n/5); complete graphs give
    min(n, 4); stars on n leaves give n + 1; complete bipartite graphs with a
    part of size 2 against at least 2 give 4.  Grids and general bipartite
    shapes return None.
    """
    kind, params = spec.kind, spec.params
    if kind in ("path", "cycle"):
        n = params[0]
        return n - n // 5
    if kind == "complete":
        return min(params[0], 4)
    if kind == "star":
        return params[0] + 1
    if kind == "complete_bipartite":
        a, b = sorted(params)
        if a == 1:
            return b + 1
        if a == 2 and b >= 2:
            return 4
        return None
    return None


def density(graph: Graph) -> Fraction:
    """Exact 2-attack number divided by the order, in lowest terms.

    The number comes from ``solve``, so this runs at any order; its cost is
    that of the route ``solve`` picks.
    """
    if graph.order == 0:
        raise BadSpecError("density of an empty graph is undefined")
    return Fraction(solve(graph).gamma, graph.order)


def density_lower_bound(max_degree: int) -> Fraction:
    """min(1, 4/(max degree + 3)); every graph's density sits at or above
    this.  The cap only acts at max degree 0, where every vertex needs its
    own 1 and the density is exactly 1."""
    if max_degree < 0:
        raise BadSpecError("max_degree must be >= 0")
    return min(Fraction(1), Fraction(4, max_degree + 3))

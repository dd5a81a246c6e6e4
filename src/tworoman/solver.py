"""Exact 2-attack Roman domination solvers: the front door.

Two independent routes compute the domination number, each in its own
module:

* ``gamma_bruteforce`` -- depth-first branch and bound over per-vertex label
  choices with incremental validity pruning (the search is ``search``).
  Works for any attack number and supports a cap on the number of 2-labels.
* ``gamma_via_eccd`` -- maximizes a packing of end-coupled center-disjoint
  P5 subgraphs (``packing``) and reads the answer off the packing; the
  constructed 0-2-0-2-0 labeling is itself a minimum labeling.

The two routes are kept independent so they can be tested against each
other; neither consults the other's answer, and neither route module
imports the other.  Each builds its adjacency bitmasks with
``graph.neighbor_masks``.  This module holds the records, ``solve``, the
certificates, the variants and the constructive procedures, and
re-exports the packing route's public names.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from itertools import combinations

from . import limits
from ._record import record
from .errors import InvalidEccdError, NotMinimumError, TooLargeError
from .graph import Graph, induced_subgraph
from .labeling import Labeling, validate
from .limits import METHODS, TWO_MODES
# The packing route's public names have ``solver`` as their home (``__init__._HOMES``).
from .packing import EccdSet, _max_packing, check_eccd, max_eccd, p5_candidates
from .search import _Discharge, _frontier, _search, _search_order

# Largest order at which ``solve``'s ``auto`` always takes the packing route;
# past it ``_packing_pays`` picks the route.
_ECCD_MAX_ORDER = 22


@record
class SolveOptions:
    """Knobs for ``solve`` and ``gamma_bruteforce``; defaults give the plain
    2-attack number."""

    attack_n: int = 2
    max_twos: int | None = None
    two_mode: str = "any"
    method: str = "auto"
    enumerate_all: bool = False

    def __post_init__(self):
        if self.attack_n < 1:
            raise ValueError("attack_n must be >= 1")
        if self.max_twos is not None and self.max_twos < 0:
            raise ValueError("max_twos must be >= 0")
        if self.two_mode not in TWO_MODES:
            raise ValueError(f"two_mode must be one of {TWO_MODES}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.method == "eccd" and not self._packing_fits():
            raise ValueError("method 'eccd' needs attack_n == 2, no max_twos, no two_mode"
                             " and no enumerate_all")
        if self.two_mode != "any":
            if self.attack_n != 2:
                raise ValueError("two_mode requires attack_n == 2")
            if self.max_twos is not None:
                raise ValueError("two_mode cannot be combined with max_twos")

    def _packing_fits(self) -> bool:
        """Attack 2, no 2-cap, no two mode, no enumeration: what the packing route answers."""
        return (self.attack_n == 2 and self.max_twos is None and self.two_mode == "any"
                and not self.enumerate_all)


@record
class SolveStats:
    """Work done by one solve.

    ``nodes`` counts the branch-and-bound nodes of the optimum pass for the
    ``bruteforce`` route, and for the ``eccd`` route the inner sets that reach
    the per-set test of the packing sweep.  ``frontier_width`` is the largest
    frontier width of the vertex order the optimum pass used (``None`` for
    the ``eccd`` route).
    """

    nodes: int
    elapsed: float
    method: str
    frontier_width: int | None = None


@record
class SolveResult:
    gamma: int
    labeling: Labeling
    optimal_number: int
    stats: SolveStats
    all_minimum: tuple[Labeling, ...] | None = None
    feasible_two_counts: tuple[int, ...] | None = None


@record
class OptimalityCertificate:
    """A 0-2-0-2-0 path inside a witness minimum labeling."""

    path: tuple[int, int, int, int, int]
    labeling: Labeling


# ---------------------------------------------------------------------------
# branch-and-bound route (the search itself is ``search._search``)
# ---------------------------------------------------------------------------


def gamma_bruteforce(graph: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact minimum weight by branch and bound.

    Every pass is one run of the DFS core ``_search``, and all passes of a
    solve share one ``_Discharge``, built once: it holds the graph's
    neighbor tuples and adjacency masks, the attack number, and the residual
    discharging bound (the paper's gamma >= 4n/(Delta + 3), applied to the
    undecided part, plus the charge it owes the decided 0s that have no
    2-neighbor) that cuts subtrees, with its root state.  The passes run
    in the order of the README's pass table:

    * optimum: vertices in ``_search_order``, labels 0, 2, 1.  The incumbent
      starts at the all-1 labeling, which is always valid, and each valid
      labeling found drops the weight limit below its weight.  Its cost grows
      with how far the bound falls below gamma and with the width of the
      frontier that order leaves (``stats.frontier_width``), not with the
      order of the graph; ``stats.nodes`` counts this pass.
    * extremal count, when ``opts.two_mode`` is set: the optimum order at
      weight limit gamma.  Fewest 2s tries labels 0, 1, 2 and drops the
      2-cap below each count found; most 2s tries 2, 0, 1 and raises the
      2-floor above it.  The last count found pins the window.
    * witness: id order, labels 0, 1, 2, weight limit gamma, stopping at the
      first valid labeling, which is the lexicographically smallest minimum
      label vector with a 2-count in the window.  Or, with
      ``opts.enumerate_all``, enumeration: the same search under the 2-cap
      alone, run to the end, lists every minimum labeling in lex order, and
      the witness is the first one listed in the window.  The enumeration
      limit is checked before any search.
    """
    opts = opts or SolveOptions()
    if opts.enumerate_all:
        limit = limits.enumeration_max_order()
        if graph.order > limit:
            raise TooLargeError(graph.order, limit)
    start = time.perf_counter()
    n = graph.order
    nbrs = graph.neighbor_tuples()
    bound = _Discharge(nbrs, opts.attack_n)
    order, _, width = _search_order(nbrs)
    cap = n if opts.max_twos is None else opts.max_twos
    tlo, thi = 0, cap
    gamma = n

    def lower(labels, wgt, twos):
        nonlocal gamma
        gamma = wgt
        return wgt - 1, 0, cap

    nodes = _search(bound, order, (0, 2, 1), n - 1, 0, cap, lower)
    if opts.two_mode != "any":
        most = opts.two_mode == "maximize_twos"

        def extremal(labels, wgt, twos):
            nonlocal tlo, thi
            tlo = thi = twos
            return (gamma, twos + 1, n) if most else (gamma, 0, twos - 1)

        _search(bound, order, (2, 0, 1) if most else (0, 1, 2), gamma, 0, n, extremal)
    found = []
    keep = (gamma, 0, cap) if opts.enumerate_all else None

    def collect(labels, wgt, twos):
        found.append(tuple(labels))
        return keep

    window = (0, cap) if opts.enumerate_all else (tlo, thi)
    _search(bound, range(n), (0, 1, 2), gamma, *window, collect)
    first = next(labs for labs in found if tlo <= labs.count(2) <= thi)
    all_minimum = feasible = None
    if opts.enumerate_all:
        all_minimum = tuple(Labeling(graph, labs) for labs in found)
        feasible = tuple(sorted({labs.count(2) for labs in found}))
    stats = SolveStats(nodes, time.perf_counter() - start, "bruteforce", width)
    return SolveResult(gamma, Labeling(graph, first), n - gamma, stats,
                       all_minimum, feasible)


def enumerate_minimum_labelings(graph: Graph, attack_n: int = 2) -> list[Labeling]:
    """All minimum-weight valid labelings in lexicographic order: the
    ``all_minimum`` list of an enumerating ``gamma_bruteforce``, so the
    enumeration limit is checked before any search."""
    opts = SolveOptions(attack_n=attack_n, method="bruteforce", enumerate_all=True)
    return list(gamma_bruteforce(graph, opts).all_minimum)


# ---------------------------------------------------------------------------
# packing route (the packing itself is ``packing.max_eccd``) and certificates
# ---------------------------------------------------------------------------


def eccd_to_labeling(graph: Graph, eccd: EccdSet) -> Labeling:
    """0-2-0-2-0 on every packed path, 1 everywhere else.

    Shared end edges receive consistent labels by the packing rules; the
    result is re-checked to be valid at attack 2.
    """
    check_eccd(graph, eccd)
    labels = [1] * graph.order
    pattern = (0, 2, 0, 2, 0)
    for t in eccd.paths:
        for v, lab in zip(t, pattern):
            if labels[v] != 1 and labels[v] != lab:
                raise InvalidEccdError(f"conflicting labels forced on vertex {v}")
            labels[v] = lab
    result = Labeling(graph, tuple(labels))
    report = validate(result, 2)
    if not report.valid:
        raise InvalidEccdError(f"packing produced an invalid labeling: {report.witness}")
    return result


def gamma_via_eccd(graph: Graph) -> SolveResult:
    """Minimum weight via the maximum packing; attack number 2 only."""
    start = time.perf_counter()
    eccd, nodes = _max_packing(graph)
    witness = eccd_to_labeling(graph, eccd)
    gamma = graph.order - len(eccd)
    if witness.weight != gamma:
        raise AssertionError("packing labeling weight disagrees with packing size")
    stats = SolveStats(nodes, time.perf_counter() - start, "eccd")
    return SolveResult(gamma, witness, len(eccd), stats)


def is_optimal(graph: Graph) -> tuple[bool, OptimalityCertificate | None]:
    """Whether some valid labeling beats the all-1 labeling (gamma < order).

    Read off ``solve(graph)``, so it reaches every order ``solve`` reaches.
    The certificate is ``find_02020_path`` of ``solve``'s witness minimum
    labeling; the paper's characterization puts one in every such labeling.
    """
    result = solve(graph)
    if result.optimal_number == 0:
        return False, None
    path = find_02020_path(result.labeling)
    if path is None:
        raise AssertionError("minimum labeling of an optimal graph has no 0-2-0-2-0 path")
    return True, OptimalityCertificate(path, result.labeling)


def find_02020_path(labeling: Labeling) -> tuple[int, int, int, int, int] | None:
    """First P5 labeled 0-2-0-2-0 under the labeling, or None."""
    labels = labeling.labels
    nbrs = labeling.graph.neighbor_tuples()
    for c, lab in enumerate(labels):
        if lab:
            continue
        twos = [u for u in nbrs[c] if labels[u] == 2]
        for b, d in combinations(twos, 2):
            for bb, dd in ((b, d), (d, b)):
                for a in nbrs[bb]:
                    if labels[a] == 0 and a != c:
                        for e in nbrs[dd]:
                            if labels[e] == 0 and e != c and e != a:
                                return (a, bb, c, dd, e)
    return None


# ---------------------------------------------------------------------------
# constrained and extremal variants
# ---------------------------------------------------------------------------


def solve_finite_resources(graph: Graph, max_twos: int) -> SolveResult:
    """Minimum weight using at most ``max_twos`` 2-labels (always feasible)."""
    return gamma_bruteforce(graph, SolveOptions(max_twos=max_twos, method="bruteforce"))


def two_extremal_minimum(graph: Graph, mode: str,
                         enumerate_all: bool = False) -> SolveResult:
    """Among minimum-weight labelings, one with the fewest or most 2-labels.

    Runs at any order; only ``enumerate_all`` checks the enumeration limit.
    """
    if mode not in ("minimize_twos", "maximize_twos"):
        raise ValueError("mode must be 'minimize_twos' or 'maximize_twos'")
    return gamma_bruteforce(graph, SolveOptions(two_mode=mode, method="bruteforce",
                                                enumerate_all=enumerate_all))


def _packing_pays(nbrs: Sequence[tuple[int, ...]]) -> bool:
    """Whether ``auto`` takes the packing route past ``_ECCD_MAX_ORDER``: when
    the id order, which the branch and bound's witness pass walks, leaves a
    frontier wider than 10, or over a third of the vertices have degree <= 1,
    which the packing sweep never takes as inners.  Cycles, lattice balls and
    row-major grids with rows of at most 10 meet neither condition, sparse
    random graphs and trees meet one; both thresholds were fitted on seeded
    graphs of order 23-30.
    """
    n = len(nbrs)
    return _frontier(nbrs, range(n))[1] > 10 or 3 * sum(len(t) <= 1 for t in nbrs) > n


def solve(graph: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Front door: dispatch on method.  ``auto`` takes the packing route when the options
    fit it and the order is at most ``_ECCD_MAX_ORDER`` or ``_packing_pays``, the branch
    and bound otherwise."""
    opts = opts or SolveOptions()
    if opts.method == "eccd" or opts.method == "auto" and opts._packing_fits() and (
            graph.order <= _ECCD_MAX_ORDER or _packing_pays(graph.neighbor_tuples())):
        return gamma_via_eccd(graph)
    return gamma_bruteforce(graph, opts)


# ---------------------------------------------------------------------------
# constructive procedures on minimum labelings
# ---------------------------------------------------------------------------


def _require_minimum(graph: Graph, labeling: Labeling):
    if labeling.graph != graph:
        raise ValueError("labeling does not belong to this graph")
    if not validate(labeling, 2).valid:
        raise NotMinimumError("labeling is not a valid 2-attack labeling")
    gamma = solve(graph).gamma
    if labeling.weight != gamma:
        raise NotMinimumError(
            f"labeling weight {labeling.weight} differs from minimum {gamma}")


def assign_private_neighbors(graph: Graph, labeling: Labeling) -> tuple[Graph, dict[int, int]]:
    """Delete edges until every 2-vertex owns a private 0-neighbor.

    Works on a minimum labeling only.  Existing private neighbors are kept
    (lowest id per 2-vertex); each remaining 2-vertex adopts its lowest-id
    0-neighbor and that neighbor's edges to all other 2-vertices are removed.
    Returns the spanning subgraph and the 2-vertex -> private-0 matching.
    """
    _require_minimum(graph, labeling)
    labels = labeling.labels
    adj = [set(t) for t in graph.neighbor_tuples()]  # edited below
    matching: dict[int, int] = {}
    for v, lab in enumerate(labels):
        if lab == 0:
            t = [u for u in adj[v] if labels[u] == 2]
            if len(t) == 1 and t[0] not in matching:
                matching[t[0]] = v
    for t_i, lab in enumerate(labels):
        if lab != 2 or t_i in matching:
            continue
        candidates = [u for u in adj[t_i] if labels[u] == 0]
        if not candidates:
            raise NotMinimumError(f"2-vertex {t_i} has no 0-neighbor")
        v_i = min(candidates)
        cut = {w for w in adj[v_i] if labels[w] == 2 and w != t_i}
        adj[v_i] -= cut
        for w in cut:
            adj[w].discard(v_i)
        matching[t_i] = v_i
    sub = Graph._from_neighbors(tuple(tuple(sorted(s)) for s in adj), graph.external_ids)
    return sub, matching


def strip_ones(graph: Graph, labeling: Labeling) -> tuple[Graph, Labeling]:
    """Induced subgraph on the 0- and 2-labeled vertices, labels carried over."""
    _require_minimum(graph, labeling)
    keep = [v for v, lab in enumerate(labeling.labels) if lab != 1]
    sub = induced_subgraph(graph, keep)
    return sub, Labeling(sub, tuple(labeling.labels[v] for v in keep))

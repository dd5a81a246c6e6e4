"""Exact 2-attack Roman domination solvers.

Two independent routes compute the domination number:

* ``gamma_bruteforce`` -- depth-first branch and bound over per-vertex label
  choices with incremental validity pruning.  Works for any attack number
  and supports a cap on the number of 2-labels.
* ``gamma_via_eccd`` -- maximizes a packing of end-coupled center-disjoint
  P5 subgraphs and reads the answer off the packing; the constructed
  0-2-0-2-0 labeling is itself a minimum labeling.

The two routes are kept independent so they can be tested against each
other; neither consults the other's answer.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Sequence
from heapq import heapify, heappop, heappush, heappushpop
from itertools import accumulate, combinations
from math import lcm

from . import limits
from ._record import record
from .errors import InvalidEccdError, NotMinimumError, TooLargeError
from .graph import Graph, induced_subgraph, iter_bits, mask_of
from .labeling import Labeling, first_violation, validate
from .limits import METHODS, TWO_MODES

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
class EccdSet:
    """Ordered P5 tuples satisfying the end-coupled center-disjoint rules.

    Each tuple (a, b, c, d, e) is a path; c is its center.  Tuples may share
    only whole end edges in matching (leaf, inner) orientation, and a center
    may not appear in any other tuple.
    """

    paths: tuple[tuple[int, int, int, int, int], ...] = ()

    def __len__(self):
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


@record
class OptimalityCertificate:
    """A 0-2-0-2-0 path inside a witness minimum labeling."""

    path: tuple[int, int, int, int, int]
    labeling: Labeling


# ---------------------------------------------------------------------------
# shared low-level helpers (adjacency masks, sealed-0 checks, and the residual
# bound, which is the per-solve context of the branch and bound)
# ---------------------------------------------------------------------------


def _masks(nbrs: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """One adjacency bitmask per vertex: the format of the searches, built
    from the sorted neighbor tuples once per solve.  Each mask is set
    relative to the smallest neighbor and shifted once, so each step works
    on a small int."""
    masks = []
    for t in nbrs:
        low = t[0] if t else 0
        m = 0
        for v in t:
            m |= 1 << v - low
        masks.append(m << low)
    return tuple(masks)


def _seal_conflict(adj, nbrs, labels, two_mask, seal, close, i, use_pairs) -> bool:
    """True when labeling ``order[i]`` just produced an unfixable violation.

    A vertex u is sealed at position close[u], where it leaves the order's
    frontier: from there on its closed neighborhood is labeled.  ``seal``
    lists the vertices sealed at i, the only ones that can newly violate.
    A sealed 0 with no 2-neighbor is dead, and (for attack 2) two sealed 0s
    sharing one unique 2-neighbor are dead.  A pair partner x counts only
    when close[x] <= i, so its label in ``labels`` is final.
    """
    for u in seal:
        if labels[u]:
            continue
        t = adj[u] & two_mask
        if t == 0:
            return True
        if use_pairs and t & (t - 1) == 0:
            for x in nbrs[t.bit_length() - 1]:
                if x != u and close[x] <= i and labels[x] == 0 and adj[x] & two_mask == t:
                    return True
    return False


class _Discharge:
    """The per-solve context of the branch and bound: one graph at one attack
    number, and the residual discharging bound on the weight its undecided
    vertices need.

    It holds the sorted neighbor tuples ``nbrs``, the adjacency masks ``adj``
    (built here, the one ``_masks`` call of a branch-and-bound solve),
    ``attack_n``, the charges below and ``root``, the state with every
    vertex undecided.  Every pass of a solve runs ``_search`` on this one
    object.

    In a valid labeling each 2-vertex w sends a_w = 2/(deg w + 3) to each
    0-neighbor and a second a_w to its private 0-neighbor (at attack >= 2 it
    has at most one).  A 2 then keeps at least 4/(deg w + 3), a private 0
    receives 4/(deg w + 3) and any other 0 has two 2-neighbors, so every
    vertex ends with at least c_v = min(1, 4/(m_v + 3)), m_v the largest
    degree in N[v]; summing gives the paper's gamma >= 4n/(Delta + 3).
    Attack 1 uses the classical analogue: a_w = 2/(deg w + 1), no private
    bonus, c_v = min(1, 2/(m_v + 1)).

    At a search node with undecided set U, the forced set F (undecided
    vertices whose neighbors are all decided, none labeled 2) needs at least
    1 each, and the rest needs at least
        sum_{u in U-F} c_u - sum_{decided 2s w} a_w (k_w + [k_w > 0])
                           + sum_{z in O} c_z,
    k_w the number of undecided neighbors of w, since decided 2s are the
    only outside source of charge for U-F (F has no undecided neighbor).
    O, the owed set, holds the decided 0s with an undecided neighbor, no
    decided 2-neighbor and no neighbor in F.  Every 2-neighbor that such a
    z ends with lies in U-F, so U-F sends z at least c_z on top of its own
    need.  A vertex of F may still become z's 2, which is why a 0 next to F
    owes nothing.  Arithmetic is in integers scaled by the lcm of the
    denominators.  A state is (t, nf, extra, owed): the scaled charge
    balance, |F|, the bound nf + ceil(max(0, t) / scale) and the mask of O.
    """

    __slots__ = ("nbrs", "adj", "attack_n", "scale", "charge", "share", "bonus", "root")

    def __init__(self, nbrs: Sequence[tuple[int, ...]], attack_n: int):
        self.nbrs = nbrs
        self.adj = _masks(nbrs)
        self.attack_n = attack_n
        deg = [len(t) for t in nbrs]
        slack, need = (3, 4) if attack_n >= 2 else (1, 2)
        scale = 1
        for d in set(deg):
            scale = lcm(scale, d + slack)
        self.scale = scale
        at = deg.__getitem__
        top = [max((d, *map(at, t))) for d, t in zip(deg, nbrs)]
        self.charge = [min(scale, need * scale // (m + slack)) for m in top]
        self.share = [2 * scale // (d + slack) for d in deg]
        self.bonus = self.share if attack_n >= 2 else [0] * len(nbrs)
        self.root = self.state((1 << len(nbrs)) - 1)

    def state(self, undecided: int, two_mask: int = 0,
              zero_mask: int = 0) -> tuple[int, int, int, int]:
        """The state of a node computed from scratch from the masks of its
        undecided vertices, its 2s and its 0s: it gives ``root``, and it is
        the reference that ``step`` must match."""
        adj = self.adj
        charge = self.charge
        t = nf = forced = owed = 0
        for u in iter_bits(undecided):
            if adj[u] & (undecided | two_mask):
                t += charge[u]
            else:
                nf += 1
                forced |= 1 << u
        for w in iter_bits(two_mask):
            k = (adj[w] & undecided).bit_count()
            if k:
                t -= self.share[w] * k + self.bonus[w]
        for z in iter_bits(zero_mask):
            if adj[z] & undecided and not adj[z] & (two_mask | forced):
                owed |= 1 << z
                t += charge[z]
        return t, nf, nf + (-(-t // self.scale) if t > 0 else 0), owed

    def step(self, state, v: int, i: int, last: Sequence[int], close: Sequence[int],
             later: Sequence[int], two_mask: int, labels: Sequence[int]):
        """The states after deciding v = order[i], indexed by v's label.

        After the step a vertex is undecided when its position exceeds i, so
        w has an undecided neighbor when ``last[w]``, the position of its last
        neighbor, exceeds i, and it is in F when ``last[w] <= i < close[w]``
        and it has no 2-neighbor.  ``later`` lists the neighbors of v after
        i, ``two_mask`` the 2s before v is labeled and ``labels`` the labels
        of the decided vertices.  O changes as follows: a 2 takes its
        neighbors out; a vertex entering F takes its neighbors out; a 0 with
        no 2-neighbor, a later neighbor and no neighbor entering F joins; and
        an F vertex labeled 0 or 1 leaves F and puts back its 0-neighbors
        that still have an undecided neighbor, no 2-neighbor and no other
        neighbor in F.  The work is O(deg v), plus O(deg^2) when v leaves F.
        A child that leaves a 0 of O with no undecided neighbor differs from
        ``state``, which drops that 0, but ``_seal_conflict`` cuts it.
        """
        adj = self.adj
        charge = self.charge
        scale = self.scale
        t, nf, _, owed = state
        av = adj[v]
        near = av & two_mask
        if not later and not near:
            # v leaves F: no neighbor of v is in O, and none enters F
            nf -= 1
            two = (t, nf, nf + (-(-t // scale) if t > 0 else 0), owed)
            nbrs = self.nbrs
            for z in nbrs[v]:
                if labels[z] == 0 and last[z] > i and not adj[z] & two_mask:
                    for x in nbrs[z]:
                        if last[x] <= i < close[x] and not adj[x] & two_mask:
                            break
                    else:
                        owed |= 1 << z
                        t += charge[z]
            one = (t, nf, nf + (-(-t // scale) if t > 0 else 0), owed)
            return one, one, two
        share = self.share
        t -= charge[v]
        m = near
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            t += share[w] if last[w] > i else share[w] + self.bonus[w]
        t2 = t - share[v] * len(later) - self.bonus[v] if later else t
        m = owed & av
        if m:
            kept = owed ^ m
            while m:
                b = m & -m
                m ^= b
                t2 -= charge[b.bit_length() - 1]
        else:
            kept = owed
        two = (t2, nf, nf + (-(-t2 // scale) if t2 > 0 else 0), kept)
        joins = not near  # v has a later neighbor here
        for u in later:
            if last[u] <= i and not adj[u] & two_mask:  # u is now forced
                nf += 1
                t -= charge[u]
                joins = False
                m = owed & adj[u]
                if m:
                    owed ^= m
                    while m:
                        b = m & -m
                        m ^= b
                        t -= charge[b.bit_length() - 1]
        one = (t, nf, nf + (-(-t // scale) if t > 0 else 0), owed)
        if not joins:
            return one, one, two
        t += charge[v]
        return (t, nf, nf + (-(-t // scale) if t > 0 else 0), owed | 1 << v), one, two


# ---------------------------------------------------------------------------
# branch-and-bound oracle
# ---------------------------------------------------------------------------


def _positions(nbrs: Sequence[tuple[int, ...]],
               order: Sequence[int]) -> tuple[list[int], list[int]]:
    """(pos, last) of a vertex order: pos[u] is u's position and last[u] the
    position of u's last neighbor (-1 for none).  A vertex is on the
    frontier from pos[u] up to last[u] and sealed at max(pos[u], last[u])."""
    pos = [0] * len(nbrs)
    for i, v in enumerate(order):
        pos[v] = i
    at = pos.__getitem__
    return pos, [max(map(at, t)) if t else -1 for t in nbrs]


def _frontier(nbrs: Sequence[tuple[int, ...]], order: Sequence[int]) -> tuple[int, int]:
    """The frontier profile of a vertex order: (score, width).

    The frontier of a prefix is its vertices that still have a neighbor
    after it, so its largest size is the vertex separation of the order.
    ``score`` sums the squared frontier size over all prefixes and ``width``
    is the largest one.  A vertex stays on the frontier from its own
    position up to the position of its last neighbor (``_positions``), so
    one sweep that counts the ends at each position gives every prefix in
    O(n + m).
    """
    _, last = _positions(nbrs, order)
    ends = [0] * len(nbrs)
    score = width = live = 0
    for i, v in enumerate(order):
        end = last[v]
        if end > i:
            ends[end] += 1
            live += 1
        live -= ends[i]
        score += live * live
        if live > width:
            width = live
    return score, width


def _seal_scan(nbrs: Sequence[tuple[int, ...]], start: int | None = None) -> list[int]:
    """One greedy seal order.

    Each next vertex has the most already-ordered neighbors, then the fewest
    unordered neighbors, then the lowest tie rank; so the order completes
    neighborhoods early, which lets ``_seal_conflict`` and the forced set of
    ``_Discharge`` cut near the root.  Without ``start`` the tie rank is the
    id and the order begins at the first minimum-degree vertex.  With
    ``start`` the order begins there and the tie rank is (BFS distance from
    ``start``, id).

    At a fixed count of ordered neighbors, fewest unordered is lowest degree,
    so each vertex keeps its key as one int, (n^2 + degree) n^2 + distance n
    + id, that drops by a constant when a neighbor is ordered.  A heap holds
    the keys and skips an entry whose key has dropped since: O(m log n).
    Along a strip the key that drops last is the next minimum, so it goes in
    with the next pop, which then returns it without a sift.
    """
    n = len(nbrs)
    nn = n * n
    key = [(nn + len(t)) * nn + u for u, t in enumerate(nbrs)]
    if start is not None:
        # Vertices the BFS misses keep distance 0: they come after the whole
        # component of ``start`` and tie only among themselves.
        dist = [-1] * n
        dist[start] = 0
        queue = [start]
        for u in queue:
            d = dist[u] + 1
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = d
                    key[w] += d * n
                    queue.append(w)
        key[start] = start  # below every other key
    drop = nn * (n + 1)  # one more ordered neighbor outweighs any degree
    heap = key[:]
    heapify(heap)
    order = []
    held = None  # the last dropped key goes in with the next pop
    for _ in range(n):
        k = heappop(heap) if held is None else heappushpop(heap, held)
        v = k % n
        while key[v] != k:
            k = heappop(heap)
            v = k % n
        key[v] = -1
        order.append(v)
        held = None
        for u in nbrs[v]:
            k = key[u]
            if k >= 0:
                key[u] = k = k - drop
                if held is not None:
                    heappush(heap, held)
                held = k
    return order


def _search_order(nbrs: Sequence[tuple[int, ...]]) -> tuple[list[int], int, int]:
    """The vertex order of the optimum and extremal-count searches.

    The search cost grows with the frontier width the order leaves, and the
    plain seal order's id tie-break sweeps a row-major grid along its rows.
    So the candidates are the plain seal order and the seal orders started
    at each of the first three minimum-degree vertices; a candidate replaces
    the plain order only with a strictly lower ``_frontier`` score, the sum
    of squared frontier widths, so a frontier that stays wide counts for
    more than a brief peak.  Returns (order, score, width) of the winner.
    """
    low = min(map(len, nbrs), default=0)
    starts = [v for v, t in enumerate(nbrs) if len(t) == low][:3]
    best = None
    for start in [None, *starts]:
        order = _seal_scan(nbrs, start)
        score, width = _frontier(nbrs, order)
        if best is None or score < best[1]:
            best = order, score, width
    return best


def _seal_tables(nbrs: Sequence[tuple[int, ...]], order: Sequence[int]):
    """The per-position tables of ``_search``: (last, close, sealed, later).

    ``last`` is that of ``_positions``; close[u] = max(pos[u], last[u]) is
    the position where u leaves the frontier and is sealed, ``sealed[i]``
    lists the vertices with close i, and ``later[i]`` the neighbors of
    ``order[i]`` after position i.
    """
    pos, last = _positions(nbrs, order)
    close = list(map(max, pos, last))
    sealed = [[] for _ in order]
    for u, c in enumerate(close):
        sealed[c].append(u)
    later = [tuple(u for u in nbrs[v] if pos[u] > i) for i, v in enumerate(order)]
    return last, close, sealed, later


def _search(bound: _Discharge, order, labs: tuple[int, ...], wmax: int, tlo: int, thi: int,
            leaf) -> int:
    """The one branch-and-bound core: a DFS over label vectors.

    Labels the vertices in ``order``, trying the labels ``labs`` at each.
    ``bound`` is the solve's ``_Discharge``: the search reads the graph's
    neighbor tuples, adjacency masks and attack number off it and starts at
    its root state.  A child is cut when its weight plus the bound of the
    rest exceeds ``wmax``, when its 2-count leaves the window [``tlo``,
    ``thi``] (the rest can add at most half the weight left under ``wmax``
    in 2s; ``thi`` = n is no cap), or on ``_seal_conflict``.  At each
    labeling that ``first_violation`` passes it calls the leaf rule
    ``leaf(labels, wgt, twos)`` with the live label vector, which returns the
    new limits (wmax, tlo, thi), or None to stop.  Returns the number of
    nodes explored, leaves included.

    Decided means placed: at depth i the vertices before position i carry
    their labels in ``labels`` and the rest are undecided.  The tables of
    ``_seal_tables``, built once per call, say where each vertex is sealed
    and which neighbors of ``order[i]`` come after it, so a node carries
    only (depth, mask of 2s, weight, 2-count, bound state).  One
    ``bound.step`` per node gives the bound states of its children indexed
    by label, so each child reads ``kids[lab]``; the states of the 0-child
    and the 1-child differ when a 0 there starts to owe charge.
    """
    nbrs, adj, attack_n = bound.nbrs, bound.adj, bound.attack_n
    n = len(adj)
    use_pairs = attack_n >= 2
    last, close, sealed, later = _seal_tables(nbrs, order)
    step = bound.step
    labels = [0] * n
    nodes = 0
    running = True

    def rec(idx, two_mask, wgt, twos, state):
        nonlocal nodes, running, wmax, tlo, thi
        nodes += 1
        if idx == n:
            if first_violation(nbrs, labels, attack_n) is None:
                new = leaf(labels, wgt, twos)
                if new is None:
                    running = False
                else:
                    wmax, tlo, thi = new
            return
        v = order[idx]
        kids = step(state, v, idx, last, close, later[idx], two_mask, labels)
        seal = sealed[idx]
        for lab in labs:
            st = kids[lab]
            if lab == 2:
                t2, m2 = twos + 1, two_mask | 1 << v
            else:
                t2, m2 = twos, two_mask
            w2 = wgt + lab
            if w2 + st[2] > wmax or t2 > thi or tlo and t2 + (wmax - w2) // 2 < tlo:
                continue
            labels[v] = lab
            if seal and _seal_conflict(adj, nbrs, labels, m2, seal, close, idx, use_pairs):
                continue
            rec(idx + 1, m2, w2, t2, st)
            if not running:
                return

    # One frame per labeled vertex: lift the interpreter's depth limit by
    # the order for the search, so a path or cycle of any order can recurse.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)
    try:
        rec(0, 0, 0, 0, bound.root)
    finally:
        sys.setrecursionlimit(limit)
        del rec  # ``rec`` refers to itself: drop the cycle with the pass
    return nodes


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
# end-coupled center-disjoint P5 packing
# ---------------------------------------------------------------------------


def check_eccd(graph: Graph, eccd: EccdSet) -> None:
    """Raise InvalidEccdError unless the set satisfies the packing rules."""
    for t in eccd.paths:
        if len(set(t)) != 5:
            raise InvalidEccdError(f"tuple {t} repeats a vertex")
        for v in t:
            if not (0 <= v < graph.order):
                raise InvalidEccdError(f"tuple {t} leaves the graph")
        for x, y in zip(t, t[1:]):
            if not graph.has_edge(x, y):
                raise InvalidEccdError(f"tuple {t} is not a path: missing edge {x}-{y}")
    for t in eccd.paths:
        for u in eccd.paths:
            if u is t:
                continue
            if t[2] in u:
                raise InvalidEccdError(f"center {t[2]} of {t} reused by {u}")
            uset = set(u)
            for leaf, inner in ((t[0], t[1]), (t[4], t[3])):
                if leaf in uset or inner in uset:
                    if (u[0], u[1]) != (leaf, inner) and (u[4], u[3]) != (leaf, inner):
                        raise InvalidEccdError(
                            f"end edge {leaf}-{inner} of {t} overlaps {u} out of position")
    if len(set(eccd.paths)) != len(eccd.paths):
        raise InvalidEccdError("duplicate tuple in set")


def p5_candidates(graph: Graph) -> list[tuple[int, int, int, int, int]]:
    """Every P5 path as an ordered tuple, smaller endpoint first."""
    nbrs = graph.neighbor_tuples()
    return [(a, b, c, d, e)
            for a in range(graph.order) for b in nbrs[a]
            for c in nbrs[b] if c != a
            for d in nbrs[c] if d != a and d != b
            for e in nbrs[d] if e > a and e != b and e != c]


def _max_eccd_engine(adj: Sequence[int]) -> tuple[int, tuple | None, int]:
    """Maximum packing size via the oriented-matching reduction.

    Any valid packing decomposes into a vertex-disjoint set of oriented end
    edges (leaf, inner) plus one exclusive center per tuple adjacent to two
    distinct inners; conversely any such triple assembles into a valid
    packing.  So it suffices to sweep inner sets I, match each inner to a
    distinct leaf outside I (preferring leaves that are not potential
    centers), and count the unused vertices with >= 2 neighbors in I, the
    potential centers P(I).  The score of I is |P(I)| minus the fewest
    leaves that must sit in P(I).

    Sets are visited in (size, lex) order by a DFS, and the first set to
    strictly beat the incumbent replaces it, so the result is the first set
    of maximum score in that order.  Only sets that cannot strictly beat the
    incumbent are skipped, which leaves the result unchanged:

    (a) Inners are drawn from the vertices of degree >= 2, and the DFS keeps
        the vertices covered once (``one``) and at least twice (``two``), so
        P(I) = two & ~I costs O(1).  An inner of degree <= 1 either has no
        leaf or has its leaf as its only neighbor, so dropping it loses no
        center.
    (b) Per set: skip when |P(I)| <= best, or when some inner has no
        neighbor outside I or none in P(I).  Dropping that inner gives a
        smaller set, swept earlier, that keeps every center and leaf.
    (c) Room: a set of size s places s inners and their s leaves, so at most
        n - 2s vertices are left for centers.  Sizes with n - 2s <= best end
        the sweep; within a size, a DFS node is cut once best reaches n - 2s,
        and the last level returns after the set that lifts best to it.
    (d) Per DFS node: every later center is outside I and ends with two
        neighbors in I, so it is in ``two``, in ``one`` with a neighbor
        among the remaining candidates (``suf1``), or has two neighbors
        among them (``suf2``; not when one inner is left).  Prune when that
        count is <= best.  It cuts interior nodes on sparse graphs, where
        (e) is loose.
    (e) Per DFS node, by center incidence: each center has at least two
        inner neighbors, and an inner i meets at most |N(i) - I| - 1 centers,
        since one of its outside neighbors is its leaf.  So 2 score(I) <=
        sum over i in I of (|N(i) - I| - 1).  With chosen inners C and
        ``need`` more to take from ``cands[k:]``, that sum is at most
        g + top[k][need]: g is the sum over C of (|N(i) - C| - 1), kept
        on the DFS, and top[k][r] is the sum of the r largest deg - 1 among
        ``cands[k:]`` (``_eccd_gain_table``).  Prune when half of it is
        <= best.  On the last level each child is tested with its own g,
        which is then the exact sum, before its P(I) is built.  Every node
        of size s has g + top[k][need] <= top[0][s], so (e) also holds the
        whole size to top[0][s] // 2.

    ``nodes`` counts the inner sets that reach the per-set test (b).
    """
    n = len(adj)
    nodes = 0
    if n < 5:
        return 0, None, nodes
    cands = [v for v in range(n) if adj[v].bit_count() >= 2]
    m = len(cands)
    gain = [adj[v].bit_count() - 1 for v in cands]
    top = _eccd_gain_table(gain)
    suf1 = [0] * (m + 1)
    suf2 = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        a = adj[cands[k]]
        suf2[k] = suf2[k + 1] | suf1[k + 1] & a
        suf1[k] = suf1[k + 1] | a
    best_score = 0
    best_sol = None
    chosen: list[int] = []

    def try_set(inners, imask, pmask):
        nonlocal best_score, best_sol
        p_count = pmask.bit_count()
        for i in inners:
            if adj[i] & ~imask == 0 or adj[i] & pmask == 0:
                return
        found = _min_cost_leaf_assignment(
            adj, inners, imask, pmask, p_count - best_score)
        if found is not None:
            cost, assign = found
            best_score = p_count - cost
            best_sol = (imask, assign, pmask)

    def sweep(k, need, imask, one, two, g):
        nonlocal nodes
        if best_score >= room or (g + top[k][need]) // 2 <= best_score:
            return
        if need == 1:
            # Last inner: read P(I) of each child off the masks directly.
            base = two & ~imask
            once = one & ~imask
            if (base | once & suf1[k]).bit_count() <= best_score:
                return
            for j in range(k, m):
                v = cands[j]
                a = adj[v]
                if (g + gain[j] - 2 * (a & imask).bit_count()) // 2 <= best_score:
                    continue
                bit = 1 << v
                pmask = (base | once & a) & ~bit
                nodes += 1
                if pmask.bit_count() > best_score:
                    try_set((*chosen, v), imask | bit, pmask)
                    if best_score >= room:
                        return
            return
        if ((two | one & suf1[k] | suf2[k]) & ~imask).bit_count() <= best_score:
            return
        for j in range(k, m - need + 1):
            v = cands[j]
            a = adj[v]
            both = one & a
            chosen.append(v)
            sweep(j + 1, need - 1, imask | 1 << v, (one | a) & ~(two | both), two | both,
                  g + gain[j] - 2 * (a & imask).bit_count())
            chosen.pop()

    for s in range(2, min(n // 2, m) + 1):
        room = n - 2 * s
        if room <= best_score:
            break
        sweep(0, s, 0, 0, 0, 0)
    del sweep  # ``sweep`` refers to itself: drop the cycle with the sweep
    return best_score, best_sol, nodes


def _eccd_gain_table(gain: list[int]) -> list[list[int]]:
    """top[k][r] = the sum of the r largest of ``gain[k:]``, for r <= len(gain) - k.

    The gains are ranked once; each row sums the ranked gains at index >= k,
    so building the table costs O(m^2) for m gains.
    """
    ranked = sorted(range(len(gain)), key=gain.__getitem__, reverse=True)
    return [list(accumulate((gain[j] for j in ranked if j >= k), initial=0))
            for k in range(len(gain) + 1)]


def _min_cost_leaf_assignment(adj, inners, imask, pmask, budget):
    """Distinct leaves for all inners using fewer than ``budget`` potential
    centers; returns (cost, {inner: leaf}) or None.

    The search is the module-level ``_leaf_dfs`` rather than a closure: a
    self-recursive closure is a reference cycle, and the packing sweep calls
    this once per surviving inner set.
    """
    order = sorted(inners, key=lambda i: (adj[i] & ~imask).bit_count())
    best = [budget, None]
    _leaf_dfs(adj, order, ~imask, pmask, 0, 0, 0, [], best)
    if best[1] is None:
        return None
    return best[0], dict(zip(order, best[1]))


def _leaf_dfs(adj, order, outside, pmask, k, used, cost, leaves, best):
    """Leaves for ``order[k:]``, off ``used``, free ones (outside ``pmask``)
    first; ``best`` = [cost bound, leaves of the first assignment below it]."""
    if cost >= best[0]:
        return
    if k == len(order):
        best[0] = cost
        best[1] = leaves.copy()
        return
    opts = adj[order[k]] & outside & ~used
    for extra, m in ((0, opts & ~pmask), (1, opts & pmask)):
        while m:
            b = m & -m
            m ^= b
            leaves.append(b.bit_length() - 1)
            _leaf_dfs(adj, order, outside, pmask, k + 1, used | b, cost + extra,
                      leaves, best)
            leaves.pop()


def _max_packing(graph: Graph) -> tuple[EccdSet, int]:
    """The packing route's setup and sweep: the first maximum packing in the
    sweep's order, and the inner sets that reached its per-set test."""
    adj = _masks(graph.neighbor_tuples())
    score, sol, nodes = _max_eccd_engine(adj)
    return _assemble_eccd(adj, score, sol), nodes


def max_eccd(graph: Graph) -> EccdSet:
    """A maximum end-coupled center-disjoint P5 packing, deterministically."""
    return _max_packing(graph)[0]


def _assemble_eccd(adj: Sequence[int], score: int, sol) -> EccdSet:
    if score == 0 or sol is None:
        return EccdSet(())
    imask, assign, pmask = sol
    leaf_mask = mask_of(assign.values())
    centers = sorted(iter_bits(pmask & ~leaf_mask))
    paths = []
    for c in centers:
        i1, i2 = list(iter_bits(adj[c] & imask))[:2]
        a, e = assign[i1], assign[i2]
        if a < e:
            paths.append((a, i1, c, i2, e))
        else:
            paths.append((e, i2, c, i1, a))
    return EccdSet(tuple(sorted(paths)))


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

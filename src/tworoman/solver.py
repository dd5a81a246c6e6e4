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
# shared low-level helpers (adjacency masks, leaf validity)
# ---------------------------------------------------------------------------


def _adj_list(graph: Graph) -> list[int]:
    return list(graph.adjacency_masks())


def _seal_conflict(adj, v, lab, zero_mask, two_mask, und_mask, use_pairs) -> bool:
    """True when labeling v just produced an unfixable violation.

    A 0-vertex is sealed once all its neighbors are decided; a sealed 0 with
    no 2-neighbor is dead, and (for attack 2) two sealed 0s sharing one
    unique 2-neighbor are dead.  Only vertices sealed by this assignment can
    newly violate, so the scan is local to v's neighborhood.
    """
    vbit = 1 << v
    check = adj[v] & zero_mask
    if lab == 0:
        check |= vbit
    while check:
        ubit = check & -check
        check ^= ubit
        u = ubit.bit_length() - 1
        if adj[u] & und_mask:
            continue  # not sealed yet
        t = adj[u] & two_mask
        if t == 0:
            return True
        if use_pairs and t & (t - 1) == 0:
            w = t.bit_length() - 1
            others = adj[w] & zero_mask & ~ubit
            while others:
                xbit = others & -others
                others ^= xbit
                x = xbit.bit_length() - 1
                if adj[x] & und_mask == 0 and adj[x] & two_mask == t:
                    return True
    return False


class _Discharge:
    """Residual discharging bound on the weight the undecided vertices need.

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
        sum_{u in U-F} c_u - sum_{decided 2s w} a_w (k_w + [k_w > 0]),
    k_w the number of undecided neighbors of w, since decided 2s are the
    only outside source of charge for U-F.  Arithmetic is in integers scaled
    by the lcm of the denominators.  A state is (t, nf, extra): the scaled
    charge balance, |F|, and the bound nf + ceil(max(0, t) / scale).
    """

    __slots__ = ("adj", "scale", "charge", "share", "bonus")

    def __init__(self, adj: list[int], attack_n: int):
        self.adj = adj
        deg = [a.bit_count() for a in adj]
        slack, need = (3, 4) if attack_n >= 2 else (1, 2)
        scale = 1
        for d in set(deg):
            scale = lcm(scale, d + slack)
        self.scale = scale
        top = deg[:]
        for v, a in enumerate(adj):
            while a:
                b = a & -a
                a ^= b
                d = deg[b.bit_length() - 1]
                if d > top[v]:
                    top[v] = d
        self.charge = [min(scale, need * scale // (m + slack)) for m in top]
        self.share = [2 * scale // (d + slack) for d in deg]
        self.bonus = self.share if attack_n >= 2 else [0] * len(adj)

    def state(self, und_mask: int, two_mask: int = 0) -> tuple[int, int, int]:
        """The state of a node computed from scratch."""
        adj = self.adj
        t = nf = 0
        for u in iter_bits(und_mask):
            if adj[u] & (und_mask | two_mask):
                t += self.charge[u]
            else:
                nf += 1
        for w in iter_bits(two_mask):
            k = (adj[w] & und_mask).bit_count()
            if k:
                t -= self.share[w] * k + self.bonus[w]
        return t, nf, nf + (-(-t // self.scale) if t > 0 else 0)

    def step(self, state, v: int, und2: int, two_mask: int):
        """States after deciding v, as (v labeled 0 or 1, v labeled 2).

        ``und2`` is the undecided set without v and ``two_mask`` the 2s
        before v is labeled; the work is O(deg v).
        """
        adj = self.adj
        share = self.share
        charge = self.charge
        scale = self.scale
        t, nf, _ = state
        av = adj[v]
        live = und2 | two_mask
        if av & live:
            t -= charge[v]
        else:
            nf -= 1  # v was forced
        m = av & two_mask
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            t += share[w] if adj[w] & und2 else share[w] + self.bonus[w]
        k = (av & und2).bit_count()
        t2 = t - share[v] * k - self.bonus[v] if k else t
        two = (t2, nf, nf + (-(-t2 // scale) if t2 > 0 else 0))
        m = av & und2
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            if adj[u] & live == 0:  # u is now forced
                nf += 1
                t -= charge[u]
        return (t, nf, nf + (-(-t // scale) if t > 0 else 0)), two


# ---------------------------------------------------------------------------
# branch-and-bound oracle
# ---------------------------------------------------------------------------


def _seal_scan(adj: list[int], start: int | None = None,
               cap: int | None = None) -> tuple[list[int], int, int] | None:
    """One greedy seal order with its frontier profile: (order, score, width).

    Each next vertex has the most already-ordered neighbors, then the fewest
    unordered neighbors, then the lowest tie rank; so the order completes
    neighborhoods early, which lets ``_seal_conflict`` and the forced set of
    ``_Discharge`` cut near the root.  Without ``start`` the tie rank is the
    id and the order begins at the first minimum-degree vertex.  With
    ``start`` the order begins there and the tie rank is (BFS distance from
    ``start``, id).

    The frontier of a prefix is its vertices that still have an unordered
    neighbor; ``score`` sums the squared frontier width over all prefixes
    and ``width`` is the largest one.  The scan gives up and returns None
    once the score reaches ``cap``.  Only unordered neighbors of ordered
    vertices can win while there are any, so they form the candidate pool,
    and each vertex keeps its key as one integer that drops by a constant
    when a neighbor is ordered.
    """
    n = len(adj)
    base = n * (n + 1)
    if start is None:
        by_rank = list(range(n))
        key = [(base + a.bit_count()) * n + u for u, a in enumerate(adj)]
    else:
        by_rank = []
        seen = layer = 1 << start
        while layer:  # BFS layers, each in id order
            grown = 0
            while layer:
                b = layer & -layer
                layer ^= b
                u = b.bit_length() - 1
                by_rank.append(u)
                grown |= adj[u]
            layer = grown & ~seen
            seen |= layer
        by_rank.extend(iter_bits(((1 << n) - 1) & ~seen))
        key = [0] * n  # start keeps key 0 (rank 0), below every other key
        for r in range(1, n):
            u = by_rank[r]
            key[u] = (base + adj[u].bit_count()) * n + r
    drop = n * (n + 2)  # one more ordered neighbor, one fewer unordered
    order = []
    left = (1 << n) - 1
    pool = front = 0
    score = top = 0
    if cap is None:
        cap = n ** 3 + 1  # above any score
    while left:
        m = pool or left
        k = key[(m & -m).bit_length() - 1]
        m &= m - 1
        while m:
            b = m & -m
            m ^= b
            c = key[b.bit_length() - 1]
            if c < k:
                k = c
        v = by_rank[k % n]
        order.append(v)
        left ^= 1 << v
        m = adj[v] & left
        pool = (pool | m) & left
        if m:
            front |= 1 << v
        while m:
            b = m & -m
            m ^= b
            key[b.bit_length() - 1] -= drop
        m = adj[v] & front
        while m:  # ordered neighbors that may have lost their last unordered one
            b = m & -m
            m ^= b
            if adj[b.bit_length() - 1] & left == 0:
                front ^= b
        width = front.bit_count()
        score += width * width
        if score >= cap:
            return None
        if width > top:
            top = width
    return order, score, top


def _search_order(adj: list[int]) -> tuple[list[int], int, int]:
    """The vertex order of the optimum and extremal-count searches.

    The search cost grows with the frontier width the order leaves, and the
    plain seal order's id tie-break sweeps a row-major grid along its rows.
    So the candidates are the plain seal order and the seal orders started
    at each of the first three minimum-degree vertices; a candidate replaces
    the plain order only with a strictly lower score, the sum of squared
    frontier widths, so a frontier that stays wide counts for more than a
    brief peak.  Returns (order, score, width) of the winner.
    """
    best = _seal_scan(adj)
    if adj:
        low = min(a.bit_count() for a in adj)
        starts = [v for v, a in enumerate(adj) if a.bit_count() == low][:3]
        for s in starts:
            best = _seal_scan(adj, s, best[1]) or best
    return best


def _search(adj: list[int], attack_n: int, order, labs: tuple[int, ...],
            bound: _Discharge | None, wmax: int, leaf, thi: int | None = None,
            tlo: int = 0) -> int:
    """The one branch-and-bound core: a DFS over label vectors.

    Labels the vertices in ``order``, trying the labels ``labs`` at each.  A
    child is cut when its weight plus the ``_Discharge`` bound of the rest
    exceeds ``wmax``, when its 2-count leaves the window [``tlo``, ``thi``]
    (the rest can add at most half the weight left under ``wmax`` in 2s;
    ``thi`` None is no cap), or on ``_seal_conflict``.  At each complete
    valid labeling it calls ``leaf(labels, wgt, twos)`` with the live label
    vector, which returns the new limits (wmax, tlo, thi), or None to stop.
    Returns the number of nodes explored, leaves included.
    """
    n = len(adj)
    use_pairs = attack_n >= 2
    bound = bound or _Discharge(adj, attack_n)
    labels = [0] * n
    nodes = 0
    running = True
    if thi is None:
        thi = n

    def rec(idx, zero_mask, two_mask, und_mask, wgt, twos, state):
        nonlocal nodes, running, wmax, tlo, thi
        nodes += 1
        if idx == n:
            if first_violation(adj, labels, attack_n) is None:
                new = leaf(labels, wgt, twos)
                if new is None:
                    running = False
                else:
                    wmax, tlo, thi = new
                    if thi is None:
                        thi = n
            return
        v = order[idx]
        vbit = 1 << v
        und2 = und_mask & ~vbit
        low, high = bound.step(state, v, und2, two_mask)
        for lab in labs:
            if lab == 2:
                st, t2 = high, twos + 1
            else:
                st, t2 = low, twos
            w2 = wgt + lab
            if w2 + st[2] > wmax or t2 > thi or tlo and t2 + (wmax - w2) // 2 < tlo:
                continue
            z2 = zero_mask | vbit if lab == 0 else zero_mask
            m2 = two_mask | vbit if lab == 2 else two_mask
            if _seal_conflict(adj, v, lab, z2, m2, und2, use_pairs):
                continue
            labels[v] = lab
            rec(idx + 1, z2, m2, und2, w2, t2, st)
            if not running:
                return

    # One frame per labeled vertex: lift the interpreter's depth limit by
    # the order for the search, so a path or cycle of any order can recurse.
    full = (1 << n) - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)
    try:
        rec(0, 0, 0, full, 0, 0, bound.state(full))
    finally:
        sys.setrecursionlimit(limit)
    return nodes


def _bb_gamma(adj: list[int], attack_n: int, max_twos: int | None,
              order: list[int] | None = None,
              bound: _Discharge | None = None) -> tuple[int, int]:
    """Minimum weight over valid labelings; returns (gamma, nodes explored).

    Vertices are explored in ``order`` (default ``_search_order``) and labels
    in the order 0, 2, 1.  The incumbent starts at the all-1 labeling, which
    is always valid, and each leaf found lowers the weight limit below it.
    """
    best = len(adj)

    def leaf(labels, wgt, twos):
        nonlocal best
        best = wgt
        return wgt - 1, 0, max_twos

    if order is None:
        order = _search_order(adj)[0]
    nodes = _search(adj, attack_n, order, (0, 2, 1), bound, best - 1, leaf, max_twos)
    return best, nodes


def _lex_first_labeling(adj, attack_n, gamma, thi=None, tlo=0,
                        bound=None) -> tuple[int, ...] | None:
    """First labeling in label-vector lexicographic order among the valid
    labelings of weight ``gamma`` with a 2-count in [``tlo``, ``thi``]; None
    when there is none.  ``gamma`` is the minimum weight, so no valid
    labeling in the window weighs less.  The search runs in id order with
    labels 0, 1, 2 and stops at its first leaf."""
    found = []
    _search(adj, attack_n, range(len(adj)), (0, 1, 2), bound, gamma,
            lambda labels, wgt, twos: found.append(tuple(labels)), thi, tlo)
    return found[0] if found else None


def _iter_exact_weight(adj, attack_n, gamma, max_twos=None,
                       bound=None) -> list[tuple[int, ...]]:
    """Every valid labeling of weight ``gamma``, the minimum weight under the
    2-count cap ``max_twos``, in lex order: the search of
    ``_lex_first_labeling`` run to the end."""
    found = []

    def leaf(labels, wgt, twos):
        found.append(tuple(labels))
        return gamma, 0, max_twos

    _search(adj, attack_n, range(len(adj)), (0, 1, 2), bound, gamma, leaf, max_twos)
    return found


def _extremal_twos(adj, attack_n, gamma, maximize: bool, order=None, bound=None) -> int:
    """Extremal |V2| over valid labelings of weight ``gamma``, the minimum
    weight, searched in ``order`` (default ``_search_order``).

    Both directions start with an open 2-count window.  Maximizing tries
    labels 2, 0, 1 and raises the 2-count floor past each count found;
    minimizing tries labels 0, 1, 2 and lowers the 2-count cap below each
    count found.
    """
    if order is None:
        order = _search_order(adj)[0]
    best = -1

    def leaf(labels, wgt, twos):
        nonlocal best
        best = twos
        return (gamma, twos + 1, None) if maximize else (gamma, 0, twos - 1)

    _search(adj, attack_n, order, (2, 0, 1) if maximize else (0, 1, 2), bound, gamma, leaf)
    return best


def gamma_bruteforce(graph: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact minimum weight by branch and bound.

    Every pass is a driver over one DFS core, ``_search``, and all passes of
    a solve share one ``_Discharge``: the residual discharging bound (the
    paper's gamma >= 4n/(Delta + 3), applied to the undecided part) that
    cuts subtrees.  The optimum pass labels vertices in ``_search_order``.
    The cost grows with how far the bound falls below gamma and with the
    width of the frontier that order leaves (``stats.frontier_width``), not
    with the order of the graph.  The witness is the lexicographically
    smallest minimum label vector with a 2-count in the window, found by a
    second pass in id order; with ``opts.two_mode`` set, an extremal-count
    pass in the optimum order first pins the window.  ``opts.enumerate_all``
    checks the enumeration limit before any search and makes that id-order
    pass list every minimum labeling; the witness is then the first one
    listed in the window.
    """
    opts = opts or SolveOptions()
    if opts.enumerate_all:
        limit = limits.enumeration_max_order()
        if graph.order > limit:
            raise TooLargeError(graph.order, limit)
    start = time.perf_counter()
    adj = _adj_list(graph)
    attack, cap = opts.attack_n, opts.max_twos
    bound = _Discharge(adj, attack)
    order, _, width = _search_order(adj)
    gamma, nodes = _bb_gamma(adj, attack, cap, order, bound)
    tlo, thi = 0, graph.order if cap is None else cap
    if opts.two_mode != "any":
        tlo = thi = _extremal_twos(adj, attack, gamma, opts.two_mode == "maximize_twos",
                                   order, bound)
    all_minimum = feasible = None
    if opts.enumerate_all:
        found = _iter_exact_weight(adj, attack, gamma, cap, bound)
        all_minimum = tuple(Labeling(graph, labs) for labs in found)
        feasible = tuple(sorted({labs.count(2) for labs in found}))
        first = next(labs for labs in found if tlo <= labs.count(2) <= thi)
    else:
        first = _lex_first_labeling(adj, attack, gamma, thi, tlo, bound)
    stats = SolveStats(nodes, time.perf_counter() - start, "bruteforce", width)
    return SolveResult(gamma, Labeling(graph, first), graph.order - gamma, stats,
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
    adj = _adj_list(graph)
    out = []
    for a in range(graph.order):
        abit = 1 << a
        for b in iter_bits(adj[a]):
            bbit = 1 << b
            for c in iter_bits(adj[b] & ~abit):
                cbit = 1 << c
                for d in iter_bits(adj[c] & ~abit & ~bbit):
                    for e in iter_bits(adj[d] & ~abit & ~bbit & ~cbit):
                        if a < e:
                            out.append((a, b, c, d, e))
    return out


def _max_eccd_engine(adj: list[int]) -> tuple[int, tuple | None, int]:
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


def max_eccd(graph: Graph) -> EccdSet:
    """A maximum end-coupled center-disjoint P5 packing, deterministically."""
    score, sol, _ = _max_eccd_engine(_adj_list(graph))
    return _assemble_eccd(graph, score, sol)


def _assemble_eccd(graph: Graph, score: int, sol) -> EccdSet:
    if score == 0 or sol is None:
        return EccdSet(())
    imask, assign, pmask = sol
    leaf_mask = mask_of(assign.values())
    centers = sorted(iter_bits(pmask & ~leaf_mask))
    paths = []
    for c in centers:
        i1, i2 = list(iter_bits(graph.adjacency_mask(c) & imask))[:2]
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
    score, sol, nodes = _max_eccd_engine(_adj_list(graph))
    eccd = _assemble_eccd(graph, score, sol)
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
    g = labeling.graph
    two_mask = labeling.label_mask(2)
    zero_mask = labeling.label_mask(0)
    for c in iter_bits(zero_mask):
        twos = list(iter_bits(g.adjacency_mask(c) & two_mask))
        for b, d in combinations(twos, 2):
            for bb, dd in ((b, d), (d, b)):
                for a in iter_bits(g.adjacency_mask(bb) & zero_mask & ~(1 << c)):
                    tail = g.adjacency_mask(dd) & zero_mask & ~(1 << c) & ~(1 << a)
                    for e in iter_bits(tail):
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


def _packing_pays(adj: list[int]) -> bool:
    """Whether ``auto`` takes the packing route past ``_ECCD_MAX_ORDER``: when
    the id order, which the branch and bound's witness pass walks, leaves a
    frontier wider than 10, or over a third of the vertices have degree <= 1,
    which the packing sweep never takes as inners.  Cycles, lattice balls and
    row-major grids with rows of at most 10 meet neither condition, sparse
    random graphs and trees meet one; both thresholds were fitted on seeded
    graphs of order 23-30.
    """
    reach = [a.bit_length() - 1 for a in adj]  # highest neighbor id
    # Frontier at v: the u <= v with reach[u] > v.  Sweep v up, adding v when
    # its reach is above it and dropping the earlier u whose reach ends at v.
    ends = [0] * len(adj)
    for u, r in enumerate(reach):
        if r > u:
            ends[r] += 1
    live = width = 0
    for v, r in enumerate(reach):
        live += (r > v) - ends[v]
        width = max(width, live)
    return width > 10 or 3 * sum(a.bit_count() <= 1 for a in adj) > len(adj)


def solve(graph: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Front door: dispatch on method.  ``auto`` takes the packing route when the options
    fit it and the order is at most ``_ECCD_MAX_ORDER`` or ``_packing_pays``, the branch
    and bound otherwise."""
    opts = opts or SolveOptions()
    if opts.method == "eccd" or opts.method == "auto" and opts._packing_fits() and (
            graph.order <= _ECCD_MAX_ORDER or _packing_pays(_adj_list(graph))):
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
    adj = _adj_list(graph)
    zero_mask = labeling.label_mask(0)
    two_mask = labeling.label_mask(2)
    matching: dict[int, int] = {}
    for v in iter_bits(zero_mask):
        t = adj[v] & two_mask
        if t and t & (t - 1) == 0:
            w = t.bit_length() - 1
            if w not in matching:
                matching[w] = v
    for t_i in iter_bits(two_mask):
        if t_i in matching:
            continue
        candidates = adj[t_i] & zero_mask
        if candidates == 0:
            raise NotMinimumError(f"2-vertex {t_i} has no 0-neighbor")
        v_i = (candidates & -candidates).bit_length() - 1
        cut = adj[v_i] & two_mask & ~(1 << t_i)
        adj[v_i] &= ~cut
        for w in iter_bits(cut):
            adj[w] &= ~(1 << v_i)
        matching[t_i] = v_i
    sub = Graph._from_neighbors(tuple(tuple(iter_bits(m)) for m in adj), graph.external_ids)
    return sub, matching


def strip_ones(graph: Graph, labeling: Labeling) -> tuple[Graph, Labeling]:
    """Induced subgraph on the 0- and 2-labeled vertices, labels carried over."""
    _require_minimum(graph, labeling)
    keep = [v for v, lab in enumerate(labeling.labels) if lab != 1]
    sub = induced_subgraph(graph, keep)
    return sub, Labeling(sub, tuple(labeling.labels[v] for v in keep))

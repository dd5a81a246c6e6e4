"""The packing route: a maximum end-coupled center-disjoint P5 packing.

``_max_eccd_engine`` sweeps inner sets and assigns their leaves
(``_min_cost_leaf_assignment``); ``max_eccd`` assembles the first maximum
packing it finds into an ``EccdSet``, and ``check_eccd`` checks a set
against the packing rules.  ``solver.gamma_via_eccd`` reads the 2-attack
number off the packing.

This module shares no answer with the branch and bound in ``search`` (the
two cross-check each other), so it imports neither that module nor
``solver`` nor ``cli``; a test reads its imports to keep it so.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate

from ._record import record
from .errors import InvalidEccdError
from .graph import Graph, iter_bits, mask_of, neighbor_masks


@record
class EccdSet:
    """Ordered P5 tuples satisfying the end-coupled center-disjoint rules.

    Each tuple (a, b, c, d, e) is a path: a and e are its leaves, b and d its
    inners and c its center.  Tuples may share only whole end edges in
    matching (leaf, inner) orientation, and a center may not appear in any
    other tuple.  Equivalently, every vertex plays one role in every tuple
    that holds it: the leaf of one inner, the inner of one leaf, or the
    center of one tuple.
    """

    paths: tuple[tuple[int, int, int, int, int], ...] = ()

    def __len__(self):
        return len(self.paths)


def check_eccd(graph: Graph, eccd: EccdSet) -> None:
    """Raise InvalidEccdError unless the set satisfies the packing rules.

    Each tuple must be a P5 of the graph, no tuple may repeat, and every
    vertex must play the same role in every tuple that holds it: the leaf of
    one inner, the inner of one leaf, or the center of one tuple.  That is
    the pairwise rule of ``EccdSet`` read per vertex, so one pass checks it.
    """
    for t in eccd.paths:
        if len(t) != 5:
            raise InvalidEccdError(f"tuple {t} has {len(t)} vertices, not 5")
        if len(set(t)) != 5:
            raise InvalidEccdError(f"tuple {t} repeats a vertex")
        for v in t:
            if not (type(v) is int and 0 <= v < graph.order):
                raise InvalidEccdError(f"tuple {t} leaves the graph")
        for x, y in zip(t, t[1:]):
            if not graph.has_edge(x, y):
                raise InvalidEccdError(f"tuple {t} is not a path: missing edge {x}-{y}")
    if len(set(eccd.paths)) != len(eccd.paths):
        raise InvalidEccdError("duplicate tuple in set")
    held = {}
    for t in eccd.paths:
        a, b, c, d, e = t
        for v, role in ((a, ("leaf", b)), (b, ("inner", a)), (c, ("center", t)),
                        (d, ("inner", e)), (e, ("leaf", d))):
            first, u = held.setdefault(v, (role, t))
            if first != role:
                was, now = (k if k == "center" else f"{k} of {p}" for k, p in (first, role))
                raise InvalidEccdError(
                    f"vertex {v} is the {was} in {u}, so it cannot be the {now} in {t}")


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
    (b) Per set: skip when |P(I)| <= best.
    (c) Room: a set of size s places s inners and their s leaves, so at most
        n - 2s vertices are left for centers.  Sizes with n - 2s <= best end
        the sweep; within a size, a DFS node returns after the child that
        lifts best to n - 2s.
    (d) Per DFS node: every later center is outside I and ends with two
        neighbors in I, so it is in ``two``, in ``one`` with a neighbor
        among the remaining candidates (``suf1``), or has two neighbors
        among them (``suf2``; not when one inner is left).  Prune when that
        count is <= best.  It cuts interior nodes on sparse graphs, where
        (e) is loose.
    (e) Per child, by center incidence: each center has at least two inner
        neighbors, and an inner i meets at most |N(i) - I| - 1 centers,
        since one of its outside neighbors is its leaf.  So 2 score(I) <=
        sum over i in I of (|N(i) - I| - 1).  With chosen inners C and
        ``need`` more to take from ``cands[k:]``, that sum is at most
        g + top[k][need]: g is the sum over C of (|N(i) - C| - 1), kept
        on the DFS, and top[k][r] is the sum of the r largest deg - 1 among
        ``cands[k:]`` (``_eccd_gain_table``).  The parent tests each child
        with the child's own g before it calls it (on the last level, before
        it builds the child's P(I)), and skips the child when half the bound
        is <= best.  A child j adds at most gain[j] to g, so every child from
        j on is held to g + top[j][need], which does not grow with j: once
        half of that is <= best, the loop breaks.  The size loop starts at
        k = 0, so (e) also holds a whole size to top[0][s] // 2.
    (f) Per set, forced leaves: an inner whose neighbors outside I all lie
        in P(I) puts its leaf in P(I) in every assignment, so the leaves
        cost at least the number of such inners.  Skip the set when |P(I)|
        minus that number is <= best, before the leaf assignment.

    ``nodes`` counts the inner sets that reach the per-set test (b).
    """
    n = len(adj)
    nodes = 0
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
        forced = 0
        for i in inners:
            if adj[i] & ~imask & ~pmask == 0:
                forced += 1
        if p_count - forced <= best_score:
            return
        found = _min_cost_leaf_assignment(
            adj, inners, imask, pmask, p_count - best_score)
        if found is not None:
            cost, assign = found
            best_score = p_count - cost
            best_sol = (imask, assign, pmask)

    def sweep(k, need, imask, one, two, g):
        nonlocal nodes
        if need == 1:
            # Last inner: read P(I) of each child off the masks directly.
            base = two & ~imask
            once = one & ~imask
            if (base | once & suf1[k]).bit_count() <= best_score:
                return
            for j in range(k, m):
                if (g + top[j][1]) // 2 <= best_score:
                    break
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
            if (g + top[j][need]) // 2 <= best_score:
                break
            v = cands[j]
            a = adj[v]
            g2 = g + gain[j] - 2 * (a & imask).bit_count()
            if (g2 + top[j + 1][need - 1]) // 2 <= best_score:
                continue
            both = one & a
            chosen.append(v)
            sweep(j + 1, need - 1, imask | 1 << v, (one | a) & ~(two | both), two | both, g2)
            chosen.pop()
            if best_score >= room:
                return

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
    adj = neighbor_masks(graph.neighbor_tuples())
    _, sol, nodes = _max_eccd_engine(adj)
    return _assemble_eccd(adj, sol), nodes


def max_eccd(graph: Graph) -> EccdSet:
    """A maximum end-coupled center-disjoint P5 packing, deterministically."""
    return _max_packing(graph)[0]


def _assemble_eccd(adj: Sequence[int], sol) -> EccdSet:
    if sol is None:
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

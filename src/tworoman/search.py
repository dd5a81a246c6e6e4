"""The branch-and-bound route: a depth-first search over label vectors.

``_search`` labels the vertices in a given order, cutting a child on the
residual discharging bound of ``_Discharge`` and on ``_seal_conflict``;
``solver.gamma_bruteforce`` runs each of its passes as one ``_search``.
``_search_order`` picks the vertex order, from the greedy seal orders of
``_seal_scan`` scored by their ``_frontier`` profile.

This module shares no answer with the packing route in ``packing`` (the
two cross-check each other), so it imports neither that module nor
``solver`` nor ``cli``; a test reads its imports to keep it so.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from heapq import heapify, heappop, heappush, heappushpop
from math import lcm

from .graph import iter_bits, neighbor_masks
from .labeling import first_violation


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
    (built here, the one ``graph.neighbor_masks`` call of a branch-and-bound
    solve), ``attack_n``, the charges below and ``root``, the state with
    every vertex undecided.  Every pass of a solve runs ``_search`` on this
    one object.

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
        self.adj = neighbor_masks(nbrs)
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
# vertex orders, per-position tables and the search core
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

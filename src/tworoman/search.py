"""The branch-and-bound route: a depth-first search over label vectors.

``_search`` labels the vertices in a given order, cutting a child on the
residual discharging bound of ``_Discharge`` and on ``_seal_conflict``;
``solver.gamma_bruteforce`` runs each of its passes as one ``_search``.
``_search_order`` picks the vertex order, from the greedy seal orders of
``_seal_scan``, each scored by the frontier profile it counts as it goes.

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


def _seal_conflict(adj, nbrs, labels, two_mask, seal, claimed,
                   attack_n) -> tuple[int, ...] | None:
    """The 2s that labeling ``order[i]`` gets claimed, or None when no minimum
    labeling extends the labels.

    A vertex is sealed at the position where it leaves the order's frontier
    (``_seal_tables``): from there on its closed neighborhood is labeled.
    ``seal`` lists the vertices sealed at i, the only ones whose checks below
    change.  A sealed 0 with no 2-neighbor is dead.  At attack >= 2 a sealed
    0 whose only 2-neighbor is w claims w: it is w's private 0 in every
    completion (``_Discharge.claim``).  A second claim on w is a dead pair,
    two 0s that only w defends.  The first claim is ``claimed[w]`` when a 0
    sealed before i made it (``_search`` sets the flag before it enters that
    child and clears it when it leaves), or in this call's claims when a 0
    sealed at i made it.  Two exchanges cut the rest: a sealed 1 with
    ``attack_n`` 2-neighbors stays valid as a 0, and a sealed 2 each of
    whose 0-neighbors has ``attack_n`` other 2-neighbors stays valid as a 1.
    Either maps every completion to a valid labeling one lighter with no
    more 2s, so none of them is minimum, under any 2-cap.
    """
    claims = ()
    for u in seal:
        lab = labels[u]
        t = adj[u] & two_mask
        if lab == 0:
            if t == 0:
                return None
            if attack_n >= 2 and t & (t - 1) == 0:
                w = t.bit_length() - 1
                if claimed[w] or w in claims:
                    return None
                claims += (w,)
        elif lab == 1:
            if t.bit_count() >= attack_n:
                return None
        else:
            for z in nbrs[u]:
                if labels[z] == 0 and (adj[z] & two_mask).bit_count() <= attack_n:
                    break
            else:
                return None
    return claims


class _Discharge:
    """The per-solve context of the branch and bound: one graph at one attack
    number, and the residual discharging bound on the weight its undecided
    vertices need.

    It holds the sorted neighbor tuples ``nbrs``, the adjacency masks ``adj``
    (built here, the one ``graph.neighbor_masks`` call of a branch-and-bound
    solve), ``attack_n``, the charges below, ``root``, the state with every
    vertex undecided, and ``claimed``, the per-vertex claim flags of the
    running search (a search clears each flag it sets, so every pass starts
    with none).  Every pass of a solve runs ``_search`` on this one object.

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
        sum_{u in U-F} c_u - sum_{decided 2s w} a_w (k_w + [k_w > 0, w unclaimed])
                           + sum_{z in O} c_z + sum_{z in H} f_z,
    k_w the number of undecided neighbors of w, since decided 2s are the
    only outside source of charge for U-F (F has no undecided neighbor).
    At attack >= 2 a decided 2 w is claimed when a sealed 0 (one with no
    undecided neighbor) has w as its only 2-neighbor: that 0 is w's private
    0 in every completion, so w's bonus cannot go to U.  O, the owed set,
    holds the decided 0s with an undecided neighbor, no decided 2-neighbor
    and no neighbor in F.  Every 2-neighbor that such a z ends with lies in
    U-F, so U-F sends z at least c_z on top of its own need.  H, the
    half-owed set, holds the decided 0s with an undecided neighbor, no
    neighbor in F and one decided 2-neighbor, a claimed one: z is not that
    2's private 0, so it gets a second 2 from U-F, which sends it at least
    f_z, the least a_u over z's neighbors.  A vertex of F may still become
    z's 2, which is why a 0 next to F owes nothing.  Arithmetic is in
    integers scaled by the lcm of the denominators.  A state is (t, nf,
    extra, owed): the scaled charge balance, |F|, the bound nf + ceil(max(0,
    t) / scale) and the mask of O | H (a member with a decided 2-neighbor is
    in H).
    """

    __slots__ = ("nbrs", "adj", "attack_n", "scale", "charge", "share", "bonus", "floor",
                 "root", "claimed")

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
        top = [0] * len(nbrs)  # the largest degree in N(v)
        for t, d in zip(nbrs, deg):
            for u in t:
                if top[u] < d:
                    top[u] = d
        self.charge = [min(scale, need * scale // (max(d, m) + slack))
                       for d, m in zip(deg, top)]
        self.share = [2 * scale // (d + slack) for d in deg]
        self.bonus = self.share if attack_n >= 2 else [0] * len(nbrs)
        self.floor = [2 * scale // (m + slack) for m in top]
        self.claimed = bytearray(len(nbrs))
        self.root = self.state((1 << len(nbrs)) - 1)

    def state(self, undecided: int, two_mask: int = 0,
              zero_mask: int = 0) -> tuple[int, int, int, int]:
        """The state of a node computed from scratch from the masks of its
        undecided vertices, its 2s and its 0s: it gives ``root``, and it is
        the reference that ``step`` and ``claim`` must match."""
        adj = self.adj
        charge = self.charge
        t = nf = forced = owed = claimed = 0
        for u in iter_bits(undecided):
            if adj[u] & (undecided | two_mask):
                t += charge[u]
            else:
                nf += 1
                forced |= 1 << u
        if self.attack_n >= 2:
            for z in iter_bits(zero_mask):
                tz = adj[z] & two_mask
                if not adj[z] & undecided and tz & (tz - 1) == 0:
                    claimed |= tz
        for w in iter_bits(two_mask):
            k = (adj[w] & undecided).bit_count()
            if k:
                t -= self.share[w] * k + (0 if claimed >> w & 1 else self.bonus[w])
        for z in iter_bits(zero_mask):
            if adj[z] & undecided and not adj[z] & forced:
                tz = adj[z] & two_mask
                if not tz:
                    owed |= 1 << z
                    t += charge[z]
                elif tz & claimed and tz & (tz - 1) == 0:
                    owed |= 1 << z
                    t += self.floor[z]
        return t, nf, nf + (-(-t // self.scale) if t > 0 else 0), owed

    def step(self, state, v: int, i: int, last: Sequence[int], pos: Sequence[int],
             later: Sequence[int], two_mask: int, labels: Sequence[int]):
        """The states after deciding v = order[i], indexed by v's label.

        After the step a vertex w is undecided when ``pos[w]``, its position,
        exceeds i, and it has an undecided neighbor when ``last[w]``, the
        position of its last neighbor, exceeds i; so it is in F when
        ``last[w] <= i < pos[w]`` and it has no 2-neighbor.  ``later`` lists
        the neighbors of v after i, ``two_mask`` the 2s before v is labeled and
        ``labels`` the labels of the decided vertices.  A member of O | H
        leaves on a 2 next to it or a neighbor entering F, paying back c_z if
        it has no decided 2-neighbor and f_z if it has one.  A 0 with a later
        neighbor and no neighbor entering F joins O when it has no 2-neighbor
        and H when its one 2-neighbor is claimed; an F vertex labeled 0 or 1
        leaves F and puts back its 0-neighbors that have an undecided
        neighbor, no other neighbor in F and no 2-neighbor or one claimed
        one.  Claims made at i come after, in ``claim``.  The work is O(deg v),
        plus O(deg^2) when v leaves F.  A child that leaves a 0 of O | H with
        no undecided neighbor differs from ``state``, which drops that 0, but
        ``_seal_conflict`` cuts it.
        """
        adj = self.adj
        charge = self.charge
        floor = self.floor
        claimed = self.claimed
        scale = self.scale
        t, nf, _, owed = state
        av = adj[v]
        near = av & two_mask
        if not later and not near:
            # v leaves F: no neighbor of v is in O | H, and none enters F
            nf -= 1
            two = (t, nf, nf + (-(-t // scale) if t > 0 else 0), owed)
            nbrs = self.nbrs
            for z in nbrs[v]:
                if labels[z] == 0 and last[z] > i:
                    tz = adj[z] & two_mask
                    if not tz:
                        gain = charge[z]
                    elif tz & (tz - 1) == 0 and claimed[tz.bit_length() - 1]:
                        gain = floor[z]
                    else:
                        continue
                    for x in nbrs[z]:
                        if last[x] <= i < pos[x] and not adj[x] & two_mask:
                            break
                    else:
                        owed |= 1 << z
                        t += gain
            one = (t, nf, nf + (-(-t // scale) if t > 0 else 0), owed)
            return one, one, two
        share = self.share
        bonus = self.bonus
        t -= charge[v]
        m = near
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            t += share[w] if last[w] > i or claimed[w] else share[w] + bonus[w]
        t2 = t - share[v] * len(later) - bonus[v] if later else t
        m = owed & av
        if m:
            kept = owed ^ m
            while m:
                b = m & -m
                m ^= b
                z = b.bit_length() - 1
                t2 -= floor[z] if adj[z] & two_mask else charge[z]
        else:
            kept = owed
        two = (t2, nf, nf + (-(-t2 // scale) if t2 > 0 else 0), kept)
        # What v owes as a 0 (every share and charge is positive): v has a
        # later neighbor whenever it has no 2-neighbor here.
        if not near:
            gain = charge[v]
        elif later and near & (near - 1) == 0 and claimed[near.bit_length() - 1]:
            gain = floor[v]
        else:
            gain = 0
        for u in later:
            if last[u] <= i and not adj[u] & two_mask:  # u is now forced
                nf += 1
                t -= charge[u]
                gain = 0
                m = owed & adj[u]
                if m:
                    owed ^= m
                    while m:
                        b = m & -m
                        m ^= b
                        z = b.bit_length() - 1
                        t -= floor[z] if adj[z] & two_mask else charge[z]
        one = (t, nf, nf + (-(-t // scale) if t > 0 else 0), owed)
        if not gain:
            return one, one, two
        t += gain
        return (t, nf, nf + (-(-t // scale) if t > 0 else 0), owed | 1 << v), one, two

    def claim(self, state, claims: Sequence[int], i: int, pos: Sequence[int],
              last: Sequence[int], two_mask: int, labels: Sequence[int]):
        """The state after the sealed 0s of position i claim the 2s in
        ``claims`` (``_seal_conflict``), with their flags set.  The caller
        clears them when it leaves the child, so below it ``claimed[w]`` says
        that a sealed 0 holds w alone, and ``_seal_conflict`` cuts a second
        such 0.  A claimed w stops owing U its bonus while k_w > 0, and its
        decided 0-neighbors with w as their only 2-neighbor, an undecided
        neighbor and no neighbor in F join H.  The arguments are those of
        ``step`` after it; ``two_mask`` includes ``order[i]``'s label.
        """
        adj = self.adj
        nbrs = self.nbrs
        claimed = self.claimed
        t0, nf, _, owed = state
        t = t0
        for w in claims:
            claimed[w] = 1
            if last[w] > i:
                t += self.bonus[w]
            for z in nbrs[w]:
                if i < last[z] and pos[z] <= i and labels[z] == 0 and adj[z] & two_mask == 1 << w:
                    for x in nbrs[z]:
                        if last[x] <= i < pos[x] and not adj[x] & two_mask:
                            break
                    else:
                        owed |= 1 << z
                        t += self.floor[z]
        if t == t0:  # every bonus and floor is positive: nothing changed
            return state
        return t, nf, nf + (-(-t // self.scale) if t > 0 else 0), owed


# ---------------------------------------------------------------------------
# vertex orders, per-position tables and the search core
# ---------------------------------------------------------------------------


def _positions(nbrs: Sequence[tuple[int, ...]],
               order: Sequence[int]) -> tuple[list[int], list[int]]:
    """(pos, last) of a vertex order: pos[u] is u's position and last[u] the
    position of u's last neighbor (-1 for none).  A vertex is on the
    frontier from pos[u] up to last[u] and sealed at max(pos[u], last[u])."""
    pos = [0] * len(nbrs)
    last = [-1] * len(nbrs)
    for i, v in enumerate(order):
        pos[v] = i
        for u in nbrs[v]:
            last[u] = i
    return pos, last


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


def _seal_scan(nbrs: Sequence[tuple[int, ...]], start: int | None = None,
               stop: int | None = None) -> tuple[list[int], int, int] | None:
    """One greedy seal order and its frontier profile: (order, score, width)
    as ``_frontier`` gives them, or None as soon as the partial score
    reaches ``stop``.

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
    with the next pop, which then returns it without a sift.  The frontier
    is counted on the way: ``left[u]`` counts u's unordered neighbors, a
    vertex joins the frontier when it is ordered with one left and leaves it
    when its last one is ordered.
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
    left = list(map(len, nbrs))
    order = []
    held = None  # the last dropped key goes in with the next pop
    score = width = live = 0
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
            left[u] -= 1
            k = key[u]
            if k >= 0:
                key[u] = k = k - drop
                if held is not None:
                    heappush(heap, held)
                held = k
            elif not left[u]:
                live -= 1
        if left[v]:
            live += 1
            if live > width:
                width = live
        score += live * live
        if stop is not None and score >= stop:
            return None
    return order, score, width


def _search_order(nbrs: Sequence[tuple[int, ...]]) -> tuple[list[int], int, int]:
    """The vertex order of the optimum and extremal-count searches.

    The search cost grows with the frontier width the order leaves, and the
    plain seal order's id tie-break sweeps a row-major grid along its rows.
    So the candidates are the plain seal order and the seal orders started
    at each of the first three minimum-degree vertices; a candidate replaces
    the plain order only with a strictly lower ``_frontier`` score, the sum
    of squared frontier widths, so a frontier that stays wide counts for
    more than a brief peak.  Each scan after the first stops once its score
    reaches the best so far, since it can no longer win.  Returns (order,
    score, width) of the winner.
    """
    low = min(map(len, nbrs), default=0)
    starts = [v for v, t in enumerate(nbrs) if len(t) == low][:3]
    best = _seal_scan(nbrs)
    for start in starts:
        best = _seal_scan(nbrs, start, best[1]) or best
    return best


def _seal_tables(nbrs: Sequence[tuple[int, ...]], order: Sequence[int]):
    """The per-position tables of ``_search``: (pos, last, sealed, later).

    ``pos`` and ``last`` are those of ``_positions``.  ``sealed[i]`` lists
    the vertices u with max(pos[u], last[u]) = i, the position where u
    leaves the frontier and is sealed, and ``later[i]`` the neighbors of
    ``order[i]`` after position i.
    """
    pos, last = _positions(nbrs, order)
    sealed = [[] for _ in order]
    for u, c in enumerate(map(max, pos, last)):
        sealed[c].append(u)
    later = [tuple([u for u in nbrs[v] if pos[u] > i]) for i, v in enumerate(order)]
    return pos, last, sealed, later


def _search(bound: _Discharge, order, labs: tuple[int, ...], wmax: int, tlo: int, thi: int,
            leaf) -> int:
    """The one branch-and-bound core: a DFS over label vectors.

    Labels the vertices in ``order``, trying the labels ``labs`` at each.
    ``bound`` is the solve's ``_Discharge``: the search reads the graph's
    neighbor tuples, adjacency masks and attack number off it and starts at
    its root state.  A child is cut when its weight plus the bound of the
    rest exceeds ``wmax``, when its 2-count leaves the window [``tlo``,
    ``thi``] (the rest can add at most half the weight left under ``wmax``
    in 2s; ``thi`` = n is no cap), or on ``_seal_conflict``: a dead 0, or
    a sealed vertex whose relabeling makes every completion lighter with no
    more 2s, so that subtree holds no labeling of least weight under any
    2-cap it meets.  At each labeling that ``first_violation`` passes it
    calls the leaf rule ``leaf(labels, wgt, twos)`` with the live label
    vector, which returns the new limits (wmax, tlo, thi), or None to stop.
    Returns the number of nodes explored, leaves included.

    Decided means placed: at depth i the vertices before position i carry
    their labels in ``labels`` and the rest are undecided.  The tables of
    ``_seal_tables``, built once per call, say where each vertex is sealed
    and which neighbors of ``order[i]`` come after it, so a node carries
    only (depth, mask of 2s, weight, 2-count, bound state).  One
    ``bound.step`` per node gives the bound states of its children indexed
    by label, so each child reads ``kids[lab]``; the states of the 0-child
    and the 1-child differ when a 0 there starts to owe charge.  A child
    whose seal claims 2s takes the claims into its state with
    ``bound.claim``, meets the weight limit again, and clears their flags in
    ``bound.claimed`` when its subtree is done.  So inside the subtree the
    flags name exactly the 2s that a sealed 0 holds alone, the one record
    from which ``_seal_conflict`` reads a dead pair and ``step`` and
    ``claim`` read the claimed bonuses.
    """
    nbrs, adj, attack_n = bound.nbrs, bound.adj, bound.attack_n
    n = len(adj)
    pos, last, sealed, later = _seal_tables(nbrs, order)
    step, claim, claimed = bound.step, bound.claim, bound.claimed
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
        kids = step(state, v, idx, last, pos, later[idx], two_mask, labels)
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
            if seal:
                claims = _seal_conflict(adj, nbrs, labels, m2, seal, claimed, attack_n)
                if claims is None:
                    continue
                if claims:
                    st = claim(st, claims, idx, pos, last, m2, labels)
                    if w2 + st[2] <= wmax:
                        rec(idx + 1, m2, w2, t2, st)
                    for w in claims:
                        claimed[w] = 0
                    if not running:
                        return
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

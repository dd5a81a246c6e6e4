"""Shared test utilities: naive oracles, corpora, and fixture graphs."""

from __future__ import annotations

import random
from itertools import combinations, product

from hypothesis import strategies as st
from tworoman import (EccdSet, Graph, Labeling, build_graph, p5_candidates,
                      validate_by_enumeration)
from tworoman.graph import iter_bits, mask_of
from tworoman.packing import _min_cost_leaf_assignment
from tworoman.search import _Discharge, _search


def naive_gamma(graph: Graph, attack_n: int = 2, max_twos: int | None = None) -> int:
    """Independent oracle: full enumeration of all 3^n label vectors.

    Only usable on tiny graphs; deliberately shares no code with the
    branch-and-bound or packing solvers.
    """
    best = None
    for labels in product((0, 1, 2), repeat=graph.order):
        if max_twos is not None and labels.count(2) > max_twos:
            continue
        if best is not None and sum(labels) >= best:
            continue
        labeling = Labeling(graph, labels)
        if validate_by_enumeration(labeling, attack_n).valid:
            best = sum(labels)
    return 0 if best is None else best


def naive_valid_labelings(graph: Graph, attack_n: int = 2) -> list[tuple[int, ...]]:
    """Every valid label vector of the graph, in lexicographic order."""
    return [labels for labels in product((0, 1, 2), repeat=graph.order)
            if validate_by_enumeration(Labeling(graph, labels), attack_n).valid]


def naive_minimum_labelings(graph: Graph, attack_n: int = 2) -> list[tuple[int, ...]]:
    valid = naive_valid_labelings(graph, attack_n)
    gamma = min(sum(labels) for labels in valid)
    return [labels for labels in valid if sum(labels) == gamma]


def _tuples_compatible(t, u) -> bool:
    if t[2] in u or u[2] in t:
        return False
    uset = set(u)
    tset = set(t)
    for leaf, inner in ((t[0], t[1]), (t[4], t[3])):
        if leaf in uset or inner in uset:
            if (u[0], u[1]) != (leaf, inner) and (u[4], u[3]) != (leaf, inner):
                return False
    for leaf, inner in ((u[0], u[1]), (u[4], u[3])):
        if leaf in tset or inner in tset:
            if (t[0], t[1]) != (leaf, inner) and (t[4], t[3]) != (leaf, inner):
                return False
    return True


def max_eccd_reference(graph: Graph) -> EccdSet:
    """Straight set-packing search over explicit P5 candidates.

    Exponential in the candidate count; an independent reference for
    cross-checking ``max_eccd`` on small graphs.
    """
    cands = p5_candidates(graph)
    best: list[tuple] = []
    chosen: list[tuple] = []

    def rec(start):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (len(cands) - start) <= len(best):
            return
        for k in range(start, len(cands)):
            t = cands[k]
            if all(_tuples_compatible(t, u) for u in chosen):
                chosen.append(t)
                rec(k + 1)
                chosen.pop()

    rec(0)
    return EccdSet(tuple(sorted(best)))


def eccd_sweep_reference(adj: list[int]) -> tuple[int, tuple | None, int]:
    """The unpruned inner-set sweep that ``packing._max_eccd_engine`` replaces.

    Visits every inner set in (size, lex) order and keeps the first one that
    strictly beats the incumbent; the pruned engine must return the same
    (score, solution).
    """
    n = len(adj)
    nodes = 0
    if n < 5:
        return 0, None, nodes
    full = (1 << n) - 1
    best_score = 0
    best_sol = None
    for s in range(2, n // 2 + 1):
        if n - 2 * s <= best_score:
            break
        for inners in combinations(range(n), s):
            nodes += 1
            imask = mask_of(inners)
            if any(adj[i] & ~imask & full == 0 for i in inners):
                continue
            pmask = 0
            rest = full & ~imask
            while rest:
                b = rest & -rest
                rest ^= b
                if (adj[b.bit_length() - 1] & imask).bit_count() >= 2:
                    pmask |= b
            p_count = pmask.bit_count()
            if p_count <= best_score:
                continue
            found = _min_cost_leaf_assignment(
                adj, inners, imask, pmask, p_count - best_score)
            if found is None:
                continue
            cost, assign = found
            best_score = p_count - cost
            best_sol = (imask, assign, pmask)
    return best_score, best_sol, nodes


def frontier_reference(nbrs, order) -> tuple[int, int]:
    """(sum of squared frontier widths, largest width) over the prefixes of
    ``order``, each frontier counted from scratch: the quadratic reference
    for ``search._frontier``."""
    adj = [mask_of(t) for t in nbrs]
    placed = score = top = 0
    for v in order:
        placed |= 1 << v
        width = sum(1 for u in iter_bits(placed) if adj[u] & ~placed)
        score += width * width
        top = max(top, width)
    return score, top


def eccd_set_score(adj: list[int], inners) -> int | None:
    """Centers a packing with exactly these inners can have, or None when the
    inners cannot all get distinct leaves."""
    imask = mask_of(inners)
    pmask = 0
    for v in range(len(adj)):
        if not imask >> v & 1 and (adj[v] & imask).bit_count() >= 2:
            pmask |= 1 << v
    p_count = pmask.bit_count()
    found = _min_cost_leaf_assignment(adj, tuple(inners), imask, pmask, p_count + 1)
    return None if found is None else p_count - found[0]


def bb_gamma_degree_order(graph: Graph, attack_n: int, max_twos: int | None) -> int:
    """Gamma from the optimum pass of ``solver.gamma_bruteforce`` run over
    vertices in descending-degree order (ties by id), the order it used
    before the seal scan.  The vertex order may change the node count but
    never gamma.
    """
    n = graph.order
    nbrs = graph.neighbor_tuples()
    cap = n if max_twos is None else max_twos
    order = sorted(range(n), key=lambda v: (-len(nbrs[v]), v))
    gamma = [n]

    def lower(labels, wgt, twos):
        gamma[0] = wgt
        return wgt - 1, 0, cap

    _search(_Discharge(nbrs, attack_n), order, (0, 2, 1), n - 1, 0, cap, lower)
    return gamma[0]


def _connected(n: int, adj: list[int]) -> bool:
    if n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        grown = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            grown |= adj[b.bit_length() - 1]
        frontier = grown & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _graph_from_edge_mask(n: int, pairs, emask: int) -> Graph | None:
    adj = [0] * n
    edges = []
    for k, (u, v) in enumerate(pairs):
        if emask >> k & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((u, v))
    if not _connected(n, adj):
        return None
    return build_graph(n, edges)


def all_connected_graphs(max_order: int):
    """Every connected labeled graph with 1..max_order vertices."""
    for n in range(1, max_order + 1):
        pairs = list(combinations(range(n), 2))
        for emask in range(1 << len(pairs)):
            graph = _graph_from_edge_mask(n, pairs, emask)
            if graph is not None:
                yield graph


def sampled_connected_graphs(order: int, count: int, seed: int):
    """Seeded sample of distinct connected graphs of one order."""
    rng = random.Random(seed)
    pairs = list(combinations(range(order), 2))
    seen = set()
    out = []
    while len(out) < count:
        emask = rng.getrandbits(len(pairs))
        if emask in seen:
            continue
        seen.add(emask)
        graph = _graph_from_edge_mask(order, pairs, emask)
        if graph is not None:
            out.append(graph)
    return out


def graphs(max_order=9):
    """Random graph strategy: order plus an edge-presence mask."""
    @st.composite
    def _graph(draw):
        n = draw(st.integers(min_value=0, max_value=max_order))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return build_graph(n, [p for p, keep in zip(pairs, picks) if keep])
    return _graph()


def random_graphs(count: int, seed: int, orders=(8, 9, 10, 11, 12),
                  probabilities=(0.2, 0.5, 0.8)):
    """Seeded random graphs; not necessarily connected."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(orders)
        p = rng.choice(probabilities)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        out.append(build_graph(n, edges))
    return out


# -- fixed graphs used across the suite --------------------------------------


def fig1_star_labeled() -> tuple[Graph, Labeling]:
    """Hub labeled 2 with two 0-leaves: 1-attack valid, 2-attack invalid."""
    g = build_graph(3, [(0, 1), (0, 2)])
    return g, Labeling(g, (2, 0, 0))


def eccd_showcase_graph() -> Graph:
    """Ten-vertex graph with several P5 packings, the largest of size 2.

    External ids 1..10; vertex 8 is the degree-5 hub shared by both arms.
    """
    edges_ext = [(1, 2), (2, 8), (8, 4), (4, 5), (6, 7), (7, 8), (8, 9),
                 (9, 10), (2, 3), (3, 4), (5, 8)]
    ids = list(range(1, 11))
    return build_graph(10, [(u - 1, v - 1) for u, v in edges_ext], external_ids=ids)


def allepn_graph() -> Graph:
    """Eight vertices: three left, two middle hubs, three right.

    Labeling the left column 2 gives every 2 a private neighbor at weight 6;
    labeling the middle hubs 2 is minimum at weight 4.  External ids 1..8.
    """
    edges = [(0, 5), (1, 6), (2, 7)]
    for mid in (3, 4):
        for other in (0, 1, 2, 5, 6, 7):
            edges.append((mid, other))
    return build_graph(8, edges, external_ids=list(range(1, 9)))


def allepn_labelings() -> tuple[Labeling, Labeling]:
    g = allepn_graph()
    heavy = Labeling(g, (2, 2, 2, 0, 0, 0, 0, 0))  # weight 6, all 2s have epns
    minimum = Labeling(g, (0, 0, 0, 2, 2, 0, 0, 0))  # weight 4, no epns
    return heavy, minimum


def sierpinski_graph(iterations: int = 3) -> Graph:
    """Triangle subdivided ``iterations`` times; iteration 3 has 42 vertices.

    Vertices carry integer coordinates; external ids follow sorted coordinate
    order, so the construction is deterministic.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    edges = {((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))}
    for k in range(iterations):
        size = 2 ** k
        shifted = set()
        for (a, b) in edges:
            for dx, dy in ((size, 0), (0, size)):
                shifted.add(((a[0] + dx, a[1] + dy), (b[0] + dx, b[1] + dy)))
        edges |= shifted
    coords = sorted({p for e in edges for p in e})
    index = {p: i for i, p in enumerate(coords)}
    return build_graph(len(coords), [(index[a], index[b]) for a, b in edges])

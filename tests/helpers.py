"""Shared test utilities: naive oracles, corpora, and fixture graphs."""

from __future__ import annotations

import random
from itertools import combinations, product

from tworoman import Graph, Labeling, build_graph, validate_by_enumeration


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

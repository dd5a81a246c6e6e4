import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eccd_showcase_graph, graphs, random_graphs
from tworoman import (EmptyGraphError, FamilySpec, Graph, OutOfRangeError, PatchSpec,
                      SelfLoopError, assign_private_neighbors, ball, build_graph,
                      generate, generate_patch, induced_subgraph, max_degree,
                      open_neighborhood, solve)
from tworoman.graph import iter_bits, neighbor_masks


class TestBuildGraph:
    def test_star(self):
        g = build_graph(3, [(0, 1), (0, 2)])
        assert [g.degree(v) for v in g.vertices()] == [2, 1, 1]

    def test_empty(self):
        g = build_graph(0, [])
        assert g.order == 0 and g.edge_count() == 0

    def test_duplicate_edges_collapse(self):
        g = build_graph(4, [(0, 1), (1, 0)])
        assert g.edge_count() == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            build_graph(3, [(0, 3)])
        with pytest.raises(OutOfRangeError) as info:  # the first endpoint is the bad one
            build_graph(3, [(5, 0)])
        assert info.value.vertex == 5
        with pytest.raises(OutOfRangeError) as info:
            Graph(-1, [])
        assert info.value.vertex == -1
        for order in (2.0, True):  # an order is an int, not a float or a bool
            with pytest.raises(OutOfRangeError):
                Graph(order, [])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(1, 1)])

    def test_external_ids_roundtrip(self):
        g = build_graph(3, [(0, 1)], external_ids=[10, 20, 30])
        assert g.external_id(1) == 20
        assert g.internal_id(30) == 2

    def test_unknown_external_id(self):
        g = build_graph(3, [(0, 1)], external_ids=[10, 20, 30])
        with pytest.raises(OutOfRangeError) as info:
            g.internal_id(7)
        assert info.value.vertex == 7

    @pytest.mark.parametrize("edge, bad", [((0.0, 1), 0.0), ((0, 1.0), 1.0), (("a", 1), "a"),
                                           ((True, 0), True), ((1.0, 1), 1.0)],
                             ids=["float_u", "float_v", "str_u", "bool_u", "float_loop"])
    def test_endpoint_not_an_int(self, edge, bad):
        with pytest.raises(OutOfRangeError) as info:
            build_graph(3, [edge])
        assert info.value.vertex == bad and type(info.value.vertex) is type(bad)

    def test_edge_not_a_pair(self):
        with pytest.raises(TypeError):
            build_graph(3, [5])

    def test_external_ids_must_be_bijective(self):
        with pytest.raises(ValueError):
            build_graph(2, [], external_ids=[5, 5])

    @pytest.mark.parametrize("ids", [[-3, 5], ["a", -3], [True, 5]],
                             ids=["negative", "str", "bool"])
    def test_external_ids_must_be_ints_a_file_can_hold(self, ids):
        # the file format reads only ints >= 0 as vertex ids
        with pytest.raises(ValueError, match="distinct ints >= 0"):
            build_graph(2, [(0, 1)], external_ids=ids)


class TestOpenNeighborhood:
    def test_path_ends(self):
        p3 = generate(FamilySpec("path", (3,)))
        assert open_neighborhood(p3, {0, 2}) == {1}

    def test_complete(self):
        k4 = generate(FamilySpec("complete", (4,)))
        assert open_neighborhood(k4, {0}) == {1, 2, 3}

    def test_showcase_hub(self):
        g = eccd_showcase_graph()
        hub = g.internal_id(8)
        expected = {g.internal_id(e) for e in (2, 4, 5, 7, 9)}
        assert open_neighborhood(g, {hub}) == expected

    def test_empty_set(self):
        k4 = generate(FamilySpec("complete", (4,)))
        assert open_neighborhood(k4, set()) == frozenset()


class TestBall:
    def test_path_center(self):
        p21 = generate(FamilySpec("path", (21,)))
        b = ball(p21, 10, 3)
        assert b.order == 7
        degrees = sorted(b.degree(v) for v in b.vertices())
        assert degrees == [1, 1, 2, 2, 2, 2, 2]

    def test_radius_zero(self):
        g = generate(FamilySpec("cycle", (5,)))
        assert ball(g, 2, 0).order == 1
        for radius in (-1, 1.5, True):  # a radius is an int, not a float or a bool
            with pytest.raises(ValueError, match="radius"):
                ball(g, 2, radius)

    def test_radius_beyond_diameter(self):
        c6 = generate(FamilySpec("cycle", (6,)))
        assert ball(c6, 0, 10).order == 6

    def test_disconnected_stays_in_component(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert ball(g, 0, 5).order == 2

    def test_bad_center(self):
        with pytest.raises(OutOfRangeError):
            ball(build_graph(2, []), 2, 1)


C6 = generate(FamilySpec("cycle", (6,)))


class TestVertexIds:
    """Every accessor takes only an int in 0..order-1 as a vertex id: a
    negative id does not wrap to the end, and a float or a bool is no id,
    nor an external id."""

    @pytest.mark.parametrize("call", [
        lambda: C6.has_edge(-1, 0),
        lambda: C6.has_edge(0, -1),
        lambda: C6.has_edge(True, 0),
        lambda: C6.neighbors(-1),
        lambda: C6.degree(-1),
        lambda: C6.external_id(-1),
        lambda: C6.internal_id(True),
        lambda: C6.neighbors(6),
        lambda: C6.degree(6.0),
        lambda: ball(C6, 0.0, 1),
        lambda: ball(C6, 6, -1),  # the center is checked before the radius
        lambda: open_neighborhood(C6, [0.0]),
        lambda: induced_subgraph(C6, [0.0, 1]),
    ], ids=["has_edge_neg_u", "has_edge_neg_v", "has_edge_bool", "neighbors_neg", "degree_neg",
            "external_id_neg", "internal_id_bool", "neighbors_past_end", "degree_float", "ball_float_center",
            "ball_center_before_radius", "open_neighborhood_float", "induced_subgraph_float"])
    def test_rejected(self, call):
        with pytest.raises(OutOfRangeError):
            call()


class TestMaxDegree:
    def test_star(self):
        assert max_degree(generate(FamilySpec("star", (4,)))) == 4

    def test_cycle(self):
        assert max_degree(generate(FamilySpec("cycle", (9,)))) == 2

    def test_showcase(self):
        assert max_degree(eccd_showcase_graph()) == 5

    def test_empty(self):
        with pytest.raises(EmptyGraphError):
            max_degree(build_graph(0, []))


class TestInducedSubgraph:
    def test_k4_pair(self):
        k4 = generate(FamilySpec("complete", (4,)))
        sub = induced_subgraph(k4, {0, 1})
        assert sub.order == 2 and sub.edge_count() == 1

    def test_path_ends_isolated(self):
        p5 = generate(FamilySpec("path", (5,)))
        sub = induced_subgraph(p5, {0, 4})
        assert sub.order == 2 and sub.edge_count() == 0

    def test_k66_to_k26(self):
        k66 = generate(FamilySpec("complete_bipartite", (6, 6)))
        # two hubs from part A plus all of part B
        sub = induced_subgraph(k66, [0, 1] + list(range(6, 12)))
        assert sub.order == 8 and sub.edge_count() == 12
        assert sorted(sub.degree(v) for v in sub.vertices()) == [2] * 6 + [6] * 2

    def test_identity(self):
        g = eccd_showcase_graph()
        assert induced_subgraph(g, g.vertices()) == g


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetric(g):
    for u in g.vertices():
        for v in g.neighbors(u):
            assert g.has_edge(v, u)


@given(graphs(), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_ball_monotone_in_radius(g, r):
    if g.order == 0:
        return
    center = r % g.order
    previous = -1
    for radius in range(0, 5):
        b = ball(g, center, radius)
        assert b.order >= previous
        previous = b.order
    component = ball(g, center, g.order)
    assert ball(g, center, g.order + 3).order == component.order


@given(graphs(), st.sets(st.integers(min_value=0, max_value=8)))
@settings(max_examples=60, deadline=None)
def test_open_neighborhood_disjoint_from_set(g, raw):
    s = {v for v in raw if v < g.order}
    assert not (open_neighborhood(g, s) & s)


# -- invariants of every construction route ------------------------------------


def _showcase_private():
    g = eccd_showcase_graph()
    return assign_private_neighbors(solve(g).labeling)[0]


def _grid_private():
    g = generate(FamilySpec("grid", (3, 4)))
    return assign_private_neighbors(solve(g).labeling)[0]


CONSTRUCTIONS = {
    "Graph": lambda: Graph(5, [(3, 1), (0, 4), (4, 1), (1, 3), (2, 0)],
                           external_ids=[9, 4, 7, 0, 2]),
    "build_graph": lambda: build_graph(6, [(5, 0), (0, 1), (2, 4), (1, 0)]),
    "from_masks_showcase": _showcase_private,
    "from_masks_grid": _grid_private,
    "induced_subgraph": lambda: induced_subgraph(eccd_showcase_graph(), [9, 2, 7, 4, 8, 0]),
    "ball": lambda: ball(generate(FamilySpec("grid", (5, 5))), 12, 2),
    "family_complete_bipartite": lambda: generate(FamilySpec("complete_bipartite", (3, 4))),
    "family_cycle": lambda: generate(FamilySpec("cycle", (9,))),
    "patch_triangular_torus": lambda: generate_patch(
        PatchSpec("triangular", 6, 5, "torus")).graph,
    "patch_hexagonal_open": lambda: generate_patch(
        PatchSpec("hexagonal", 5, 4, "open")).graph,
}


@pytest.mark.parametrize("build", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS.keys())
def test_neighbor_tuples_agree_with_masks(build):
    g = build()
    masks = neighbor_masks(g.neighbor_tuples())
    for v in g.vertices():
        nbrs = g.neighbors(v)
        assert list(nbrs) == sorted(nbrs)
        assert nbrs == tuple(iter_bits(masks[v]))
        assert g.degree(v) == masks[v].bit_count()
    # the mask-walking order: u ascending, then v > u ascending
    assert list(g.edges()) == [(u, v) for u in g.vertices()
                               for v in iter_bits(masks[u] >> (u + 1) << (u + 1))]
    assert g.edge_count() == sum(m.bit_count() for m in masks) // 2
    for u in g.vertices():
        for v in g.vertices():
            assert g.has_edge(u, v) == bool(masks[u] >> v & 1)
    if g.order:
        assert max_degree(g) == max(m.bit_count() for m in masks)


@pytest.mark.parametrize("build", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS.keys())
def test_two_constructions_are_equal(build):
    g = build()
    fresh = build()
    edges = list(g.edges())
    rebuilt = [
        fresh,
        Graph(g.order, edges, g.external_ids),
        build_graph(g.order, [(v, u) for u, v in reversed(edges)], g.external_ids),
        Graph._from_neighbors(
            tuple(tuple(iter_bits(m)) for m in neighbor_masks(g.neighbor_tuples())),
            g.external_ids),
    ]
    for other in rebuilt:
        assert other == g and hash(other) == hash(g)
    if g.external_ids != tuple(range(g.order)):
        assert Graph(g.order, edges) != g  # external ids take part in equality


def test_random_graphs_roundtrip_through_masks():
    for g in random_graphs(30, seed=1515):
        masks = neighbor_masks(g.neighbor_tuples())
        assert Graph._from_neighbors(tuple(tuple(iter_bits(m)) for m in masks)) == g
        assert [g.neighbors(v) for v in g.vertices()] == [
            tuple(iter_bits(m)) for m in masks]

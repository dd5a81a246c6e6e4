import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import allepn_labelings, fig1_star_labeled, random_graphs
from tworoman import (FamilySpec, Labeling, PatchSpec, build_graph, epn_set, find_pattern,
                      generate, generate_patch, parse_graph_file, partition,
                      pattern_labeling, public_set, structured_document, validate,
                      validate_by_enumeration, verify_pattern, write_graph_file)
from tworoman import labeling as labeling_module
from tworoman.labeling import first_violation


def k6_fig_labeling():
    g = generate(FamilySpec("complete", (6,)))
    return Labeling(g, (2, 0, 2, 0, 0, 0))


class TestLabelingType:
    def test_length_checked(self):
        g = generate(FamilySpec("path", (3,)))
        with pytest.raises(ValueError):
            Labeling(g, (0, 1))

    def test_labels_checked(self):
        g = generate(FamilySpec("path", (3,)))
        with pytest.raises(ValueError):
            Labeling(g, (0, 1, 3))

    def test_empty_graph(self):
        g = build_graph(0, [])
        lab = Labeling(g, ())
        assert lab.weight == 0
        assert validate(lab, 2).valid
        assert validate(lab, 5).valid

    def test_list_labels_stored_as_tuple(self):
        g = generate(FamilySpec("path", (3,)))
        from_list, from_tuple = Labeling(g, [0, 2, 0]), Labeling(g, (0, 2, 0))
        assert from_list.labels == (0, 2, 0)
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
        assert len({from_list, from_tuple}) == 1


class TestWeight:
    def test_k6(self):
        assert k6_fig_labeling().weight == 4

    def test_all_one(self):
        g = generate(FamilySpec("cycle", (7,)))
        assert Labeling(g, (1,) * 7).weight == 7

    def test_all_zero(self):
        g = generate(FamilySpec("cycle", (7,)))
        assert Labeling(g, (0,) * 7).weight == 0


class TestPartition:
    def test_star(self):
        _, lab = fig1_star_labeled()
        v0, v1, v2 = partition(lab)
        assert v0 == {1, 2} and v1 == frozenset() and v2 == {0}

    def test_all_one(self):
        g = generate(FamilySpec("path", (4,)))
        v0, v1, v2 = partition(Labeling(g, (1,) * 4))
        assert v1 == {0, 1, 2, 3} and not v0 and not v2

    def test_hub_labeling(self):
        g = generate(FamilySpec("complete_bipartite", (2, 6)))
        lab = Labeling(g, (2, 2) + (0,) * 6)
        v0, v1, v2 = partition(lab)
        assert v2 == {0, 1} and v0 == frozenset(range(2, 8)) and not v1


class TestPrivatePublic:
    def test_all_epn_labeling(self):
        heavy, minimum = allepn_labelings()
        assert epn_set(heavy) == {5, 6, 7}
        assert public_set(heavy) == {3, 4}
        assert epn_set(minimum) == frozenset()
        assert public_set(minimum) == {0, 1, 2, 5, 6, 7}

    def test_single_two_no_public(self):
        g = generate(FamilySpec("path", (2,)))
        lab = Labeling(g, (2, 0))
        assert public_set(lab) == frozenset()
        assert epn_set(lab) == {1}

    def test_no_twos(self):
        g = generate(FamilySpec("complete", (4,)))
        assert epn_set(Labeling(g, (0,) * 4)) == frozenset()

    def test_zero_partition_identity(self):
        # |epn| + |public| + |undefended 0s| = |V0|
        g = generate(FamilySpec("cycle", (6,)))
        for labels in product((0, 1, 2), repeat=6):
            lab = Labeling(g, labels)
            v0 = partition(lab)[0]
            bare = sum(1 for v in v0 if 2 not in (labels[u] for u in g.neighbors(v)))
            assert len(epn_set(lab)) + len(public_set(lab)) + bare == len(v0)


class TestValidate:
    def test_star_two_zero_leaves(self):
        _, lab = fig1_star_labeled()
        assert validate(lab, 1).valid
        report = validate(lab, 2)
        assert not report.valid
        assert report.witness == (1, 2)

    def test_star_one_leaf_promoted(self):
        g, _ = fig1_star_labeled()
        assert validate(Labeling(g, (2, 0, 1)), 2).valid

    def test_k6(self):
        assert validate(k6_fig_labeling(), 2).valid

    def test_all_one_any_attack(self):
        g = generate(FamilySpec("complete", (5,)))
        lab = Labeling(g, (1,) * 5)
        for n in (1, 2, 3, 4):
            assert validate(lab, n).valid

    def test_attack_must_be_positive(self):
        g, lab = fig1_star_labeled()
        with pytest.raises(ValueError):
            validate(lab, 0)
        with pytest.raises(ValueError):
            validate_by_enumeration(lab, 0)

    def test_default_attack_is_two(self):
        # P3 labeled 0-2-0 survives any one attack but not both 0s at once
        lab = Labeling(generate(FamilySpec("path", (3,))), (0, 2, 0))
        assert validate(lab, 1).valid
        assert validate(lab) == validate(lab, 2)
        assert validate(lab).witness == (0, 2)

    def test_witness_is_rechckable_violation(self):
        g = generate(FamilySpec("star", (4,)))
        lab = Labeling(g, (2, 0, 0, 0, 0))
        report = validate(lab, 2)
        assert not report.valid
        u, v = report.witness
        shared = {w for w in g.neighbors(u) + g.neighbors(v) if lab.labels[w] == 2}
        assert len(shared) < 2

    def test_pair_witness_is_lex_first_not_first_found(self):
        # 0s 1 and 4 share the 2 at vertex 0, 0s 2 and 3 the 2 at vertex 5;
        # the scan meets the pair (2, 3) first, but (1, 4) comes first
        g = build_graph(6, [(0, 1), (0, 4), (5, 2), (5, 3)])
        lab = Labeling(g, (2, 0, 0, 0, 0, 2))
        assert validate(lab, 2).witness == (1, 4)
        assert validate_by_enumeration(lab, 2).witness == (1, 4)

    def test_shared_unique_two_invalid(self):
        # two private neighbors hanging off the same 2 break the pair rule
        g = build_graph(3, [(0, 1), (0, 2)])
        assert not validate(Labeling(g, (2, 0, 0)), 2).valid


FAST_PATH_GRAPHS = [
    build_graph(3, [(0, 1), (0, 2)]),
    generate(FamilySpec("path", (5,))),
    generate(FamilySpec("cycle", (6,))),
    generate(FamilySpec("complete", (4,))),
    generate(FamilySpec("star", (4,))),
    generate(FamilySpec("complete_bipartite", (2, 4))),
    build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
                    (0, 3), (1, 4)]),
]


@pytest.mark.parametrize("graph", FAST_PATH_GRAPHS, ids=lambda g: f"n{g.order}e{g.edge_count()}")
def test_fast_path_matches_enumeration_exhaustively(graph):
    for labels in product((0, 1, 2), repeat=graph.order):
        lab = Labeling(graph, labels)
        fast = validate(lab, 2)
        slow = validate_by_enumeration(lab, 2)
        assert fast.valid == slow.valid, labels
        assert fast.witness == slow.witness, labels


@st.composite
def graph_and_labeling(draw, max_order=8):
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [p for p, keep in zip(pairs, picks) if keep])
    labels = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return Labeling(g, labels)


@given(graph_and_labeling())
@settings(max_examples=150, deadline=None)
def test_fast_path_matches_enumeration_random(lab):
    assert validate(lab, 2) == validate_by_enumeration(lab, 2)


@given(graph_and_labeling(max_order=9), st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_tuple_validator_matches_enumeration_at_any_attack(lab, attack):
    report = validate(lab, attack)
    assert report == validate_by_enumeration(lab, attack)
    nbrs = [lab.graph.neighbors(v) for v in range(lab.graph.order)]
    assert first_violation(nbrs, lab.labels, attack) == report.witness
    assert (first_violation(nbrs, list(lab.labels), attack) is None) == report.valid


@st.composite
def wide_labeling(draw):
    """A labeling of order 65 to 130 whose 2s come in pairs 64 ids apart, so
    the enumeration reference's masks span more than one 64-bit word and
    each 2 shares its id modulo 64 with another.  At most nine 0s keep the
    subset count small; each 0 sees one to three 2s and may see other 0s,
    and the rest of the graph is labeled 1."""
    n = draw(st.integers(min_value=65, max_value=130))
    low = draw(st.lists(st.integers(min_value=0, max_value=n - 65), min_size=1,
                        max_size=5, unique=True))
    twos = low + [v + 64 for v in low]
    zeros = draw(st.lists(st.integers(min_value=0, max_value=n - 1).filter(
        lambda v: v not in twos), min_size=1, max_size=9, unique=True))
    labels = [1] * n
    for v in twos:
        labels[v] = 2
    for v in zeros:
        labels[v] = 0
    edges = []
    for z in zeros:
        near = draw(st.lists(st.sampled_from(twos), min_size=1, max_size=3, unique=True))
        near += draw(st.lists(st.sampled_from(zeros), max_size=2, unique=True))
        edges += [(z, u) for u in near if u != z]
    return Labeling(build_graph(n, edges), tuple(labels))


@given(wide_labeling(), st.integers(min_value=3, max_value=4))
@settings(max_examples=100, deadline=None)
def test_tuple_validator_matches_enumeration_past_one_word(lab, attack):
    assert validate(lab, attack).witness == validate_by_enumeration(lab, attack).witness


def test_readers_agree_on_a_pattern_torus():
    pattern = find_pattern("square")
    patch = generate_patch(PatchSpec("square", 14, 14, "torus"))
    parsed = parse_graph_file(write_graph_file(patch.graph,
                                               pattern_labeling(pattern, patch)))
    g, lab = parsed.graph, parsed.labeling
    assert [validate(lab, attack).valid for attack in (1, 2, 3)] == [True, True, False]
    doc = structured_document(g, lab)
    assert doc["epn_count"] == len(epn_set(lab))
    assert doc["public_count"] == len(public_set(lab))
    assert doc["partition_sizes"] == dict(zip(("v0", "v1", "v2"), map(len, partition(lab))))
    assert verify_pattern(pattern, [(14, 14)])[0].valid


@given(graph_and_labeling(max_order=12), st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_downward_closure(lab, attack):
    if validate(lab, attack).valid:
        for m in range(1, attack + 1):
            assert validate(lab, m).valid


# -- Hall filter for sizes j >= 3 ------------------------------------------------


def _seeded_labelings():
    """The digest corpus's labelings: four seeded label vectors per graph."""
    rng = random.Random(7008)
    for g in random_graphs(60, seed=7007, orders=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
                           probabilities=(0.25, 0.4, 0.6, 0.85)):
        for _ in range(4):
            yield Labeling(g, tuple(rng.choice((0, 1, 2)) for _ in range(g.order)))


@pytest.mark.parametrize("attack", [3, 4])
def test_hall_filter_matches_enumeration_on_seeded_labelings(attack):
    for lab in _seeded_labelings():
        assert validate(lab, attack) == validate_by_enumeration(lab, attack)


def _record_candidates(monkeypatch):
    """Record the 0s handed to the subset enumeration at each size."""
    seen = {}
    inner = labeling_module._first_violation_of_size

    def spy(masks, zeros, j):
        seen[j] = list(zeros)
        return inner(masks, zeros, j)

    monkeypatch.setattr(labeling_module, "_first_violation_of_size", spy)
    return seen


def test_hall_filter_leaves_no_candidates_on_hubs(monkeypatch):
    # every 0 sees three 2-labeled hubs, so no set of three 0s can see fewer
    rng = random.Random(3)
    hubs, zeros = 5, 30
    edges = [(h, hubs + i) for i in range(zeros) for h in rng.sample(range(hubs), 3)]
    g = build_graph(hubs + zeros, edges)
    lab = Labeling(g, (2,) * hubs + (0,) * zeros)
    seen = _record_candidates(monkeypatch)
    assert validate(lab, 3).valid
    assert seen == {3: []}
    assert validate_by_enumeration(lab, 3).valid


def test_hall_filter_keeps_the_first_violator(monkeypatch):
    # 0s 0 and 1 see the three 2s at 5, 6, 7 and are filtered out at size 3;
    # 0s 2, 3, 4 see only the 2s at 8 and 9, so (2, 3, 4) is the first
    # violating triple, although subset enumeration meets (0, 1, 2) first
    edges = [(z, t) for z in (0, 1) for t in (5, 6, 7)]
    edges += [(z, t) for z in (2, 3, 4) for t in (8, 9)]
    g = build_graph(10, edges)
    lab = Labeling(g, (0, 0, 0, 0, 0, 2, 2, 2, 2, 2))
    assert validate(lab, 2).valid
    seen = _record_candidates(monkeypatch)
    report = validate(lab, 3)
    assert seen == {3: [2, 3, 4]}
    assert report.witness == (2, 3, 4)
    assert validate(lab, 4).witness == (2, 3, 4)
    assert validate_by_enumeration(lab, 3) == report

from fractions import Fraction

import pytest

from helpers import sampled_connected_graphs
from tworoman import (BadSpecError, FamilySpec, build_graph,
                      density, density_lower_bound, enumerate_minimum_labelings,
                      gamma_bruteforce, gamma_formula, gamma_via_eccd, generate,
                      max_degree, max_eccd)


class TestGenerate:
    def test_path(self):
        g = generate(FamilySpec("path", (5,)))
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_cycle(self):
        g = generate(FamilySpec("cycle", (5,)))
        assert g.edge_count() == 5
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_star_hub_first(self):
        g = generate(FamilySpec("star", (4,)))
        assert g.degree(0) == 4

    def test_complete_bipartite_shape(self):
        g = generate(FamilySpec("complete_bipartite", (2, 6)))
        assert g.order == 8 and g.edge_count() == 12
        assert g.degree(0) == g.degree(1) == 6

    def test_grid(self):
        g = generate(FamilySpec("grid", (5, 5)))
        assert g.order == 25 and g.edge_count() == 40

    @pytest.mark.parametrize("kind,params", [
        ("triangle", (3,)),
        ("path", ()),
        ("path", (0,)),
        ("cycle", (2,)),
        ("grid", (3,)),
        ("complete_bipartite", (2, 0)),
        # Counts are ints: a bool or a float is no count.
        ("path", (True,)),
        ("cycle", (5.0,)),
        ("grid", (3, 2.5)),
    ])
    def test_bad_specs(self, kind, params):
        with pytest.raises(BadSpecError):
            FamilySpec(kind, params)


class TestGammaFormula:
    @pytest.mark.parametrize("spec,expected", [
        (("complete", (6,)), 4),
        (("complete", (3,)), 3),
        (("star", (4,)), 5),
        (("path", (17,)), 14),
        (("cycle", (4,)), 4),
        (("complete_bipartite", (2, 6)), 4),
        (("complete_bipartite", (1, 7)), 8),
        (("complete_bipartite", (2, 1)), 3),
        (("complete_bipartite", (3, 4)), None),
        (("grid", (5, 5)), None),
    ])
    def test_values(self, spec, expected):
        assert gamma_formula(FamilySpec(*spec)) == expected

    def test_matches_both_solvers_on_small_families(self):
        specs = ([("complete", (n,)) for n in range(1, 9)]
                 + [("star", (n,)) for n in range(1, 9)]
                 + [("path", (n,)) for n in range(1, 13)]
                 + [("cycle", (n,)) for n in range(3, 13)]
                 + [("complete_bipartite", (2, n)) for n in range(1, 9)])
        for kind, params in specs:
            spec = FamilySpec(kind, params)
            expected = gamma_formula(spec)
            g = generate(spec)
            assert gamma_bruteforce(g).gamma == expected
            assert gamma_via_eccd(g).gamma == expected


class TestDensity:
    def test_path5(self):
        assert density(generate(FamilySpec("path", (5,)))) == Fraction(4, 5)

    def test_k3(self):
        assert density(generate(FamilySpec("complete", (3,)))) == 1

    def test_k26(self):
        assert density(generate(FamilySpec("complete_bipartite", (2, 6)))) == Fraction(1, 2)

    def test_grid_4x7(self):
        assert density(generate(FamilySpec("grid", (4, 7)))) == Fraction(19, 28)

    def test_empty_rejected(self):
        with pytest.raises(BadSpecError):
            density(build_graph(0, []))


class TestDensityLowerBound:
    @pytest.mark.parametrize("delta,expected", [
        (2, Fraction(4, 5)),
        (3, Fraction(2, 3)),
        (4, Fraction(4, 7)),
        (6, Fraction(4, 9)),
        (0, Fraction(1)),
    ])
    def test_values(self, delta, expected):
        assert density_lower_bound(delta) == expected

    def test_negative_rejected(self):
        for bad in (-1, 2.5, True):  # a degree is an int, not a float or a bool
            with pytest.raises(BadSpecError, match="max_degree must be >= 0"):
                density_lower_bound(bad)

    def test_bound_holds_on_connected_samples(self):
        for g in sampled_connected_graphs(7, 40, seed=19):
            if max_degree(g) == 0:
                continue
            assert density(g) >= density_lower_bound(max_degree(g))


class TestOptimalNumber:
    def test_paths_and_cycles_pack_in_fives(self):
        for n in range(3, 13):
            assert len(max_eccd(generate(FamilySpec("path", (n,))))) == n // 5
            assert len(max_eccd(generate(FamilySpec("cycle", (n,))))) == n // 5


def test_strict_bound_when_ones_present():
    # optimal graph with a 1-carrying minimum labeling sits strictly above
    # the degree bound
    for g in sampled_connected_graphs(6, 20, seed=55):
        gamma = gamma_bruteforce(g).gamma
        if gamma >= g.order:
            continue
        if any(1 in m.labels for m in enumerate_minimum_labelings(g)):
            assert density(g) > density_lower_bound(max_degree(g))

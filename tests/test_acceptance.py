"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The shared corpus
(roughly 27k connected labeled graphs up to order 6, sampled order 7, and a
seeded random batch up to order 12) is built once per session.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

import pytest

from helpers import random_graphs, sierpinski_graph
from tworoman import (FamilySpec, Labeling, density_lower_bound,
                      enumerate_minimum_labelings, find_02020_path, find_pattern,
                      gamma_bruteforce, gamma_via_eccd, generate, max_degree,
                      max_eccd, parse_graph_file, solve_finite_resources,
                      two_extremal_minimum, validate, verify_pattern,
                      write_graph_file)
from tworoman.cli import cli_main


@contextmanager
def criterion(number, description):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL | {description} | {info}")
        raise
    print(f"[acceptance] criterion {number}: PASS | {description} | {info}")


def _family_cases():
    cases = []
    for n in range(1, 9):
        cases.append((FamilySpec("complete", (n,)), min(n, 4)))
    for n in range(1, 9):
        cases.append((FamilySpec("star", (n,)), n + 1))
    for n in range(3, 13):
        cases.append((FamilySpec("path", (n,)), n - n // 5))
        cases.append((FamilySpec("cycle", (n,)), n - n // 5))
    for n in range(2, 9):
        cases.append((FamilySpec("complete_bipartite", (2, n)), 4))
    return cases


@pytest.fixture(scope="session")
def family_results():
    start = time.perf_counter()
    results = []
    for spec, expected in _family_cases():
        graph = generate(spec)
        results.append((spec, graph, gamma_bruteforce(graph).gamma, expected))
    return {"results": results, "elapsed": time.perf_counter() - start}


def test_criterion_1_family_formulas(family_results):
    with criterion(1, "closed family formulas match the bruteforce oracle") as info:
        for spec, _, got, expected in family_results["results"]:
            assert got == expected, (spec, got, expected)
        info["cases"] = len(family_results["results"])
        info["elapsed"] = f"{family_results['elapsed']:.1f}s"
        assert family_results["elapsed"] < 60


def test_criterion_2_oracle_equivalence(corpus_results):
    with criterion(2, "packing route equals bruteforce on the whole corpus") as info:
        for graph, gamma, eccd_size in chain(corpus_results["small"],
                                             corpus_results["random"]):
            assert graph.order - eccd_size == gamma, (graph, gamma, eccd_size)
        info["graphs"] = len(corpus_results["small"]) + len(corpus_results["random"])
        info["elapsed"] = f"{corpus_results['elapsed']:.1f}s"
        assert corpus_results["elapsed"] < 600


def test_criterion_3_optimality_theorem(corpus_results):
    with criterion(3, "optimal iff gamma < order iff every minimum labeling "
                      "holds a 0-2-0-2-0 path") as info:
        checked = 0
        for (graph, gamma, eccd_size), minima in zip(corpus_results["small"],
                                                     corpus_results["minima"]):
            optimal = eccd_size >= 1
            assert optimal == (gamma < graph.order)
            assert minima, "every graph has a minimum labeling"
            all_contain = all(find_02020_path(m) is not None for m in minima)
            assert optimal == all_contain, (graph, gamma)
            checked += 1
        info["graphs"] = checked


def test_criterion_4_degree_bound(family_results, corpus_results):
    with criterion(4, "gamma * (maxdeg + 3) >= 4 * order whenever an edge exists") as info:
        solved = [(g, gamma) for _, g, gamma, _ in family_results["results"]]
        solved += [(g, gamma) for g, gamma, _ in corpus_results["small"]]
        solved += [(g, gamma) for g, gamma, _ in corpus_results["random"]]
        edgeless = 0
        for graph, gamma in solved:
            if graph.order == 0:
                continue
            delta = max_degree(graph)
            if delta >= 1:
                assert gamma * (delta + 3) >= 4 * graph.order, (graph, gamma)
            else:
                # degenerate case the bound cannot cover: with no edges no
                # vertex may be labeled 0, so gamma = order < 4*order/3
                edgeless += 1
                assert gamma == graph.order
        info["graphs"] = len(solved)
        info["edgeless_excluded"] = edgeless


def test_criterion_5_paper_fixtures(fixtures_dir):
    with criterion(5, "fixed example graphs behave exactly as documented") as info:
        fig1 = parse_graph_file((fixtures_dir / "fig1_star.txt").read_text())
        assert validate(fig1.labeling, 1).valid
        assert not validate(fig1.labeling, 2).valid

        fig2 = parse_graph_file((fixtures_dir / "fig2_k6.txt").read_text())
        assert fig2.labeling.weight == 4
        assert validate(fig2.labeling, 2).valid

        fig7 = parse_graph_file((fixtures_dir / "fig7_eccd.txt").read_text())
        assert len(max_eccd(fig7.graph)) == 2
        assert gamma_bruteforce(fig7.graph).gamma == 8

        k66 = parse_graph_file((fixtures_dir / "k66.txt").read_text())
        assert gamma_bruteforce(k66.graph).gamma == 8
        assert gamma_via_eccd(k66.graph).gamma == 8
        ext = two_extremal_minimum(k66.graph, "minimize_twos", enumerate_all=True)
        assert ext.feasible_two_counts == (2, 4)

        heavy = parse_graph_file((fixtures_dir / "fig9_allepn.txt").read_text())
        assert heavy.labeling.weight == 6
        assert validate(heavy.labeling, 2).valid
        assert gamma_bruteforce(heavy.graph).gamma == 4
        info["fixtures"] = 5


def test_criterion_6_finite_resources():
    with criterion(6, "capped 2-labels: K6 gives 6/6/4 and caps are monotone") as info:
        k6 = generate(FamilySpec("complete", (6,)))
        assert [solve_finite_resources(k6, k).gamma for k in (0, 1, 2)] == [6, 6, 4]
        batch = random_graphs(50, seed=606, orders=(3, 4, 5, 6, 7, 8, 9, 10))
        for graph in batch:
            unconstrained = gamma_bruteforce(graph).gamma
            previous = None
            for cap in range(graph.order + 1):
                value = solve_finite_resources(graph, cap).gamma
                if previous is not None:
                    assert value <= previous, (graph, cap)
                previous = value
            assert solve_finite_resources(graph, graph.order).gamma == unconstrained
        info["graphs"] = len(batch)


def test_criterion_7_p4_extremal_labelings():
    with criterion(7, "P4 minimum labelings use zero, one, or two 2-labels") as info:
        p4 = generate(FamilySpec("path", (4,)))
        minima = enumerate_minimum_labelings(p4)
        assert all(m.weight == 4 for m in minima)
        counts = {sum(1 for x in m.labels if x == 2) for m in minima}
        assert counts == {0, 1, 2}
        low = two_extremal_minimum(p4, "minimize_twos")
        high = two_extremal_minimum(p4, "maximize_twos")
        assert sum(1 for x in low.labeling.labels if x == 2) == 0
        assert sum(1 for x in high.labeling.labels if x == 2) == 2
        info["minima"] = len(minima)


def test_criterion_8_tiling_patterns():
    with criterion(8, "plane-tiling patterns hit 4/7, 2/3, 4/9 on one and two "
                      "periods") as info:
        start = time.perf_counter()
        expected = {"square": (Fraction(4, 7), (7, 7)),
                    "hexagonal": (Fraction(2, 3), (6, 6)),
                    "triangular": (Fraction(4, 9), (9, 9))}
        degrees = {"square": 4, "hexagonal": 3, "triangular": 6}
        for kind, (target, (w, h)) in expected.items():
            assert target == density_lower_bound(degrees[kind])
            pattern = find_pattern(kind)
            for report in verify_pattern(pattern, [(w, h), (2 * w, 2 * h)]):
                assert report.valid, (kind, report)
                assert report.density == target, (kind, report)
        elapsed = time.perf_counter() - start
        info["elapsed"] = f"{elapsed:.1f}s"
        assert elapsed < 60


def test_criterion_9_path_ball_convergence():
    with criterion(9, "path ball densities follow the floor formula and "
                      "squeeze to 4/5") as info:
        from tworoman import ball_density_sequence
        for radius, got in ball_density_sequence("path", [2, 7, 12, 22]):
            n = 2 * radius + 1
            assert got == Fraction(n - n // 5, n)
            assert abs(got - Fraction(4, 5)) <= Fraction(1, n)
        # the closed form is honest: agree with the bruteforce oracle where
        # it is cheap to run
        for radius in (2, 7):
            n = 2 * radius + 1
            path = generate(FamilySpec("path", (n,)))
            assert gamma_bruteforce(path).gamma == n - n // 5
        info["radii"] = [2, 7, 12, 22]


def test_criterion_10_roundtrip_and_exit_codes(fixtures_dir, tmp_path, capsys):
    with criterion(10, "format round-trips byte-exact; exit codes 0/1/2 hold") as info:
        names = sorted(p.name for p in fixtures_dir.glob("*.txt"))
        assert names
        for name in names:
            text = (fixtures_dir / name).read_text()
            parsed = parse_graph_file(text)
            assert write_graph_file(parsed.graph, parsed.labeling) == text, name
            again = parse_graph_file(write_graph_file(parsed.graph, parsed.labeling))
            assert again.graph == parsed.graph
            if parsed.labeling is not None:
                assert again.labeling.labels == parsed.labeling.labels

        assert cli_main(["validate", str(fixtures_dir / "fig2_k6.txt")]) == 0
        assert cli_main(["validate", str(fixtures_dir / "fig1_star.txt")]) == 1
        bad = tmp_path / "bad.txt"
        bad.write_text("0;7;1\n")
        assert cli_main(["validate", str(bad)]) == 2
        assert cli_main(["nonsense"]) == 2
        capsys.readouterr()
        info["fixtures"] = len(names)


def test_optional_sierpinski_unique_two_count():
    """Third-iteration triangle fixture: 2-minimized and 2-maximized minimum
    labelings use the same number of 2-labels."""
    graph = sierpinski_graph(3)
    low = two_extremal_minimum(graph, "minimize_twos")
    high = two_extremal_minimum(graph, "maximize_twos")
    assert low.gamma == high.gamma
    low_twos = sum(1 for x in low.labeling.labels if x == 2)
    high_twos = sum(1 for x in high.labeling.labels if x == 2)
    assert low_twos == high_twos

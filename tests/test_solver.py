import gc
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings

from helpers import (_tuples_compatible, allepn_labelings, eccd_set_score,
                     eccd_showcase_graph, eccd_sweep_reference, graphs,
                     max_eccd_reference, naive_gamma, naive_minimum_labelings,
                     naive_valid_labelings, random_graphs, frontier_reference,
                     sampled_connected_graphs, sierpinski_graph)
from tworoman import (BadLimitError, EccdSet, FamilySpec, InvalidEccdError, Labeling,
                      NotMinimumError, SolveOptions, TooLargeError,
                      assign_private_neighbors, build_graph, check_eccd,
                      eccd_to_labeling, enumerate_minimum_labelings,
                      find_02020_path, gamma_bruteforce, gamma_via_eccd,
                      generate, is_optimal, max_eccd, p5_candidates,
                      solve, solve_finite_resources, strip_ones,
                      two_extremal_minimum, validate)
from tworoman import limits, packing, search, solver as solver_module, tilings
from tworoman.graph import iter_bits, mask_of, neighbor_masks
from tworoman.packing import (_assemble_eccd, _eccd_gain_table, _max_eccd_engine,
                              _min_cost_leaf_assignment)
from tworoman.search import (_Discharge, _frontier, _positions, _seal_conflict, _seal_scan,
                             _seal_tables, _search, _search_order)
from tworoman.solver import _packing_pays


def fam(kind, *params):
    return generate(FamilySpec(kind, tuple(params)))


class TestGammaBruteforce:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 3), (4, 4), (6, 4)])
    def test_complete(self, n, expected):
        assert gamma_bruteforce(fam("complete", n)).gamma == expected

    def test_star(self):
        assert gamma_bruteforce(fam("star", 4)).gamma == 5

    def test_c17(self):
        assert gamma_bruteforce(fam("cycle", 17)).gamma == 14

    def test_empty(self):
        result = gamma_bruteforce(build_graph(0, []))
        assert result.gamma == 0
        assert result.labeling.labels == ()
        assert result.optimal_number == 0

    def test_witness_is_lex_minimum(self):
        g = fam("cycle", 6)
        result = gamma_bruteforce(g)
        minima = enumerate_minimum_labelings(g)
        assert result.labeling.labels == min(m.labels for m in minima)
        assert validate(result.labeling, 2).valid
        assert result.labeling.weight == result.gamma

    def test_stats(self):
        result = gamma_bruteforce(fam("path", 6))
        assert result.stats.nodes > 0
        assert result.stats.elapsed >= 0
        assert result.stats.method == "bruteforce"

    def test_attack_one_is_roman_domination(self):
        opts = SolveOptions(attack_n=1)
        assert gamma_bruteforce(fam("star", 5), opts).gamma == 2
        assert gamma_bruteforce(fam("path", 4), opts).gamma == 3

    def test_matches_naive_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(1, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = build_graph(n, edges)
            for attack in (1, 2, 3):
                got = gamma_bruteforce(g, SolveOptions(attack_n=attack)).gamma
                assert got == naive_gamma(g, attack), (n, edges, attack)

    def test_max_twos_matches_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(1, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = build_graph(n, edges)
            for k in range(0, n + 1):
                got = solve_finite_resources(g, k).gamma
                assert got == naive_gamma(g, 2, max_twos=k), (n, edges, k)

    def test_deterministic(self):
        g = fam("cycle", 9)
        a = gamma_bruteforce(g)
        b = gamma_bruteforce(g)
        assert a.gamma == b.gamma and a.labeling == b.labeling


def _random_graph(rng, n, p):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


class TestDischargeBound:
    """The residual bound never exceeds what a minimum labeling still needs."""

    @staticmethod
    def _prefix_orders(nbrs):
        return _seal_scan(nbrs)[0], _search_order(nbrs)[0], list(range(len(nbrs)))

    @staticmethod
    def _walk(bound, labels, order):
        """Walk the prefixes of ``labels`` along ``order`` as ``_search`` does:
        one ``step``, the seal checks of that position, then the claims they
        make.  Fails when a seal check cuts a prefix; yields (state, state
        from scratch, weight of the prefix) after each vertex."""
        nbrs, adj, attack = bound.nbrs, bound.adj, bound.attack_n
        n = len(nbrs)
        pos, last, close, sealed, later = _seal_tables(nbrs, order)
        bound.claimed = bytearray(n)
        und = (1 << n) - 1
        twos = zeros = wgt = 0
        state = bound.root
        for i, v in enumerate(order):
            state = bound.step(state, v, i, last, close, later[i], twos, labels)[labels[v]]
            und &= ~(1 << v)
            wgt += labels[v]
            if labels[v] == 2:
                twos |= 1 << v
            elif labels[v] == 0:
                zeros |= 1 << v
            claims = _seal_conflict(adj, nbrs, labels, twos, sealed[i], close, i, attack)
            assert claims is not None, (i, v)
            if claims:
                state = bound.claim(state, claims, i, pos, last, close, twos, labels)
            yield state, bound.state(und, twos, zeros), wgt

    def test_admissible_on_prefixes_of_minimum_labelings(self):
        # After every decided vertex, claims applied, the incremental state
        # equals the one from scratch, and its bound never exceeds what the
        # minimum labeling still spends.  The seal checks cut no prefix of a
        # minimum labeling, so every child walked here is one _search keeps.
        rng = random.Random(2023)
        for _ in range(80):
            n = rng.randint(1, 7)
            g = _random_graph(rng, n, rng.choice((0.0, 0.2, 0.4, 0.7)))
            nbrs = g.neighbor_tuples()
            for attack in (1, 2, 3):
                minima = naive_minimum_labelings(g, attack)
                gamma = sum(minima[0])
                bound = _Discharge(nbrs, attack)
                assert bound.root == bound.state((1 << n) - 1)
                assert bound.root[2] <= gamma
                for labels in minima:
                    for order in self._prefix_orders(nbrs):
                        for state, scratch, wgt in self._walk(bound, labels, order):
                            case = (n, list(g.edges()), attack, labels, order)
                            assert state == scratch, case
                            assert state[2] <= gamma - wgt, case

    def test_forced_vertex_labeled_one_puts_a_half_owed_zero_back(self):
        # Order 1, 0, 6, 3, 2, 5, 4 of a minimum labeling: sealing 0-labeled
        # 1 claims the 2 on 0; 3 then gets 0 as its one 2, but its neighbor
        # 2 is forced, so 3 owes nothing until 2 is labeled 1 at position 4,
        # which puts 3 into H: it still needs a second 2, from 5.
        g = build_graph(7, [(0, 1), (0, 3), (0, 6), (2, 3), (3, 5), (4, 5)])
        bound = _Discharge(g.neighbor_tuples(), 2)
        walk = list(self._walk(bound, (2, 0, 1, 0, 0, 2, 1), [1, 0, 6, 3, 2, 5, 4]))
        assert all(state == scratch for state, scratch, _ in walk)
        assert [state[3] >> 3 & 1 for state, _, _ in walk] == [0, 0, 0, 0, 1, 0, 0]
        assert bound.claimed[0]

    @pytest.mark.parametrize("attack", [1, 2, 3, 4])
    def test_seal_cuts_keep_every_minimum_labeling(self, attack):
        # The exchange cuts never fire on a prefix of a minimum labeling,
        # under any 2-cap: each maps a completion to a lighter valid one
        # with no more 2s.
        rng = random.Random(700 + attack)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = _random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
            nbrs = g.neighbor_tuples()
            valid = naive_valid_labelings(g, attack)
            bound = _Discharge(nbrs, attack)
            orders = self._prefix_orders(nbrs)
            for cap in (None, 0, 1, 2):
                allowed = [labs for labs in valid if cap is None or labs.count(2) <= cap]
                gamma = min(sum(labs) for labs in allowed)
                for labels in allowed:
                    if sum(labels) == gamma:
                        for order in orders:
                            for state, _, wgt in self._walk(bound, labels, order):
                                assert state[2] <= gamma - wgt, (
                                    n, list(g.edges()), cap, labels, order)

    @pytest.mark.parametrize("attack", [1, 2, 3])
    def test_exchange_cut_examples(self, attack):
        # P5 labeled 0-2-1-2-0: at attacks 1 and 2 the middle 1 sees enough
        # 2s to stay valid as a 0 (weight 4); at attack 3 it must stay a 1.
        g = fam("path", 5)
        nbrs = g.neighbor_tuples()
        adj = neighbor_masks(nbrs)
        _, _, close, sealed, _ = _seal_tables(nbrs, range(5))
        labels = [0, 2, 1, 2, 0]
        i = close[2]
        cut = _seal_conflict(adj, nbrs, labels, 0b01010, sealed[i], close, i, attack) is None
        assert cut == (attack <= 2)
        labels[2] = 0  # the lighter labeling: a 0 with two 2s claims neither
        assert _seal_conflict(adj, nbrs, labels, 0b01010, sealed[i], close, i, attack) == ()
        # An isolated 2 has no 0-neighbor to defend, so it is valid as a 1.
        one = build_graph(1, []).neighbor_tuples()
        assert _seal_conflict([0], one, [2], 1, [0], [0], 0, attack) is None
        assert _seal_conflict([0], one, [1], 0, [0], [0], 0, attack) == ()

    def test_isolated_vertices_cost_one_each(self):
        g = build_graph(4, [(0, 1)])
        nbrs = g.neighbor_tuples()
        for attack in (1, 2):
            assert _Discharge(nbrs, attack).state(0b1111)[2] == 4
            assert _Discharge(nbrs, attack).state(0b1100, 0b0001)[2] == 2
            assert gamma_bruteforce(g, SolveOptions(attack_n=attack)).gamma == 4

    @pytest.mark.parametrize("attack", [1, 2, 3])
    def test_matches_naive_oracle_with_caps(self, attack):
        rng = random.Random(300 + attack)
        orders = list(range(9)) + [7, 8, 8, 8] + [rng.randint(1, 8) for _ in range(12)]
        for n in orders:
            g = _random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
            valid = naive_valid_labelings(g, attack)
            for cap in (None, 0, 1, 2):
                allowed = [labs for labs in valid
                           if cap is None or labs.count(2) <= cap]
                gamma = min(sum(labs) for labs in allowed)
                minima = [labs for labs in allowed if sum(labs) == gamma]
                result = gamma_bruteforce(g, SolveOptions(
                    attack_n=attack, max_twos=cap, enumerate_all=True))
                case = (n, list(g.edges()), attack, cap)
                assert result.gamma == gamma, case
                assert result.labeling.labels == minima[0], case
                assert [m.labels for m in result.all_minimum] == minima, case

    def test_c24_pin(self):
        assert gamma_bruteforce(fam("cycle", 24)).gamma == 20

    @pytest.mark.parametrize("n,edges,opts,want", [
        (6, [(0, 4), (1, 4), (1, 5), (2, 5)], SolveOptions(attack_n=2), 5),
        (5, [(1, 2), (1, 4), (2, 4)], SolveOptions(attack_n=1, enumerate_all=True), 3),
    ], ids=["witness-attack2", "enumerate-attack1"])
    def test_zero_next_to_forced_vertex_owes_nothing(self, n, edges, opts, want):
        # A decided 0 next to a forced vertex may get that vertex as its 2,
        # so it owes the undecided part nothing: counting it cuts the only
        # minimum labeling of the first graph (gamma 5) from the witness pass,
        # and the lex-first of the three on the second from the enumeration.
        g = build_graph(n, edges)
        minima = naive_minimum_labelings(g, opts.attack_n)
        result = gamma_bruteforce(g, opts)
        assert result.gamma == sum(minima[0])
        assert result.labeling.labels == minima[0]
        if opts.enumerate_all:
            assert [m.labels for m in result.all_minimum] == minima
            assert len(minima) == want
        else:
            assert result.gamma == want

    def test_c18_node_pin(self):
        # 24 nodes; 38 before the claims and the exchange cuts at the seal.
        result = gamma_bruteforce(fam("cycle", 18))
        assert result.gamma == 15
        assert result.stats.nodes <= 40

    def test_c20_attack3_node_pin(self):
        # 18,335 nodes; 29,227 without the claims and the exchange cuts at
        # the seal, and 58,585 also without the owed charge of the decided 0s
        # with no 2-neighbor.
        result = gamma_bruteforce(fam("cycle", 20), SolveOptions(attack_n=3))
        assert result.gamma == 18
        assert result.stats.nodes <= 25_000


class TestSearchCore:
    def test_leaf_can_stop_the_search(self):
        g = fam("cycle", 10)
        bound = _Discharge(g.neighbor_tuples(), 2)
        gamma = gamma_bruteforce(g).gamma
        leaves = []

        def keep(labels, wgt, twos):
            leaves.append(tuple(labels))
            return gamma, 0, 10

        every = _search(bound, range(10), (0, 1, 2), gamma, 0, 10, keep)
        minima = [m.labels for m in enumerate_minimum_labelings(g)]
        assert leaves == minima and len(leaves) > 1
        leaves.clear()
        first = _search(bound, range(10), (0, 1, 2), gamma, 0, 10,
                        lambda labels, wgt, twos: leaves.append(tuple(labels)))
        assert leaves == minima[:1] and first < every
        # Each pass clears the claim flags it sets, also when a leaf stops it.
        assert not any(bound.claimed)

    @pytest.mark.parametrize("opts", [
        SolveOptions(),
        SolveOptions(max_twos=1),
        SolveOptions(two_mode="minimize_twos"),
        SolveOptions(two_mode="maximize_twos"),
        SolveOptions(enumerate_all=True),
        SolveOptions(enumerate_all=True, two_mode="maximize_twos"),
    ], ids=["plain", "capped", "minimize_twos", "maximize_twos", "enumerate_all",
            "enumerate_all-maximize_twos"])
    def test_passes_follow_the_readme_table(self, monkeypatch, opts):
        # One _search call per row of the README pass table, in its order:
        # optimum, the extremal count under a two mode, then the witness or
        # the enumeration; each as (vertex order, labels, weight limit, window).
        g = fam("grid", 3, 4)
        n = g.order
        plain = gamma_bruteforce(g, opts)
        order = list(range(n))
        random.Random(15).shuffle(order)  # a search order unlike the id order
        calls = []
        real = solver_module._search

        def spy(bound, vertices, labs, wmax, tlo, thi, leaf):
            calls.append((list(vertices), labs, wmax, tlo, thi))
            return real(bound, vertices, labs, wmax, tlo, thi, leaf)

        monkeypatch.setattr(solver_module, "_search_order", lambda nbrs: (order, 0, 0))
        monkeypatch.setattr(solver_module, "_search", spy)
        result = gamma_bruteforce(g, opts)
        assert ((result.gamma, result.labeling, result.all_minimum)
                == (plain.gamma, plain.labeling, plain.all_minimum))
        gamma, ids = result.gamma, list(range(n))
        cap = n if opts.max_twos is None else opts.max_twos
        want = [(order, (0, 2, 1), n - 1, 0, cap)]
        window = (0, cap)
        if opts.two_mode != "any":
            labs = (2, 0, 1) if opts.two_mode == "maximize_twos" else (0, 1, 2)
            want.append((order, labs, gamma, 0, n))
            window = (result.labeling.labels.count(2),) * 2
        # the enumeration lists every minimum labeling under the 2-cap alone
        want.append((ids, (0, 1, 2), gamma, *((0, cap) if opts.enumerate_all else window)))
        assert calls == want

    def test_one_context_per_solve(self, monkeypatch):
        # Every pass reads the graph off one _Discharge: one set of masks and
        # one from-scratch root state per solve, whatever the passes.
        g = fam("grid", 3, 4)
        masks, states = [], []
        real_masks, real_state = search.neighbor_masks, _Discharge.state
        monkeypatch.setattr(search, "neighbor_masks",
                            lambda nbrs: masks.append(nbrs) or real_masks(nbrs))
        monkeypatch.setattr(_Discharge, "state",
                            lambda self, *args: states.append(args) or real_state(self, *args))
        opts = SolveOptions(two_mode="maximize_twos", enumerate_all=True)
        result = gamma_bruteforce(g, opts)
        assert len(masks) == 1 and states == [((1 << g.order) - 1,)]
        assert len(result.all_minimum) > 1

    def test_sealed_checks_leave_no_invalid_leaf(self, monkeypatch):
        # At attacks 1 and 2 _seal_conflict checks every vertex where it is
        # sealed, so the leaf check never rejects a labeling; at attack 3
        # only the leaf check sees a deficient set of three 0s.
        leaves = {1: [0, 0], 2: [0, 0], 3: [0, 0]}  # attack: [leaves, rejected]
        real = search.first_violation

        def spy(nbrs, labels, attack_n):
            witness = real(nbrs, labels, attack_n)
            leaves[attack_n][0] += 1
            leaves[attack_n][1] += witness is not None
            return witness

        monkeypatch.setattr(search, "first_violation", spy)
        opts = [dict(attack_n=a, **kw) for a in (1, 2, 3)
                for kw in ({}, {"enumerate_all": True}, {"max_twos": 1}, {"max_twos": 2})]
        opts += [{"two_mode": m} for m in ("minimize_twos", "maximize_twos")]
        rng = random.Random(24)
        for _ in range(80):
            g = _random_graph(rng, rng.randint(1, 11), rng.choice((0.2, 0.35, 0.5)))
            for kw in opts:
                gamma_bruteforce(g, SolveOptions(method="bruteforce", **kw))
        assert leaves[1][0] > 0 and leaves[2][0] > 0
        assert leaves[1][1] == leaves[2][1] == 0, leaves
        assert leaves[3][1] > 0, leaves

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_recursion_past_the_interpreter_limit(self, kind):
        # The search recurses once per vertex; order 1200 is past the
        # default depth limit of 1000, which it restores on return.
        limit = sys.getrecursionlimit()
        result = solve(fam(kind, 1200))
        assert result.stats.method == "bruteforce" and result.gamma == 960
        assert validate(result.labeling, 2).valid
        assert sys.getrecursionlimit() == limit


SCAN_CORPUS = [
    build_graph(0, []), build_graph(1, []), build_graph(5, []),
    build_graph(7, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)]),
    fam("star", 4), fam("grid", 3, 4), fam("complete", 5), fam("grid", 4, 8),
    fam("cycle", 9), sierpinski_graph(2),
]
SCAN_IDS = ["empty", "k1", "edgeless", "disconnected", "star", "grid", "complete",
            "grid4x8", "cycle", "sierpinski"]


class TestSealOrder:
    """The frontier vertex order of the optimum and extremal searches."""

    @pytest.mark.parametrize("g", [
        build_graph(0, []), build_graph(1, []), build_graph(5, []),
        build_graph(7, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)]),
        fam("star", 4), fam("grid", 3, 4), fam("complete", 5),
    ], ids=["empty", "k1", "edgeless", "disconnected", "star", "grid", "complete"])
    def test_greedy_rule(self, g):
        nbrs = g.neighbor_tuples()
        adj, order = neighbor_masks(nbrs), _seal_scan(nbrs)[0]
        assert sorted(order) == list(range(g.order))
        placed = 0
        for v in order:
            left = (1 << g.order) - 1 & ~placed

            def key(u):
                return (-(adj[u] & placed).bit_count(), (adj[u] & left).bit_count(), u)

            assert all(key(v) <= key(u) for u in range(g.order) if left >> u & 1)
            placed |= 1 << v

    def test_grid_sweep_keeps_one_row_on_the_frontier(self):
        g = fam("grid", 4, 6)
        nbrs = g.neighbor_tuples()
        adj, order = neighbor_masks(nbrs), _seal_scan(nbrs)[0]
        assert order[0] == 0
        placed = 0
        for v in order:
            placed |= 1 << v
            frontier = [u for u in range(g.order)
                        if placed >> u & 1 and adj[u] & ~placed]
            assert len(frontier) <= 6

    @pytest.mark.parametrize("attack", [1, 2, 3])
    def test_gamma_matches_degree_order(self, monkeypatch, attack):
        # The vertex order may change the node count but never gamma or the
        # witness: solves over descending degree (ties by id), the order
        # before the seal scan, give the answers of the plain solves.
        rng = random.Random(500 + attack)
        cases = []
        for _ in range(40):
            n = rng.randint(0, 13)
            g = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.8)))
            for cap in (None, 0, 1, 2):
                opts = SolveOptions(attack_n=attack, max_twos=cap)
                cases.append((g, opts, gamma_bruteforce(g, opts)))
        monkeypatch.setattr(solver_module, "_search_order", lambda nbrs: (
            sorted(range(len(nbrs)), key=lambda v: (-len(nbrs[v]), v)), 0, 0))
        for g, opts, plain in cases:
            got = gamma_bruteforce(g, opts)  # the patched order reports width 0
            assert ((got.gamma, got.labeling, got.stats.frontier_width)
                    == (plain.gamma, plain.labeling, 0)), (
                g.order, list(g.edges()), attack, opts.max_twos)

    def test_extremal_twos_match_enumeration(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 11)
            g = _random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
            counts = {m.labels.count(2) for m in enumerate_minimum_labelings(g)}
            case = (n, list(g.edges()))
            fewest = two_extremal_minimum(g, "minimize_twos").labeling.labels
            most = two_extremal_minimum(g, "maximize_twos").labeling.labels
            assert fewest.count(2) == min(counts), case
            assert most.count(2) == max(counts), case

    # Optimum-pass nodes 61, 2,265, 181, 365 and 263; 157, 6,023, 270, 639 and
    # 558 without the claims and the exchange cuts at the seal.
    @pytest.mark.parametrize("g,gamma,limit", [
        (fam("grid", 4, 4), 11, 100),
        (fam("grid", 5, 5), 17, 3_500),
        (sierpinski_graph(3), 24, 300),
        (fam("grid", 3, 6), 13, 600),
        (fam("grid", 4, 6), 16, 450),
    ], ids=["grid4x4", "grid5x5", "sierpinski42", "grid3x6", "grid4x6"])
    def test_node_pins(self, g, gamma, limit):
        result = gamma_bruteforce(g)
        assert result.gamma == gamma
        assert result.stats.nodes <= limit

    def test_grid4x8_node_pin(self):
        # stats.nodes counts the optimum pass only; the witness pass walks
        # this grid in id order.  12,738 nodes; 28,513 without the claims
        # and the exchange cuts at the seal.
        result = gamma_bruteforce(fam("grid", 4, 8))
        assert result.gamma == 22
        assert result.stats.nodes <= 14_000

    @pytest.mark.parametrize("g", SCAN_CORPUS, ids=SCAN_IDS)
    def test_started_scan_breaks_ties_by_distance(self, g):
        nbrs = g.neighbor_tuples()
        adj = neighbor_masks(nbrs)
        for start in range(min(g.order, 3)):
            dist = {start: 0}
            queue = [start]
            for u in queue:
                for w in nbrs[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            order = _seal_scan(nbrs, start)[0]
            assert order[0] == start
            assert sorted(order) == list(range(g.order))
            placed = 1 << start
            for v in order[1:]:
                left = (1 << g.order) - 1 & ~placed

                def key(u):
                    return (-(adj[u] & placed).bit_count(), (adj[u] & left).bit_count(),
                            dist.get(u, g.order), u)

                assert all(key(v) <= key(u) for u in iter_bits(left))
                placed |= 1 << v

    def test_search_order_is_a_narrower_permutation(self):
        rng = random.Random(606)
        cases = [fam("grid", r, c) for r in range(1, 7) for c in range(1, 9)]
        cases += [_random_graph(rng, rng.randint(0, 16), rng.choice((0.1, 0.2, 0.4)))
                  for _ in range(60)]
        cases += [fam("cycle", 15), sierpinski_graph(3), build_graph(0, [])]
        for g in cases:
            nbrs = g.neighbor_tuples()
            order, score, width = _search_order(nbrs)
            assert sorted(order) == list(range(g.order))
            assert (score, width) == frontier_reference(nbrs, order)
            # The plain scan is kept unless a rival scores strictly lower.
            plain = _seal_scan(nbrs)[0]
            plain_score = frontier_reference(nbrs, plain)[0]
            assert score <= plain_score
            if order != plain:
                assert score < plain_score
            # The only rivals are the scans started at the first three
            # minimum-degree vertices, and none of them scores lower.
            low = min(map(len, nbrs), default=0)
            starts = [v for v, t in enumerate(nbrs) if len(t) == low][:3]
            scans = [_seal_scan(nbrs, v)[0] for v in starts]
            rivals = [(r, *frontier_reference(nbrs, r)) for r in scans]
            assert all(score <= r[1] for r in rivals)
            assert order == plain or (order, score, width) in rivals
        # Row-major grid 3x6: the plain scan sweeps the rows of 6, and a
        # corner start (0, 5 and 12 are the first corners) sweeps the columns.
        nbrs = fam("grid", 3, 6).neighbor_tuples()
        order, _, width = _search_order(nbrs)
        assert _frontier(nbrs, _seal_scan(nbrs)[0])[1] == 6
        assert width == 3 and order[0] in (0, 5, 12)

    def test_frontier_matches_quadratic_reference(self):
        # The plain and started seal orders, the id order and a seeded random
        # permutation of each graph of the scan corpora.
        rng = random.Random(2121)
        cases = SCAN_CORPUS + [fam("grid", r, c) for r in range(1, 7) for c in range(1, 9)]
        cases += [_random_graph(rng, rng.randint(0, 16), rng.choice((0.1, 0.2, 0.4)))
                  for _ in range(60)]
        cases += [fam("cycle", 15), sierpinski_graph(3)]
        for g in cases:
            nbrs = g.neighbor_tuples()
            shuffled = list(range(g.order))
            rng.shuffle(shuffled)
            orders = [_seal_scan(nbrs)[0], range(g.order), shuffled]
            orders += [_seal_scan(nbrs, s)[0] for s in range(min(g.order, 3))]
            for order in orders:
                assert _frontier(nbrs, order) == frontier_reference(nbrs, order), (
                    list(g.edges()), list(order))

    def test_scan_profile_and_early_stop_match_frontier(self):
        # Each scan counts its own frontier profile, which _frontier gives
        # again for its order, and stops once its score reaches ``stop``; so
        # _search_order picks the order that scoring every full scan with
        # _frontier picks, keeping the first strictly lowest score.
        rng = random.Random(3131)
        cases = [_random_graph(rng, rng.randint(0, 18), rng.choice((0.1, 0.2, 0.3, 0.5)))
                 for _ in range(300)] + SCAN_CORPUS
        for g in cases:
            nbrs = g.neighbor_tuples()
            low = min(map(len, nbrs), default=0)
            starts = [v for v, t in enumerate(nbrs) if len(t) == low][:3]
            best = None
            for start in [None, *starts]:
                order, score, width = _seal_scan(nbrs, start)
                case = (list(g.edges()), start)
                assert (score, width) == _frontier(nbrs, order), case
                assert _seal_scan(nbrs, start, score + 1) == (order, score, width), case
                assert g.order == 0 or _seal_scan(nbrs, start, score) is None, case
                if best is None or score < best[1]:
                    best = order, score, width
            assert _search_order(nbrs) == best, list(g.edges())

    def test_position_tables_match_definitions(self):
        # Each table from scratch on seeded graphs and orders: last is the
        # largest neighbor position, close the position where the closed
        # neighborhood is first fully placed, and sealed lists the vertices
        # whose closed neighborhood is first fully placed there.
        rng = random.Random(2323)
        cases = [_random_graph(rng, rng.randint(0, 14), rng.choice((0.0, 0.1, 0.25, 0.5)))
                 for _ in range(80)] + SCAN_CORPUS
        for g in cases:
            nbrs = g.neighbor_tuples()
            n = g.order
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for order in (_seal_scan(nbrs)[0], range(n), shuffled):
                order = list(order)
                pos, last = _positions(nbrs, order)
                tpos, tlast, close, sealed, later = _seal_tables(nbrs, order)
                case = (list(g.edges()), order)
                assert [order[p] for p in pos] == list(range(n)), case
                assert (tpos, tlast) == (pos, last), case
                placed = set()
                first_full = {}
                for i, v in enumerate(order):
                    placed.add(v)
                    for u in range(n):
                        if u not in first_full and {u, *nbrs[u]} <= placed:
                            first_full[u] = i
                    assert later[i] == tuple(u for u in nbrs[v] if u not in placed), case
                    here = [u for u in range(n) if first_full.get(u) == i]
                    assert sorted(sealed[i]) == here, case
                for u in range(n):
                    assert last[u] == max((order.index(w) for w in nbrs[u]), default=-1), case
                    assert close[u] == first_full[u], case
                assert _frontier(nbrs, order) == frontier_reference(nbrs, order), case

    @pytest.mark.parametrize("kind,width", [("cycle", 2), ("path", 1)])
    def test_long_strip_search_order(self, kind, width):
        # The scans and the frontier sweep read neighbor tuples, so the
        # order of a 20,000-vertex strip takes a fraction of a second.
        assert _search_order(fam(kind, 20_000).neighbor_tuples())[2] == width

    @pytest.mark.parametrize("rows,cols", [(3, 6), (4, 6)])
    def test_transposed_grids_cost_alike(self, rows, cols):
        wide = gamma_bruteforce(fam("grid", rows, cols))
        tall = gamma_bruteforce(fam("grid", cols, rows))
        assert wide.gamma == tall.gamma
        low, high = sorted((wide.stats.nodes, tall.stats.nodes))
        assert high <= 2 * low
        assert wide.stats.frontier_width == tall.stats.frontier_width == rows

    def test_frontier_width_stat(self):
        assert _search_order(fam("grid", 4, 8).neighbor_tuples())[2] == 4
        assert gamma_bruteforce(fam("grid", 5, 3)).stats.frontier_width == 3
        assert gamma_bruteforce(build_graph(0, [])).stats.frontier_width == 0
        assert two_extremal_minimum(fam("grid", 3, 5), "maximize_twos").stats.frontier_width == 3
        assert gamma_via_eccd(fam("grid", 3, 5)).stats.frontier_width is None
        assert solve(fam("grid", 3, 5)).stats.frontier_width is None


class TestLimits:
    def test_override(self, monkeypatch):
        monkeypatch.setenv("TWO_RD_MAX_ORDER", "7")
        assert limits.enumeration_max_order() == 7

    def test_unset_gives_defaults(self, monkeypatch):
        monkeypatch.delenv("TWO_RD_MAX_ORDER", raising=False)
        assert limits.enumeration_max_order() == limits.DEFAULT_ENUMERATION_MAX_ORDER == 16

    @pytest.mark.parametrize("raw", ["abc", "-3", "", "1.5"])
    def test_bad_value_is_an_error(self, monkeypatch, raw):
        monkeypatch.setenv("TWO_RD_MAX_ORDER", raw)
        with pytest.raises(BadLimitError) as info:
            limits.enumeration_max_order()
        assert "TWO_RD_MAX_ORDER" in str(info.value)
        assert repr(raw) in str(info.value)
        assert info.value.value == raw


class TestEnumerate:
    def test_p4_two_counts(self):
        minima = enumerate_minimum_labelings(fam("path", 4))
        assert all(m.weight == 4 for m in minima)
        vectors = {m.labels for m in minima}
        assert (1, 1, 1, 1) in vectors
        assert (0, 2, 1, 1) in vectors and (1, 1, 2, 0) in vectors
        assert (2, 0, 2, 0) in vectors and (0, 2, 0, 2) in vectors
        assert {sum(1 for x in m.labels if x == 2) for m in minima} == {0, 1, 2}

    def test_hub_labeling_present(self):
        g = fam("complete_bipartite", 2, 6)
        minima = enumerate_minimum_labelings(g)
        assert (2, 2) + (0,) * 6 in {m.labels for m in minima}

    def test_k1(self):
        minima = enumerate_minimum_labelings(fam("path", 1))
        assert [m.labels for m in minima] == [(1,)]

    def test_matches_naive(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(1, 5)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = build_graph(n, edges)
            got = [m.labels for m in enumerate_minimum_labelings(g)]
            assert got == naive_minimum_labelings(g)

    def test_too_large(self, monkeypatch):
        monkeypatch.setenv("TWO_RD_MAX_ORDER", "4")
        with pytest.raises(TooLargeError):
            enumerate_minimum_labelings(fam("path", 5))

    @pytest.mark.parametrize("attack", [0, -1])
    def test_rejects_attack_below_one(self, attack):
        with pytest.raises(ValueError):
            enumerate_minimum_labelings(fam("path", 4), attack)


class TestEccd:
    def test_showcase_packing_size(self):
        g = eccd_showcase_graph()
        packing = max_eccd(g)
        assert len(packing) == 2
        check_eccd(g, packing)

    def test_no_p5_possible(self):
        assert len(max_eccd(fam("complete", 3))) == 0
        assert len(max_eccd(fam("cycle", 4))) == 0

    def test_single_path(self):
        assert len(max_eccd(fam("path", 5))) == 1

    def test_check_accepts_disjoint_pair(self):
        g = eccd_showcase_graph()
        i = g.internal_id
        check_eccd(g, EccdSet(((i(1), i(2), i(3), i(4), i(5)),
                               (i(6), i(7), i(8), i(9), i(10)))))

    def test_check_rejects_center_reuse(self):
        g = eccd_showcase_graph()
        i = g.internal_id
        with pytest.raises(InvalidEccdError, match=r"is the center in \(.*\), so it cannot"
                                                   r" be the center in \("):
            check_eccd(g, EccdSet(((i(1), i(2), i(8), i(4), i(5)),
                                   (i(6), i(7), i(8), i(9), i(10)))))

    def test_check_accepts_end_coupling(self):
        g = eccd_showcase_graph()
        i = g.internal_id
        check_eccd(g, EccdSet(((i(1), i(2), i(3), i(4), i(5)),
                               (i(6), i(7), i(8), i(4), i(5)))))

    def test_check_rejects_reversed_coupling(self):
        g = eccd_showcase_graph()
        i = g.internal_id
        with pytest.raises(InvalidEccdError, match=f"vertex {i(5)} is the leaf of {i(4)} in"
                                                   rf" \(.*\), so it cannot be the inner of {i(4)}"):
            check_eccd(g, EccdSet(((i(1), i(2), i(3), i(4), i(5)),
                                   (i(10), i(9), i(8), i(5), i(4)))))

    def test_check_rejects_non_path(self):
        g = fam("path", 6)
        with pytest.raises(InvalidEccdError):
            check_eccd(g, EccdSet(((0, 1, 2, 3, 5),)))
        # a tuple that is not 5 long, whether or not it repeats a vertex
        with pytest.raises(InvalidEccdError, match="has 6 vertices, not 5"):
            check_eccd(g, EccdSet(((0, 1, 2, 3, 4, 5),)))
        with pytest.raises(InvalidEccdError, match="has 6 vertices, not 5"):
            check_eccd(fam("cycle", 5), EccdSet(((0, 1, 2, 3, 4, 0),)))
        # a closed walk of 5 vertices
        with pytest.raises(InvalidEccdError, match="repeats a vertex"):
            check_eccd(fam("cycle", 4), EccdSet(((0, 1, 2, 3, 0),)))

    def test_check_rejects_non_int_vertex(self):
        g = fam("cycle", 6)
        eccd = EccdSet(((0.0, 1, 2, 3, 4),))
        with pytest.raises(InvalidEccdError, match="leaves the graph"):
            check_eccd(g, eccd)
        with pytest.raises(InvalidEccdError, match="leaves the graph"):
            eccd_to_labeling(g, eccd)
        with pytest.raises(InvalidEccdError, match="leaves the graph"):
            check_eccd(g, EccdSet(((True, 2, 3, 4, 5),)))

    def test_check_rejects_duplicate(self):
        # equal tuples that are distinct objects, as well as one object twice
        g = fam("path", 5)
        for paths in (((0, 1, 2, 3, 4), tuple(range(5))), ((0, 1, 2, 3, 4),) * 2):
            with pytest.raises(InvalidEccdError, match="duplicate tuple in set"):
                check_eccd(g, EccdSet(paths))

    def test_check_matches_pairwise_rule(self):
        # A set is accepted exactly when no tuple repeats and every pair of
        # tuples passes the pairwise reference rule.
        rng = random.Random(27)
        verdicts = []
        while len(verdicts) < 2000:
            n = rng.randint(5, 10)
            g = _random_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
            cands = p5_candidates(g)
            cands += [t[::-1] for t in cands]
            for _ in range(10 if cands else 0):
                paths = tuple(rng.choice(cands) for _ in range(rng.randint(1, 4)))
                want = len(set(paths)) == len(paths) and all(
                    _tuples_compatible(t, u) for t, u in combinations(paths, 2))
                try:
                    check_eccd(g, EccdSet(paths))
                    got = True
                except InvalidEccdError:
                    got = False
                assert got == want, (n, list(g.edges()), paths)
                verdicts.append(got)
        assert 100 < sum(verdicts) < 1900

    def test_matches_reference_engine(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < rng.choice((0.3, 0.6, 0.9))]
            g = build_graph(n, edges)
            fast = max_eccd(g)
            ref = max_eccd_reference(g)
            check_eccd(g, fast)
            assert len(fast) == len(ref), (n, edges)

    def test_reference_on_sampled_order_six(self):
        for g in sampled_connected_graphs(6, 25, seed=66):
            assert len(max_eccd(g)) == len(max_eccd_reference(g))

    def test_deterministic(self):
        g = eccd_showcase_graph()
        assert max_eccd(g) == max_eccd(g)


class TestEccdPruning:
    """The pruned sweep returns exactly what the unpruned sweep returns."""

    @staticmethod
    def _assert_same_as_sweep(g):
        adj = neighbor_masks(g.neighbor_tuples())
        score, sol, _ = eccd_sweep_reference(adj)
        assert _max_eccd_engine(adj)[:2] == (score, sol)
        packing = _assemble_eccd(adj, sol)
        assert max_eccd(g) == packing
        labels = eccd_to_labeling(g, packing).labels
        assert gamma_via_eccd(g).labeling.labels == labels
        optimal, cert = is_optimal(g)
        assert optimal == (score > 0)
        if optimal:
            assert cert.labeling.labels == labels
            assert cert.path == find_02020_path(cert.labeling)
        else:
            assert cert is None

    def test_random_batch(self):
        for g in random_graphs(200, seed=1202):
            self._assert_same_as_sweep(g)

    def test_sampled_order_seven(self):
        for g in sampled_connected_graphs(7, 250, seed=701):
            self._assert_same_as_sweep(g)

    @settings(max_examples=150, deadline=None)
    @given(graphs(12))
    def test_hypothesis_graphs(self, g):
        self._assert_same_as_sweep(g)

    @pytest.mark.parametrize("g", [fam("cycle", 16), fam("cycle", 20), fam("grid", 2, 7),
                                   fam("grid", 4, 5), fam("grid", 3, 7),
                                   tilings.ball_graph("triangular", 2)],
                             ids=["C16", "C20", "grid2x7", "grid4x5", "grid3x7", "triball2"])
    def test_bench_graphs(self, g):
        self._assert_same_as_sweep(g)

    def test_incidence_bound_admissible(self):
        # Rule (e): 2 score(I) <= sum over I of (|N(i) - I| - 1), and every
        # prefix of I in candidate order bounds that sum by g + top[k][r].
        # Rule (c): score(I) <= n - 2|I|.
        rng = random.Random(405)
        for _ in range(60):
            n = rng.randint(5, 9)
            g = _random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))
            adj = neighbor_masks(g.neighbor_tuples())
            cands = [v for v in range(n) if adj[v].bit_count() >= 2]
            top = _eccd_gain_table([adj[v].bit_count() - 1 for v in cands])
            for s in range(2, min(n // 2, len(cands)) + 1):
                for picks in combinations(range(len(cands)), s):
                    inners = [cands[j] for j in picks]
                    score = eccd_set_score(adj, inners)
                    if score is None:
                        continue
                    imask = mask_of(inners)
                    total = sum((adj[i] & ~imask).bit_count() - 1 for i in inners)
                    assert score <= total // 2, (adj, inners)
                    assert score <= n - 2 * s, (adj, inners)
                    for t in range(s + 1):
                        cmask = mask_of(inners[:t])
                        g = sum((adj[i] & ~cmask).bit_count() - 1 for i in inners[:t])
                        k = picks[t - 1] + 1 if t else 0
                        assert (g + top[k][s - t]) // 2 >= score, (adj, inners, t)

    @staticmethod
    def _count_work(monkeypatch, g):
        calls = []

        def counting(*args):
            calls.append(args)
            return _min_cost_leaf_assignment(*args)

        monkeypatch.setattr(packing, "_min_cost_leaf_assignment", counting)
        result = gamma_via_eccd(g)
        return result, len(calls)

    def test_c20_work_budget(self, monkeypatch):
        # Pins that fail when the incidence bound (e) or the per-set filter
        # (b) is lost: 339 sets and 93 leaf assignments with every prune,
        # 14,814 and 353 without (e), 304 leaf assignments without (b).
        result, calls = self._count_work(monkeypatch, fam("cycle", 20))
        assert result.gamma == 16
        assert result.stats.nodes <= 500
        assert calls <= 120

    @pytest.mark.parametrize("g,gamma,max_sets,max_calls",
                             [(fam("grid", 4, 5), 14, 1_000, 400),
                              (fam("grid", 4, 6), 16, 7_800, 3_300)],
                             ids=["grid4x5", "grid4x6"])
    def test_grid_work_budget(self, g, gamma, max_sets, max_calls, monkeypatch):
        # The incidence bound (e) does the cutting on grids: grid 4x5 takes
        # 782 sets and 300 leaf assignments (23,891 and 917 without (e)),
        # grid 4x6 7,549 and 3,120 (332,569 and 12,881 without (e); 8,145
        # and 3,481 without the room test (c) inside a size).
        result, calls = self._count_work(monkeypatch, g)
        assert result.gamma == gamma
        assert result.stats.nodes <= max_sets
        assert calls <= max_calls

    def test_room_stop(self):
        # K12 reaches the room n - 2s = 8 with its first set of size 2:
        # 1 set reaches the per-set test, 66 without the room test (c)
        # inside a size.
        result = gamma_via_eccd(fam("complete", 12))
        assert result.gamma == 4
        assert result.stats.nodes <= 5

    def test_pendant_vertices_are_never_inners(self):
        # A path of 10 with a pendant on every vertex: 24 sets reach the
        # per-set test, over 10,000 if degree-1 vertices were candidates.
        edges = [(i, i + 1) for i in range(9)] + [(i, 10 + i) for i in range(10)]
        result = gamma_via_eccd(build_graph(20, edges))
        assert result.gamma == 16
        assert result.stats.nodes <= 100

    @pytest.mark.parametrize("run, g", [
        (max_eccd, fam("grid", 4, 5)),
        (gamma_via_eccd, tilings.ball_graph("triangular", 2)),
        (gamma_bruteforce, fam("grid", 4, 5)),
        (lambda g: gamma_bruteforce(g, SolveOptions(max_twos=3)), fam("grid", 3, 4)),
        (lambda g: gamma_bruteforce(g, SolveOptions(attack_n=3)), fam("cycle", 10)),
        (lambda g: gamma_bruteforce(g, SolveOptions(two_mode="minimize_twos")),
         fam("grid", 3, 4)),
        (lambda g: gamma_bruteforce(g, SolveOptions(enumerate_all=True,
                                                    two_mode="maximize_twos")),
         build_graph(12, [(u, v) for u in range(6) for v in range(6, 12)])),
    ], ids=["max_eccd-grid4x5", "gamma_via_eccd-triball2", "bb-grid4x5", "bb-capped-grid3x4",
            "bb-attack3-c10", "bb-min-twos-grid3x4", "bb-all-max-twos-k66"])
    def test_leaves_no_cyclic_garbage(self, run, g):
        # The CLI runs a command with the cyclic collector off, so a search
        # may leave no reference cycle: a self-recursive closure left one per
        # branch-and-bound pass (332 objects on K6,6 enumerating under a two
        # mode), and one per leaf assignment of the packing sweep (thousands).
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run(g)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestEccdToLabeling:
    def test_p5(self):
        g = fam("path", 5)
        lab = eccd_to_labeling(g, EccdSet(((0, 1, 2, 3, 4),)))
        assert lab.labels == (0, 2, 0, 2, 0)
        assert lab.weight == 4

    def test_p7_inner_path(self):
        g = fam("path", 7)
        lab = eccd_to_labeling(g, EccdSet(((1, 2, 3, 4, 5),)))
        assert lab.labels == (1, 0, 2, 0, 2, 0, 1)
        assert lab.weight == 6
        assert gamma_bruteforce(g).gamma == 6

    def test_many_disjoint_blocks(self):
        # 0-2-0-2-0 blocks side by side along a path: weight 4 per block.
        blocks = 300
        g = fam("path", 5 * blocks)
        eccd = EccdSet(tuple(tuple(range(5 * k, 5 * k + 5)) for k in range(blocks)))
        check_eccd(g, eccd)
        lab = eccd_to_labeling(g, eccd)
        assert lab.labels == (0, 2, 0, 2, 0) * blocks
        assert lab.weight == 4 * blocks

    def test_empty_set_gives_all_one(self):
        g = fam("complete", 4)
        lab = eccd_to_labeling(g, EccdSet(()))
        assert lab.labels == (1, 1, 1, 1)

    def test_rejects_invalid_set(self):
        g = fam("path", 6)
        with pytest.raises(InvalidEccdError):
            eccd_to_labeling(g, EccdSet(((0, 1, 2, 3, 4), (1, 2, 3, 4, 5))))
        with pytest.raises(InvalidEccdError):  # a closed walk, not a P5
            eccd_to_labeling(fam("cycle", 5), EccdSet(((0, 1, 2, 3, 4, 0),)))

    def test_output_validates_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(5, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = build_graph(n, edges)
            packing = max_eccd(g)
            for k in range(len(packing) + 1):
                prefix = EccdSet(packing.paths[:k])
                lab = eccd_to_labeling(g, prefix)
                assert validate(lab, 2).valid


class TestGammaViaEccd:
    def test_showcase(self):
        result = gamma_via_eccd(eccd_showcase_graph())
        assert result.gamma == 8
        assert result.optimal_number == 2
        assert validate(result.labeling, 2).valid

    def test_k66(self):
        assert gamma_via_eccd(fam("complete_bipartite", 6, 6)).gamma == 8

    def test_c17(self):
        assert gamma_via_eccd(fam("cycle", 17)).gamma == 14

    def test_agrees_with_bruteforce_on_randoms(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(1, 10)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < rng.choice((0.2, 0.5, 0.8))]
            g = build_graph(n, edges)
            assert gamma_via_eccd(g).gamma == gamma_bruteforce(g).gamma, (n, edges)


class TestIsOptimal:
    def test_k3_suboptimal(self):
        verdict, certificate = is_optimal(fam("complete", 3))
        assert verdict is False and certificate is None

    def test_c4_suboptimal(self):
        assert is_optimal(fam("cycle", 4))[0] is False

    def test_k26_optimal_with_certificate(self):
        g = fam("complete_bipartite", 2, 6)
        verdict, certificate = is_optimal(g)
        assert verdict is True
        path = certificate.path
        labels = certificate.labeling.labels
        assert tuple(labels[v] for v in path) == (0, 2, 0, 2, 0)
        for x, y in zip(path, path[1:]):
            assert g.has_edge(x, y)
        assert validate(certificate.labeling, 2).valid

    @pytest.mark.parametrize("g,number", [(fam("cycle", 26), 5), (fam("grid", 5, 5), 8)],
                             ids=["C26", "grid5x5"])
    def test_past_the_packing_order_reads_solve(self, g, number, monkeypatch):
        # Past order 22 solve takes the branch and bound, and so must the
        # certificate: the packing sweep never runs.
        sweeps = []

        def spying(adj):
            sweeps.append(len(adj))
            return _max_eccd_engine(adj)

        monkeypatch.setattr(packing, "_max_eccd_engine", spying)
        verdict, certificate = is_optimal(g)
        assert sweeps == []
        gamma_via_eccd(fam("cycle", 7))  # the spy sees a sweep that does run
        assert sweeps == [7]
        result = solve(g)
        assert verdict is True and result.optimal_number == number
        assert certificate.labeling == result.labeling
        path = certificate.path
        assert len(set(path)) == 5
        assert tuple(result.labeling.labels[v] for v in path) == (0, 2, 0, 2, 0)
        assert all(g.has_edge(x, y) for x, y in zip(path, path[1:]))

    def test_matches_gamma_definition(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(1, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = build_graph(n, edges)
            assert is_optimal(g)[0] == (gamma_bruteforce(g).gamma < n)


class TestFiniteResources:
    def test_k6_caps(self):
        g = fam("complete", 6)
        assert solve_finite_resources(g, 0).gamma == 6
        assert solve_finite_resources(g, 1).gamma == 6
        assert solve_finite_resources(g, 2).gamma == 4

    def test_cap_zero_forces_all_one(self):
        g = fam("cycle", 5)
        result = solve_finite_resources(g, 0)
        assert result.gamma == 5
        assert result.labeling.labels == (1,) * 5

    def test_monotone_and_saturating(self):
        rng = random.Random(3)
        for _ in range(8):
            n = rng.randint(2, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = build_graph(n, edges)
            unconstrained = gamma_bruteforce(g).gamma
            previous = None
            for k in range(n + 1):
                value = solve_finite_resources(g, k).gamma
                if previous is not None:
                    assert value <= previous
                previous = value
            assert solve_finite_resources(g, n).gamma == unconstrained

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            solve_finite_resources(fam("path", 3), -1)


class TestTwoExtremal:
    def test_p4_minimize(self):
        result = two_extremal_minimum(fam("path", 4), "minimize_twos")
        assert result.gamma == 4
        assert result.labeling.labels == (1, 1, 1, 1)

    def test_p4_maximize(self):
        result = two_extremal_minimum(fam("path", 4), "maximize_twos")
        assert result.labeling.labels == (0, 2, 0, 2)
        assert sum(1 for x in result.labeling.labels if x == 2) == 2

    def test_k66_feasible_counts(self):
        g = fam("complete_bipartite", 6, 6)
        result = two_extremal_minimum(g, "minimize_twos", enumerate_all=True)
        assert result.gamma == 8
        assert result.feasible_two_counts == (2, 4)
        assert all(m.weight == 8 for m in result.all_minimum)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            two_extremal_minimum(fam("path", 3), "most")

    def test_too_large(self, monkeypatch):
        monkeypatch.setenv("TWO_RD_MAX_ORDER", "3")
        assert two_extremal_minimum(fam("path", 4), "minimize_twos").gamma == 4
        with pytest.raises(TooLargeError):
            two_extremal_minimum(fam("path", 4), "minimize_twos", enumerate_all=True)


class TestAssignPrivateNeighbors:
    def test_public_only_labeling_gets_deletions(self):
        _, minimum = allepn_labelings()
        g = minimum.graph
        sub, matching = assign_private_neighbors(minimum)
        assert sub.order == g.order
        assert sub.edge_count() == g.edge_count() - 2
        assert matching == {3: 0, 4: 1}
        relabeled = Labeling(sub, minimum.labels)
        assert validate(relabeled, 2).valid
        for two, private in matching.items():
            assert sub.has_edge(two, private)
            assert [u for u in sub.neighbors(private) if minimum.labels[u] == 2] == [two]

    def test_existing_epns_kept(self):
        g = fam("path", 5)
        lab = Labeling(g, (0, 2, 0, 2, 0))
        sub, matching = assign_private_neighbors(lab)
        assert sub == g
        assert matching == {1: 0, 3: 4}

    def test_not_minimum_rejected(self):
        heavy, _ = allepn_labelings()
        with pytest.raises(NotMinimumError):
            assign_private_neighbors(heavy)

    def test_invalid_rejected(self):
        g = fam("path", 3)
        with pytest.raises(NotMinimumError):
            assign_private_neighbors(Labeling(g, (0, 0, 0)))


class TestStripOnes:
    def test_p4(self):
        g = fam("path", 4)
        sub, lab = strip_ones(Labeling(g, (0, 2, 1, 1)))
        assert sub.order == 2 and sub.edge_count() == 1
        assert lab.labels == (0, 2)
        assert gamma_bruteforce(sub).gamma == 2

    def test_no_ones_is_identity(self):
        g = fam("complete", 6)
        lab = Labeling(g, (2, 0, 2, 0, 0, 0))
        sub, induced = strip_ones(lab)
        assert sub == g and induced.labels == lab.labels

    def test_star(self):
        g = fam("star", 4)
        sub, lab = strip_ones(Labeling(g, (2, 0, 1, 1, 1)))
        assert sub.order == 2 and sub.edge_count() == 1
        assert lab.labels == (2, 0)

    def test_induced_labeling_is_minimum_of_subgraph(self):
        for g in sampled_connected_graphs(6, 15, seed=31):
            for m in enumerate_minimum_labelings(g)[:4]:
                sub, induced = strip_ones(m)
                assert validate(induced, 2).valid
                assert induced.weight == gamma_bruteforce(sub).gamma

    def test_not_minimum_rejected(self):
        g = fam("path", 4)
        with pytest.raises(NotMinimumError):
            strip_ones(Labeling(g, (2, 0, 2, 1)))  # valid but weight 5 > 4


class TestSolveDispatch:
    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(attack_n=0)
        with pytest.raises(ValueError):
            SolveOptions(max_twos=-1)
        with pytest.raises(ValueError):
            SolveOptions(two_mode="fewest")
        with pytest.raises(ValueError):
            SolveOptions(method="magic")
        with pytest.raises(ValueError):
            SolveOptions(method="eccd", attack_n=3)
        with pytest.raises(ValueError):
            SolveOptions(method="eccd", max_twos=1)
        for mode in ("minimize_twos", "maximize_twos"):
            with pytest.raises(ValueError):
                SolveOptions(method="eccd", two_mode=mode)
        for bad in ({"attack_n": 3}, {"max_twos": 1}, {"attack_n": 3, "max_twos": 1}):
            with pytest.raises(ValueError):
                SolveOptions(two_mode="maximize_twos", **bad)

    def test_auto_uses_eccd_for_small_two_attack(self):
        result = solve(fam("cycle", 10))
        assert result.stats.method == "eccd"
        assert result.gamma == 8

    def test_auto_route_ignores_limit_override(self, monkeypatch):
        monkeypatch.setenv("TWO_RD_MAX_ORDER", "5")
        assert solve(fam("cycle", 12)).stats.method == "eccd"
        monkeypatch.setenv("TWO_RD_MAX_ORDER", "42")
        assert solve(fam("cycle", 23)).stats.method == "bruteforce"

    def test_auto_route_past_the_packing_order(self):
        # Past order 22 the packing route is taken when the id order's
        # frontier gets wider than 10 or over a third of the vertices have
        # degree <= 1.
        rng = random.Random(2323)
        cases = [_random_graph(rng, rng.randint(23, 30), rng.choice((0.1, 0.2, 0.3)))
                 for _ in range(20)]
        cases += [fam("grid", 3, 10), fam("grid", 3, 11), fam("star", 23), fam("cycle", 26)]
        for g in cases:
            nbrs = g.neighbor_tuples()
            width = frontier_reference(nbrs, range(g.order))[1]
            low = sum(len(t) <= 1 for t in nbrs)
            assert _packing_pays(nbrs) == (width > 10 or 3 * low > g.order)
        assert not _packing_pays(fam("grid", 3, 10).neighbor_tuples())  # width 10
        assert _packing_pays(fam("grid", 3, 11).neighbor_tuples())  # width 11
        assert _packing_pays(fam("star", 23).neighbor_tuples())  # 23 leaves
        # Path 0-...-15 with leaves 16-23 on 0-6 and 15: 8 of 24 vertices have
        # degree 1, a third; one more leaf, on 7, makes 9 of 25.
        comb = [(v, v + 1) for v in range(15)] + [(v, 16 + v) for v in range(7)] + [(15, 23)]
        assert not _packing_pays(build_graph(24, comb).neighbor_tuples())
        assert _packing_pays(build_graph(25, comb + [(7, 24)]).neighbor_tuples())
        g = _random_graph(random.Random(20), 24, 0.15)
        result = solve(g)
        assert result.stats.method == "eccd"
        packed = gamma_via_eccd(g)
        assert (result.gamma, result.labeling) == (packed.gamma, packed.labeling)
        assert is_optimal(g)[1].labeling == result.labeling
        assert solve(fam("grid", 5, 5)).stats.method == "bruteforce"

    def test_packing_width_sweep_matches_quadratic_count(self):
        # The id-order width, as the count over all prefixes: the route
        # decision matches it on both sides of the width-10 threshold.
        rng = random.Random(1616)
        sides = set()
        for _ in range(300):
            n = rng.randint(23, 40)
            g = _random_graph(rng, n, rng.choice((0.05, 0.1, 0.15, 0.2, 0.3)))
            nbrs = g.neighbor_tuples()
            width = frontier_reference(nbrs, range(n))[1]
            low = sum(len(t) <= 1 for t in nbrs)
            want = width > 10 or 3 * low > n
            assert _packing_pays(nbrs) == want
            if 3 * low <= n:
                sides.add(want)
        assert sides == {False, True}

    def test_auto_falls_back_for_other_attacks(self):
        result = solve(fam("cycle", 5), SolveOptions(attack_n=1))
        assert result.stats.method == "bruteforce"

    def test_eccd_rejects_max_twos(self):
        with pytest.raises(ValueError):
            solve(fam("cycle", 5), SolveOptions(method="eccd", max_twos=1))

    def test_two_mode_dispatch(self):
        result = solve(fam("path", 4), SolveOptions(two_mode="maximize_twos"))
        assert result.labeling.labels == (0, 2, 0, 2)

    @pytest.mark.parametrize("mode,twos", [("minimize_twos", 2), ("maximize_twos", 4)])
    def test_bruteforce_honours_two_mode(self, mode, twos):
        g = fam("grid", 2, 5)
        result = gamma_bruteforce(g, SolveOptions(two_mode=mode))
        assert result.labeling.labels.count(2) == twos
        assert result.labeling == two_extremal_minimum(g, mode).labeling

    def test_enumerate_all_under_auto(self):
        result = solve(fam("path", 4), SolveOptions(enumerate_all=True))
        assert result.stats.method == "bruteforce"
        assert result.feasible_two_counts == (0, 1, 2)

    def test_eccd_rejects_enumerate_all(self):
        with pytest.raises(ValueError):
            SolveOptions(method="eccd", enumerate_all=True)

    @pytest.mark.parametrize("attack", [1, 2, 3])
    def test_enumerating_witness_is_first_listed(self, attack):
        rng = random.Random(900 + attack)
        for _ in range(25):
            g = _random_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.4, 0.6)))
            for cap in (None, 0, 1, 2):
                result = solve(g, SolveOptions(attack_n=attack, max_twos=cap,
                                               enumerate_all=True))
                case = (g.order, list(g.edges()), attack, cap)
                assert result.stats.method == "bruteforce", case
                assert result.labeling == result.all_minimum[0], case
                plain = solve(g, SolveOptions(attack_n=attack, max_twos=cap,
                                              method="bruteforce"))
                assert result.labeling == plain.labeling, case

    @pytest.mark.parametrize("mode", ["minimize_twos", "maximize_twos"])
    def test_enumerating_two_mode_witness(self, mode):
        rng = random.Random(950)
        for _ in range(25):
            g = _random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6)))
            result = solve(g, SolveOptions(two_mode=mode, enumerate_all=True))
            counts = result.feasible_two_counts
            twos = counts[0] if mode == "minimize_twos" else counts[-1]
            first = next(m for m in result.all_minimum if m.labels.count(2) == twos)
            case = (g.order, list(g.edges()))
            assert result.labeling == first, case
            assert result.labeling == solve(g, SolveOptions(two_mode=mode)).labeling, case

    @pytest.mark.parametrize("opts", [
        SolveOptions(enumerate_all=True),
        SolveOptions(method="bruteforce", max_twos=1, enumerate_all=True),
        SolveOptions(two_mode="maximize_twos", enumerate_all=True),
    ], ids=["auto", "bruteforce-cap", "two-mode"])
    def test_enumeration_limit_checked_before_search(self, monkeypatch, opts):
        calls = []
        real = solver_module._search

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_search", spy)
        monkeypatch.setenv("TWO_RD_MAX_ORDER", "4")
        with pytest.raises(TooLargeError):
            solve(fam("path", 5), opts)
        assert calls == []
        monkeypatch.delenv("TWO_RD_MAX_ORDER")
        solve(fam("path", 5), opts)
        assert calls


class TestMinimumLabelingStructure:
    """Structural facts every enumerated minimum labeling must satisfy."""

    def test_optimality_and_class_sizes(self):
        for g in sampled_connected_graphs(6, 20, seed=17):
            gamma = gamma_bruteforce(g).gamma
            assert gamma <= g.order  # the all-1 labeling always competes
            minima = enumerate_minimum_labelings(g)
            optimal = gamma < g.order
            counts = {(sum(1 for x in m.labels if x == 0),
                       sum(1 for x in m.labels if x == 2)) for m in minima}
            assert optimal == any(two < zero for zero, two in counts)
            # the surplus of 0s over 2s is the same in every minimum labeling
            assert len({zero - two for zero, two in counts}) == 1

    def test_every_two_touches_a_zero(self):
        for g in sampled_connected_graphs(6, 20, seed=23):
            for m in enumerate_minimum_labelings(g):
                for v, lab in enumerate(m.labels):
                    if lab == 2:
                        assert any(m.labels[u] == 0 for u in g.neighbors(v)), (g, m.labels)


class TestFind02020:
    def test_found_in_minimum_labeling(self):
        g = fam("path", 5)
        path = find_02020_path(Labeling(g, (0, 2, 0, 2, 0)))
        assert path == (0, 1, 2, 3, 4) or path == (4, 3, 2, 1, 0)

    def test_absent(self):
        g = fam("path", 5)
        assert find_02020_path(Labeling(g, (1,) * 5)) is None

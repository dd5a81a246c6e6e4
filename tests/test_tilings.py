from fractions import Fraction

import pytest

from tworoman import (BadSpecError, IncompatibleTorusError, PatchSpec,
                      TilingPattern, ball_density_bounds,
                      ball_density_sequence, ball_graph, density_lower_bound,
                      find_pattern, gamma_bruteforce, generate_patch, max_degree,
                      pattern_labeling, pattern_table, validate, verify_pattern)
from tworoman import tilings

TARGETS = {"square": Fraction(4, 7), "hexagonal": Fraction(2, 3),
           "triangular": Fraction(4, 9)}
DEGREES = {"square": 4, "hexagonal": 3, "triangular": 6}
MIN_TORUS = {"square": (7, 7), "hexagonal": (6, 6), "triangular": (9, 9)}


def _edges_by_definition(kind, w, h, torus):
    """The edges of a w x h patch as the module docstring states them: from
    (x, y) to (x+1, y); to (x, y+1), on the brick wall only when x+y is even;
    on the triangular lattice also to (x+1, y+1).  On the torus coordinates
    wrap; on an open patch a neighbor outside it is no neighbor."""
    def vid(x, y):
        if torus:
            return (y % h) * w + x % w
        return y * w + x if x < w and y < h else None

    edges = set()
    for y in range(h):
        for x in range(w):
            targets = [vid(x + 1, y)]
            if kind != "hexagonal" or (x + y) % 2 == 0:
                targets.append(vid(x, y + 1))
            if kind == "triangular":
                targets.append(vid(x + 1, y + 1))
            edges.update(frozenset((y * w + x, t)) for t in targets if t is not None)
    return edges


class TestGeneratePatch:
    def test_square_open_counts(self):
        patch = generate_patch(PatchSpec("square", 3, 3, "open"))
        assert patch.graph.order == 9 and patch.graph.edge_count() == 12

    def test_square_torus_regular(self):
        patch = generate_patch(PatchSpec("square", 4, 4, "torus"))
        assert patch.graph.order == 16 and patch.graph.edge_count() == 32
        assert all(patch.graph.degree(v) == 4 for v in patch.graph.vertices())

    @pytest.mark.parametrize("kind,w,h", [
        ("square", 7, 7), ("square", 14, 14),
        ("hexagonal", 6, 6), ("hexagonal", 12, 12),
        ("triangular", 9, 9), ("triangular", 18, 18),
    ])
    def test_torus_regularity(self, kind, w, h):
        patch = generate_patch(PatchSpec(kind, w, h, "torus"))
        assert all(patch.graph.degree(v) == DEGREES[kind]
                   for v in patch.graph.vertices())

    def test_open_patches_have_boundary(self):
        for kind in DEGREES:
            patch = generate_patch(PatchSpec(kind, 6, 6, "open"))
            degrees = [patch.graph.degree(v) for v in patch.graph.vertices()]
            assert min(degrees) < DEGREES[kind]
            assert max(degrees) <= DEGREES[kind]

    def test_bad_kind(self):
        with pytest.raises(BadSpecError):
            PatchSpec("rhombic", 3, 3)

    def test_bad_dimensions(self):
        with pytest.raises(BadSpecError):
            PatchSpec("square", 0, 3)

    def test_hexagonal_torus_needs_even_height(self):
        with pytest.raises(IncompatibleTorusError):
            PatchSpec("hexagonal", 6, 5, "torus")

    def test_tiny_torus_rejected(self):
        with pytest.raises(IncompatibleTorusError):
            PatchSpec("square", 2, 2, "torus")

    def test_bad_wrap(self):
        with pytest.raises(BadSpecError):
            PatchSpec("square", 3, 3, "bogus")

    @pytest.mark.parametrize("kind", ["square", "triangular"])
    def test_torus_of_height_two_rejected(self, kind):
        with pytest.raises(IncompatibleTorusError):
            PatchSpec(kind, 3, 2, "torus")

    @pytest.mark.parametrize("wrap", ["open", "torus"])
    @pytest.mark.parametrize("kind", sorted(DEGREES))
    def test_edges_match_the_module_docstring(self, kind, wrap):
        torus = wrap == "torus"
        for w in range(1, 9):
            for h in range(1, 9):
                try:
                    spec = PatchSpec(kind, w, h, wrap)
                except IncompatibleTorusError:
                    continue
                g = generate_patch(spec).graph
                assert g.order == w * h and g.external_ids == tuple(range(w * h))
                edges = [frozenset(e) for e in g.edges()]
                assert set(edges) == _edges_by_definition(kind, w, h, torus), (w, h)

    def test_coordinates_roundtrip(self):
        patch = generate_patch(PatchSpec("square", 5, 4, "open"))
        for v in patch.graph.vertices():
            x, y = patch.coords(v)
            assert patch.vertex_id(x, y) == v


class TestPatterns:
    @pytest.mark.parametrize("kind", sorted(TARGETS))
    def test_builtin_pattern_density(self, kind):
        pattern = find_pattern(kind)
        assert pattern.declared_density == TARGETS[kind]
        assert pattern.declared_density == density_lower_bound(DEGREES[kind])

    def test_declared_density_counts_realized_residues_only(self):
        # coefficients 2, 2 mod 6 never reach residues 1, 3 and 5
        pattern = TilingPattern("hexagonal", 2, 2, (0, 0, 1, 2, 2, 0))
        assert pattern.declared_density == 1
        assert verify_pattern(pattern, [(6, 6)])[0].density == 1
        rows = [line.split() for line in pattern_table(pattern).splitlines()]
        assert Fraction(sum(int(lab) for _, _, lab in rows), len(rows)) == 1

    def test_quoted_row_patterns_kept(self):
        assert find_pattern("hexagonal").labels == (0, 0, 0, 2, 2, 0)
        assert find_pattern("triangular").labels == (0, 0, 0, 0, 2, 0, 0, 0, 2)

    @pytest.mark.parametrize("kind,fields", [
        ("square", (1, 2, (2, 0, 0, 2, 0, 0, 0))),
        ("hexagonal", (2, 2, (0, 0, 0, 2, 2, 0))),
        ("triangular", (1, 1, (0, 0, 0, 0, 2, 0, 0, 0, 2))),
    ])
    def test_builtin_patterns_pinned(self, kind, fields):
        assert find_pattern(kind) == TilingPattern(kind, *fields)

    @pytest.mark.parametrize("kind,fields", [
        ("square", (1, 2, (2, 2, 0, 0, 0, 0, 0))),  # right density, invalid
        ("hexagonal", (2, 2, (0, 0, 1, 2, 2, 0))),  # valid, too dense
    ])
    def test_broken_builtin_pattern_rejected(self, monkeypatch, kind, fields):
        monkeypatch.setitem(tilings._PATTERNS, kind, fields)
        with pytest.raises(BadSpecError):
            find_pattern(kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadSpecError):
            find_pattern("rhombic")

    def test_square_block_weight(self):
        labels = find_pattern("square").labels
        assert len(labels) == 7 and sum(labels) == 4

    @pytest.mark.parametrize("kind", sorted(TARGETS))
    def test_pattern_valid_on_one_and_two_periods(self, kind):
        w, h = MIN_TORUS[kind]
        reports = verify_pattern(find_pattern(kind), [(w, h), (2 * w, 2 * h)])
        for report in reports:
            assert report.valid
            assert report.density == TARGETS[kind]

    def test_label_outside_the_label_set_rejected(self):
        with pytest.raises(BadSpecError):
            TilingPattern("square", 1, 1, (0, 3))

    def test_all_one_pattern_valid_everywhere(self):
        ones = TilingPattern("square", 1, 1, (1,))
        report = verify_pattern(ones, [(5, 5)])[0]
        assert report.valid and report.density == 1

    def test_labeling_matches_declared_density(self):
        for kind in TARGETS:
            w, h = MIN_TORUS[kind]
            patch = generate_patch(PatchSpec(kind, w, h, "torus"))
            labeling = pattern_labeling(find_pattern(kind), patch)
            assert Fraction(labeling.weight, patch.graph.order) == TARGETS[kind]
            assert validate(labeling, 2).valid

    def test_incompatible_torus_rejected(self):
        patch = generate_patch(PatchSpec("square", 6, 6, "torus"))
        with pytest.raises(IncompatibleTorusError):
            pattern_labeling(find_pattern("square"), patch)

    def test_open_patch_rejected(self):
        patch = generate_patch(PatchSpec("square", 7, 7, "open"))
        with pytest.raises(IncompatibleTorusError):
            pattern_labeling(find_pattern("square"), patch)

    def test_wrong_kind_rejected(self):
        patch = generate_patch(PatchSpec("square", 7, 7, "torus"))
        with pytest.raises(BadSpecError):
            pattern_labeling(find_pattern("hexagonal"), patch)

    def test_pattern_table_shape(self):
        for kind in TARGETS:
            pattern = find_pattern(kind)
            m = len(pattern.labels)
            realized = {(pattern.x_coeff * dx + pattern.y_coeff * dy) % m
                        for dx in range(m) for dy in range(m)}
            lines = pattern_table(pattern).strip().splitlines()
            assert len(lines) == len(realized)
            seen_labels = []
            for line in lines:
                dx, dy, lab = line.split()
                assert pattern.label_at(int(dx), int(dy)) == int(lab)
                seen_labels.append(int(lab))
            # realized classes tile a compatible torus uniformly
            assert Fraction(sum(seen_labels), len(lines)) == TARGETS[kind]


class TestBallDensities:
    def test_path_sequence(self):
        values = dict(ball_density_sequence("path", [2, 7, 12, 22]))
        assert all(v == Fraction(4, 5) for v in values.values())

    def test_path_radius_three(self):
        (radius, value), = ball_density_sequence("path", [3])
        assert value == Fraction(6, 7)
        # the closed form matches the solver on the same path
        from tworoman import FamilySpec, generate
        assert gamma_bruteforce(generate(FamilySpec("path", (7,)))).gamma == 6

    def test_path_convergence(self):
        for radius, value in ball_density_sequence("path", range(1, 26)):
            assert abs(value - Fraction(4, 5)) <= Fraction(1, 2 * radius + 1)

    def test_square_radius_one_is_star(self):
        g = ball_graph("square", 1)
        assert g.order == 5
        assert sorted(g.degree(v) for v in g.vertices()) == [1, 1, 1, 1, 4]
        (radius, value), = ball_density_sequence("square", [1])
        assert value == 1

    def test_square_radius_two_exact(self):
        g = ball_graph("square", 2)
        assert g.order == 13
        (radius, value), = ball_density_sequence("square", [2])
        assert value == Fraction(gamma_bruteforce(g).gamma, 13)

    def test_square_radius_three_exact(self):
        assert ball_density_sequence("square", [3]) == [(3, Fraction(17, 25))]

    def test_bounds_bracket(self):
        for kind in TARGETS:
            for radius, lower, upper in ball_density_bounds(kind, [1, 2, 3]):
                assert lower <= upper <= 1
        (radius, lower, upper), = ball_density_bounds("square", [2])
        (_, exact), = ball_density_sequence("square", [2])
        assert lower <= exact <= upper

    def test_radius_zero_bounds_are_exact(self):
        # A single vertex has density 1, so both bounds must equal it.
        for kind in TARGETS:
            (_, exact), = ball_density_sequence(kind, [0])
            assert ball_density_bounds(kind, [0]) == [(0, exact, exact)] == [(0, 1, 1)]

    def test_bounds_lower_matches_ball_degree(self):
        (radius, lower, _), = ball_density_bounds("square", [4])
        assert lower == Fraction(4, max_degree(ball_graph("square", 4)) + 3)

    def test_bad_kind(self):
        with pytest.raises(BadSpecError):
            ball_density_sequence("cubic", [1])

    @pytest.mark.parametrize("call", [
        lambda: ball_graph("square", -1),
        lambda: ball_density_sequence("square", [1, -1]),
        lambda: ball_density_sequence("path", [1, -1]),
        lambda: ball_density_bounds("hexagonal", [1, -1]),
    ], ids=["ball_graph", "sequence_lattice", "sequence_path", "bounds"])
    def test_negative_radius(self, call):
        with pytest.raises(BadSpecError, match="radius must be >= 0"):
            call()

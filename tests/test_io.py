import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworoman import (DuplicateVertexError, FamilySpec, Labeling, MixedLabelsError,
                      ParseError, PatchSpec, UnknownNeighborError, build_graph,
                      find_pattern, generate, generate_patch, parse_graph_file,
                      pattern_labeling, structured_document, to_dot, write_graph_file)


class TestParse:
    def test_labeled_star(self):
        parsed = parse_graph_file("0;2;1,2\n1;0;0\n2;0;0")
        g = parsed.graph
        assert g.order == 3 and g.edge_count() == 2
        assert parsed.labeling.labels == (2, 0, 0)
        assert parsed.warnings == ()

    def test_unlabeled(self):
        parsed = parse_graph_file("0;-1;1\n1;-1;0")
        assert parsed.graph.edge_count() == 1
        assert parsed.labeling is None

    def test_label_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph_file("0;3;1\n1;0;0")

    def test_mixed_labels(self):
        with pytest.raises(MixedLabelsError):
            parse_graph_file("0;-1;1\n1;2;0")

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertexError):
            parse_graph_file("0;1;\n0;1;")

    def test_unknown_neighbor(self):
        with pytest.raises(UnknownNeighborError):
            parse_graph_file("0;1;7")

    def test_self_mention(self):
        with pytest.raises(ParseError):
            parse_graph_file("0;1;0")

    def test_malformed_line(self):
        with pytest.raises(ParseError) as err:
            parse_graph_file("0;1;\nnot a record")
        assert err.value.line_no == 2

    def test_comments_blanks_and_spaces(self):
        parsed = parse_graph_file("# a comment\n\n 0 ; 1 ; \n1;2; 0 \n")
        assert parsed.graph.order == 2
        assert parsed.labeling.labels == (1, 2)

    def test_empty_adjacency_field(self):
        parsed = parse_graph_file("0;1;\n1;1;")
        assert parsed.graph.edge_count() == 0

    def test_empty_file(self):
        parsed = parse_graph_file("")
        assert parsed.graph.order == 0 and parsed.labeling is None

    def test_external_ids_in_first_appearance_order(self):
        parsed = parse_graph_file("5;-1;3\n3;-1;5\n9;-1;")
        assert parsed.graph.external_ids == (5, 3, 9)
        assert parsed.graph.has_edge(0, 1)

    def test_one_sided_mentions_symmetrized_with_warnings(self):
        parsed = parse_graph_file("0;-1;1,2\n1;-1;\n2;-1;0\n")
        assert parsed.graph.has_edge(0, 1)
        assert parsed.graph.has_edge(0, 2)
        assert len(parsed.warnings) == 1  # only 0->1 is one-sided

    def test_two_one_sided_mentions(self):
        parsed = parse_graph_file("0;-1;1\n1;-1;2\n2;-1;")
        assert len(parsed.warnings) == 2
        assert parsed.graph.edge_count() == 2


class TestParseContract:
    """Exact error and warning texts, including which error a file raises
    first when it holds several."""

    @pytest.mark.parametrize("text, error, message", [
        ("0;-1;1\n1;-1;0,x\n", ParseError, "line 2: bad neighbor id: 'x'"),
        ("0;-1;1\n1;-1;0,-3\n", ParseError, "line 2: neighbor id must be >= 0: -3"),
        ("0;-1;-2,x\n", ParseError, "line 1: neighbor id must be >= 0: -2"),
        ("0;-1;x,-2\n", ParseError, "line 1: bad neighbor id: 'x'"),
        ("0;-1;1, ,2\n1;-1;0\n2;-1;0\n", ParseError, "line 1: bad neighbor id: ''"),
        ("0;-1;1,,2\n1;-1;0\n2;-1;0\n", ParseError, "line 1: bad neighbor id: ''"),
        ("x;-1;\n", ParseError, "line 1: bad vertex id: 'x'"),
        ("-1;x;\n", ParseError, "line 1: vertex id must be >= 0: -1"),
        ("0;x;\n", ParseError, "line 1: bad label: 'x'"),
        ("0;1\n", ParseError, "line 1: expected 'id;label;adjacencies', got '0;1'"),
        ("0;-1;1;\n", ParseError,
         "line 1: expected 'id;label;adjacencies', got '0;-1;1;'"),
        # fields are read in the order id, label, neighbors
        ("0;5;x\n", ParseError, "line 1: label out of range: 5"),
        ("x;5;1\n", ParseError, "line 1: bad vertex id: 'x'"),
        ("0;-1;1,x,-2\n1;-1;0\n", ParseError, "line 1: bad neighbor id: 'x'"),
        # a self-mention before an unknown id on one line, and the reverse
        ("0;-1;1\n1;-1;0,1,7\n", ParseError, "line 2: vertex 1 lists itself as a neighbor"),
        ("0;-1;1\n1;-1;7,1\n", UnknownNeighborError, "unknown neighbor id: 7"),
        # mentions are checked in file order, after every line has parsed
        ("0;-1;9\n1;-1;1\n", UnknownNeighborError, "unknown neighbor id: 9"),
        ("0;-1;9,0\n", UnknownNeighborError, "unknown neighbor id: 9"),
        ("0;-1;9\n1;-1;x\n", ParseError, "line 2: bad neighbor id: 'x'"),
        ("0;-1;\n0;-1;x\n", ParseError, "line 2: bad neighbor id: 'x'"),
        ("0;-1;\n0;-1;1\n", DuplicateVertexError, "duplicate vertex record: 0"),
    ])
    def test_error_text(self, text, error, message):
        with pytest.raises(error) as err:
            parse_graph_file(text)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_whitespace_inside_tokens(self):
        parsed = parse_graph_file("0;-1; 1 , 2 \n1;-1;0\n2;-1; 0\n")
        assert list(parsed.graph.edges()) == [(0, 1), (0, 2)]
        assert parsed.warnings == ()

    def test_repeated_mention_is_one_edge(self):
        parsed = parse_graph_file("0;-1;1,1\n1;-1;0\n")
        assert parsed.graph.edge_count() == 1 and parsed.warnings == ()

    def test_two_one_sided_mentions_warning_text(self):
        parsed = parse_graph_file("0;-1;1\n1;-1;2\n2;-1;\n")
        assert parsed.warnings == (
            "vertex 0 lists 1 but not vice versa; edge kept",
            "vertex 1 lists 2 but not vice versa; edge kept",
        )

    def test_one_sided_warnings_follow_record_order(self):
        parsed = parse_graph_file("7;-1;3,5\n3;-1;\n5;-1;3\n")
        assert parsed.warnings == (
            "vertex 7 lists 3 but not vice versa; edge kept",
            "vertex 7 lists 5 but not vice versa; edge kept",
            "vertex 5 lists 3 but not vice versa; edge kept",
        )
        assert write_graph_file(parsed.graph) == "3;-1;5,7\n5;-1;3,7\n7;-1;3,5\n"


def _pattern_torus(kind, width, height):
    patch = generate_patch(PatchSpec(kind, width, height, "torus"))
    return patch.graph, pattern_labeling(find_pattern(kind), patch)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedBytes:
    """Output bytes of large pattern-labeled tori, pinned before the graph
    store moved from bitmasks to neighbor tuples."""

    @pytest.mark.parametrize("kind, width, height, write_sha, dot_sha", [
        ("triangular", 36, 36,
         "37427ac9566cccb8a23572a06e801caaaf37a1bdcbe85b42dadd97288ae88309",
         "a6c0f23f472332e4c7ab9a8a8de70e631d994f69e856a0240783e018907bd76b"),
        ("square", 42, 42,
         "ff507b8f01dd2ba658683abdb5e7ff1f5ee0fda6f1e63bf03eb112394281631c",
         "fc4993ae5aa710a6bdc62721ef2a7f0fef12a27a39ed6495612052c7bfcd6c79"),
    ])
    def test_pattern_torus(self, kind, width, height, write_sha, dot_sha):
        g, lab = _pattern_torus(kind, width, height)
        text = write_graph_file(g, lab)
        assert _sha(text) == write_sha
        assert _sha(to_dot(g, lab)) == dot_sha
        parsed = parse_graph_file(text)
        assert parsed.graph == g and parsed.labeling.labels == lab.labels

    def test_shuffled_external_ids(self):
        # external ids out of internal order take the sorting path
        g, lab = _pattern_torus("square", 14, 14)
        ext = list(range(g.order))
        random.Random(15).shuffle(ext)
        shuffled = build_graph(g.order, list(g.edges()), external_ids=ext)
        lab = Labeling(shuffled, lab.labels)
        assert _sha(write_graph_file(shuffled, lab)) == (
            "5013646c82c948dd6cb76b1fdd3cffd50ce546ea82fce8c10a71d49c6e49526c")
        assert _sha(to_dot(shuffled, lab)) == (
            "dfbcc9e5312999992f8e8ce7ebe998daa52f1631f8ecece4e5e70ee090384e3f")


class TestWrite:
    def test_canonical_form(self):
        g = build_graph(3, [(0, 1), (0, 2)], external_ids=[2, 0, 1])
        text = write_graph_file(g)
        assert text == "0;-1;2\n1;-1;2\n2;-1;0,1\n"

    def test_roundtrip_fixture_files(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.txt")):
            text = path.read_text()
            parsed = parse_graph_file(text)
            assert write_graph_file(parsed.graph, parsed.labeling) == text, path.name

    def test_empty_graph(self):
        assert write_graph_file(build_graph(0, [])) == ""

    def test_structured_reports_partition(self):
        g = generate(FamilySpec("complete", (6,)))
        lab = Labeling(g, (2, 0, 2, 0, 0, 0))
        doc = structured_document(g, lab)
        assert doc["weight"] == 4
        assert doc["partition_sizes"] == {"v0": 4, "v1": 0, "v2": 2}
        assert doc["order"] == 6
        assert doc["public_count"] == 4 and doc["epn_count"] == 0

    def test_dot_output(self):
        g = build_graph(2, [(0, 1)])
        dot = to_dot(g, Labeling(g, (2, 0)))
        assert dot.startswith("graph G {")
        assert '"0" -- "1";' in dot
        assert '"0" [label="0:2"' in dot


@st.composite
def labeled_graph(draw, max_order=9):
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [p for p, keep in zip(pairs, picks) if keep])
    labels = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return g, Labeling(g, labels)


@given(labeled_graph())
@settings(max_examples=80, deadline=None)
def test_write_parse_roundtrip(case):
    g, lab = case
    text = write_graph_file(g, lab)
    parsed = parse_graph_file(text)
    assert parsed.graph == g
    assert parsed.labeling.labels == lab.labels
    assert write_graph_file(parsed.graph, parsed.labeling) == text

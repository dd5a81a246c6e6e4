"""Graph file format, structured output, and DOT export.

Record grammar, one vertex per line::

    <vertex id>;<label>;<neighbor,neighbor,...>

Labels are -1 (unlabeled), 0, 1 or 2; a file must be uniformly labeled or
uniformly unlabeled.  The adjacency field may be empty.  Blank lines and
lines starting with ``#`` are ignored.  One-sided adjacency mentions are
symmetrized with a warning.

Parsing is one pass: each record is read with ``split`` and ``int``, all
mentions are mapped to internal ids at once, and the graph is symmetrized
once.  A bad record or mention is read again only to name the first fault.
"""

from __future__ import annotations

from collections.abc import Callable

from ._record import record
from .errors import (DuplicateVertexError, MixedLabelsError, ParseError,
                     UnknownNeighborError)
from .graph import Graph
from .labeling import LABELS, Labeling, _zeros_by_two_count

_VALID_LABELS = (-1, *LABELS)


@record
class ParseResult:
    graph: Graph
    labeling: Labeling | None
    warnings: tuple[str, ...]


def _parse_int(token: str, line_no: int, what: str) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"bad {what}: {token!r}") from None


def _parse_record(line: str, line_no: int) -> tuple[int, int, list[int]]:
    """(id, label, neighbor ids) of one record.

    A well-formed record is read with ``split`` and ``int`` alone.  Any other
    record is read again field by field, id, then label, then neighbors, to
    name the first bad field or token; ``int`` skips the same surrounding
    whitespace as ``str.strip``, so both reads agree on every token.
    """
    fields = line.split(";")
    try:
        f_id, f_label, f_adj = fields
        ext, label = int(f_id), int(f_label)
        neighbors = list(map(int, f_adj.split(","))) if f_adj else []
        if ext >= 0 and label in _VALID_LABELS and not (neighbors and min(neighbors) < 0):
            return ext, label, neighbors
    except ValueError:
        pass
    if len(fields) != 3:
        raise ParseError(line_no, f"expected 'id;label;adjacencies', got {line!r}")
    ext = _parse_int(fields[0], line_no, "vertex id")
    if ext < 0:
        raise ParseError(line_no, f"vertex id must be >= 0: {ext}")
    label = _parse_int(fields[1], line_no, "label")
    if label not in _VALID_LABELS:
        raise ParseError(line_no, f"label out of range: {label}")
    # Only the neighbor field is left to fail: a token that is no integer
    # raises in ``_parse_int``, else the first negative one is named.
    for token in fields[2].split(","):
        nb = _parse_int(token, line_no, "neighbor id")
        if nb < 0:
            break
    raise ParseError(line_no, f"neighbor id must be >= 0: {nb}")


def _raise_first_bad_mention(ids: tuple[int, ...], records: list[tuple[list[int], int]],
                             index: dict[int, int]):
    """Raise for the first self-mention or unknown id, in file order; called
    only when the records hold one."""
    for ext, (neighbors, line_no) in zip(ids, records):
        for nb in neighbors:
            if nb == ext:
                raise ParseError(line_no, f"vertex {ext} lists itself as a neighbor")
            if nb not in index:
                raise UnknownNeighborError(nb)


def parse_graph_file(text: str) -> ParseResult:
    index = {}  # external id -> internal id, in file order
    labels = []
    records = []  # ([neighbor ids], line_no) in file order
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        ext, label, neighbors = _parse_record(line, line_no)
        if ext in index:
            raise DuplicateVertexError(ext)
        index[ext] = len(records)
        labels.append(label)
        records.append((neighbors, line_no))

    # Internal ids each record lists, in one pass; an unknown id or a
    # self-mention is looked up again only to name the first one.
    ids = tuple(index)
    try:
        listed = [{index[nb] for nb in neighbors} for neighbors, _ in records]
    except KeyError:
        listed = None
    if listed is None or any(i in row for i, row in enumerate(listed)):
        _raise_first_bad_mention(ids, records, index)

    # Symmetrize: each one-sided mention u -> v adds v -> u with a warning,
    # in the order (u, then v) of the records.
    one_sided = sorted((u, v) for u, row in enumerate(listed)
                       for v in row if u not in listed[v])
    warnings = []
    for u, v in one_sided:
        listed[v].add(u)
        warnings.append(f"vertex {ids[u]} lists {ids[v]} but not vice versa; edge kept")

    graph = Graph._from_neighbors(tuple(tuple(sorted(row)) for row in listed), ids)
    labeling = None
    if -1 in labels:
        if any(lab != -1 for lab in labels):
            raise MixedLabelsError("file mixes -1 with concrete labels")
    elif labels:
        labeling = Labeling(graph, tuple(labels))
    return ParseResult(graph, labeling, tuple(warnings))


def _id_order(ext: tuple[int, ...]) -> Callable[[int], int] | None:
    """Sort key putting internal ids in external-id order, or None when the
    external ids already increase with the internal ones."""
    return None if all(a < b for a, b in zip(ext, ext[1:])) else ext.__getitem__


def write_graph_file(graph: Graph, labeling: Labeling | None = None) -> str:
    """Canonical text form: records sorted by external id, sorted adjacency."""
    ext = graph.external_ids
    key = _id_order(ext)
    names = list(map(str, ext))
    labels = labeling.labels if labeling is not None else (-1,) * graph.order
    neighbors = graph.neighbor_tuples()
    lines = []
    for v in sorted(range(graph.order), key=key):
        nbrs = neighbors[v] if key is None else sorted(neighbors[v], key=key)
        lines.append(f"{names[v]};{labels[v]};{','.join([names[u] for u in nbrs])}")
    return "\n".join(lines) + ("\n" if lines else "")


def structured_document(graph: Graph, labeling: Labeling | None) -> dict:
    """Machine-readable summary of a (possibly labeled) graph.

    The 0s are classified by their 2-neighbors once, for both the
    ``epn_count`` and the ``public_count``.
    """
    doc = {
        "order": graph.order,
        "edge_count": graph.edge_count(),
    }
    if labeling is not None:
        labels = labeling.labels
        _, epn, public = _zeros_by_two_count(labeling)
        doc.update({
            "weight": labeling.weight,
            "labels": {str(ext): lab for ext, lab in zip(graph.external_ids, labels)},
            "partition_sizes": {"v0": labels.count(0), "v1": labels.count(1),
                                "v2": labels.count(2)},
            "epn_count": len(epn),
            "public_count": len(public),
        })
    return doc


_FILL = {0: "#ffffff", 1: "#bdbdbd", 2: "#4a4a4a", None: "#e8e8e8"}


def to_dot(graph: Graph, labeling: Labeling | None = None) -> str:
    ext = graph.external_ids
    lines = ["graph G {", "  node [style=filled];"]
    for v in sorted(range(graph.order), key=ext.__getitem__):
        lab = labeling.labels[v] if labeling is not None else None
        text = f"{ext[v]}" if lab is None else f"{ext[v]}:{lab}"
        font = ' fontcolor="#ffffff"' if lab == 2 else ""
        lines.append(f'  "{ext[v]}" [label="{text}" fillcolor="{_FILL[lab]}"{font}];')
    for u, v in graph.edges():
        a, b = ext[u], ext[v]
        lines.append(f'  "{a}" -- "{b}";' if a < b else f'  "{b}" -- "{a}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

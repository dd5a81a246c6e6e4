"""Labelings over {0,1,2}, label-class partitions, and n-attack validation.

A labeling is valid for attack number n when every set S of j <= n vertices
labeled 0 has at least j vertices labeled 2 in its open neighborhood.  For
n=1 this is the classical Roman domination condition; for n=2 there is a
linear-time characterization (see ``validate``), and for larger n we fall
back to subset enumeration, over the 0s that Hall's condition leaves.
Validation, ``epn_set`` and ``public_set`` only ask which neighbors of each
0 are labeled 2, so they read the graph's sorted neighbor tuples.  Labels are
held as a tuple of ints, never as masks: only the reference
``validate_by_enumeration`` packs bits, one mask of 2-neighbors per 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from ._record import record
from .graph import Graph, mask_of

LABELS = (0, 1, 2)


@record
class Labeling:
    """Total assignment of {0,1,2} to the vertices of one graph."""

    graph: Graph
    labels: tuple[int, ...]

    def __post_init__(self):
        # A list from the caller would make the record unhashable and unequal
        # to the same labels given as a tuple.
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.graph.order:
            raise ValueError(
                f"labeling has {len(self.labels)} entries for order {self.graph.order}")
        for lab in self.labels:
            if lab not in LABELS:
                raise ValueError(f"label out of range: {lab}")

    @property
    def weight(self) -> int:
        return sum(self.labels)


@record
class ValidationReport:
    """Outcome of an n-attack check; carries a re-checkable witness on failure."""

    valid: bool
    attack_n: int
    witness: tuple[int, ...] | None = None


def partition(labeling: Labeling) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Split the vertex set into (V0, V1, V2) by label."""
    parts = ([], [], [])
    for v, lab in enumerate(labeling.labels):
        parts[lab].append(v)
    return tuple(frozenset(p) for p in parts)


def _zeros_by_two_count(labeling: Labeling) -> tuple[list[int], list[int], list[int]]:
    """The 0s in id order, split by their number of 2-neighbors: none, one,
    two or more."""
    labels = labeling.labels
    nbrs = labeling.graph.neighbor_tuples()
    out = ([], [], [])
    for v, lab in enumerate(labels):
        if lab == 0:
            c = 0
            for u in nbrs[v]:
                if labels[u] == 2:
                    c += 1
            out[c if c < 2 else 2].append(v)
    return out


def epn_set(labeling: Labeling) -> frozenset[int]:
    """Vertices labeled 0 adjacent to exactly one vertex labeled 2."""
    return frozenset(_zeros_by_two_count(labeling)[1])


def public_set(labeling: Labeling) -> frozenset[int]:
    """Vertices labeled 0 adjacent to two or more vertices labeled 2."""
    return frozenset(_zeros_by_two_count(labeling)[2])


def first_violation(nbrs: Sequence[Sequence[int]], labels,
                    attack_n: int) -> tuple[int, ...] | None:
    """First set of 0-vertices that breaks the ``attack_n`` condition, or None.

    ``nbrs`` holds the sorted neighbor ids of each vertex and ``labels`` the
    label vector.  Sets are ordered by size, then lexicographically, as
    subset enumeration would visit them.  One pass over the 0s collects the
    2-neighbors of each, and settles sizes 1 and 2: a 0 with no 2-neighbor,
    then the first pair of 0s sharing one unique 2-neighbor (the only way two
    0s that each have a 2-neighbor can see fewer than two 2s).  Scanning the
    0s in id order, a pair is kept when its first member is smaller than the
    kept one's, so the kept pair is lexicographically first.  Sizes j >= 3
    enumerate the j-subsets of the 0s with fewer than j 2-neighbors (Hall's
    condition), each 0 carrying a mask of the 2s it sees.  A set of 0s holds
    no 2, so the 2s its members see are just the union of those masks; the
    2s are numbered densely in order of first sight, so each mask is as long
    as the number of 2s the candidates see, not as the highest vertex id.
    """
    use_pairs = attack_n >= 2
    zeros = []
    seen = []
    first: dict[int, int] = {}
    pair = None
    for v, lab in enumerate(labels):
        if lab:
            continue
        t = []  # a plain loop: a comprehension's frame costs more per 0
        for u in nbrs[v]:
            if labels[u] == 2:
                t.append(u)
        if not t:
            return (v,)
        if use_pairs and len(t) == 1:
            u = first.setdefault(t[0], v)
            if u != v and (pair is None or u < pair[0]):
                pair = (u, v)
        zeros.append(v)
        seen.append(t)
    if pair is not None:
        return pair
    if attack_n < 3:
        return None
    # Hall filter: a j-set of 0s that sees fewer than j 2s has no member that
    # sees j or more, so only 0s with fewer than j 2-neighbors can be in one.
    # The filtered subsets keep their lexicographic order.
    rank: dict[int, int] = {}
    masks = {}
    for v, t in zip(zeros, seen):
        if len(t) < attack_n:
            m = 0
            for u in t:
                m |= 1 << rank.setdefault(u, len(rank))
            masks[v] = m
    for j in range(3, attack_n + 1):
        short = [v for v, t in zip(zeros, seen) if len(t) < j]
        hit = _first_violation_of_size(masks, short, j)
        if hit is not None:
            return hit
    return None


def validate(labeling: Labeling, attack_n: int = 2) -> ValidationReport:
    """Check the n-attack condition; report the first violating subset if any.

    The n=2 check uses the pair-grouping characterization: the labeling is
    valid iff every 0 has a 2-neighbor and no vertex labeled 2 is the unique
    2-neighbor of two different 0-vertices.  Witnesses match the ones subset
    enumeration would return (subsets ordered by size, then lexicographically).
    """
    if attack_n < 1:
        raise ValueError("attack_n must be >= 1")
    witness = first_violation(labeling.graph.neighbor_tuples(), labeling.labels, attack_n)
    return ValidationReport(witness is None, attack_n, witness)


def _first_violation_of_size(seen, zeros, j) -> tuple[int, ...] | None:
    """First j-subset of ``zeros``, in lex order, whose members see fewer
    than j 2s between them; ``seen[v]`` is the mask of the 2s that v sees."""
    for subset in combinations(zeros, j):
        m = 0
        for v in subset:
            m |= seen[v]
        if m.bit_count() < j:
            return subset
    return None


def validate_by_enumeration(labeling: Labeling, attack_n: int = 2) -> ValidationReport:
    """Subset-enumeration form of ``validate``; the reference the fast path
    must agree with."""
    if attack_n < 1:
        raise ValueError("attack_n must be >= 1")
    nbrs = labeling.graph.neighbor_tuples()
    labels = labeling.labels
    zeros = [v for v, lab in enumerate(labels) if lab == 0]
    seen = {v: mask_of(u for u in nbrs[v] if labels[u] == 2) for v in zeros}
    for j in range(1, attack_n + 1):
        hit = _first_violation_of_size(seen, zeros, j)
        if hit is not None:
            return ValidationReport(False, attack_n, hit)
    return ValidationReport(True, attack_n)

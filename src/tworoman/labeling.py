"""Labelings over {0,1,2}, label-class partitions, and n-attack validation.

A labeling is valid for attack number n when every set S of j <= n vertices
labeled 0 has at least j vertices labeled 2 in its open neighborhood.  For
n=1 this is the classical Roman domination condition; for n=2 there is a
linear-time characterization (see ``validate``), and for larger n we fall
back to subset enumeration, over the 0s that Hall's condition leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graph import Graph, iter_bits

LABELS = (0, 1, 2)


@dataclass(frozen=True)
class Labeling:
    """Total assignment of {0,1,2} to the vertices of one graph."""

    graph: Graph
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.graph.order:
            raise ValueError(
                f"labeling has {len(self.labels)} entries for order {self.graph.order}")
        for lab in self.labels:
            if lab not in LABELS:
                raise ValueError(f"label out of range: {lab}")

    @property
    def weight(self) -> int:
        return sum(self.labels)

    def label_mask(self, value: int) -> int:
        m = 0
        for v, lab in enumerate(self.labels):
            if lab == value:
                m |= 1 << v
        return m


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an n-attack check; carries a re-checkable witness on failure."""

    valid: bool
    attack_n: int
    witness: tuple[int, ...] | None = None


def weight(labeling: Labeling) -> int:
    return labeling.weight


def partition(labeling: Labeling) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Split the vertex set into (V0, V1, V2) by label."""
    parts = ([], [], [])
    for v, lab in enumerate(labeling.labels):
        parts[lab].append(v)
    return tuple(frozenset(p) for p in parts)


def epn_set(labeling: Labeling) -> frozenset[int]:
    """Vertices labeled 0 adjacent to exactly one vertex labeled 2."""
    two_mask = labeling.label_mask(2)
    out = []
    for v, lab in enumerate(labeling.labels):
        if lab == 0 and (labeling.graph.adjacency_mask(v) & two_mask).bit_count() == 1:
            out.append(v)
    return frozenset(out)


def public_set(labeling: Labeling) -> frozenset[int]:
    """Vertices labeled 0 adjacent to two or more vertices labeled 2."""
    two_mask = labeling.label_mask(2)
    out = []
    for v, lab in enumerate(labeling.labels):
        if lab == 0 and (labeling.graph.adjacency_mask(v) & two_mask).bit_count() >= 2:
            out.append(v)
    return frozenset(out)


def first_violation(adj: Sequence[int], labels, attack_n: int) -> tuple[int, ...] | None:
    """First set of 0-vertices that breaks the ``attack_n`` condition, or None.

    ``adj`` holds the adjacency masks and ``labels`` the label vector.  Sets
    are ordered by size, then lexicographically, as subset enumeration
    would visit them.  Sizes 1 and 2 take one pass over the 0s: a 0 with no
    2-neighbor, then the first pair of 0s sharing one unique 2-neighbor (the
    only way two 0s that each have a 2-neighbor can see fewer than two 2s).
    Scanning the 0s in id order, a pair is kept when its first member is
    smaller than the kept one's, so the kept pair is lexicographically first.
    Sizes j >= 3 enumerate the j-subsets of the 0s with fewer than j
    2-neighbors (Hall's condition).
    """
    two_mask = 0
    zeros = []
    for v, lab in enumerate(labels):
        if lab == 2:
            two_mask |= 1 << v
        elif lab == 0:
            zeros.append(v)
    use_pairs = attack_n >= 2
    first: dict[int, int] = {}
    pair = None
    for v in zeros:
        t = adj[v] & two_mask
        if t == 0:
            return (v,)
        if use_pairs and t & (t - 1) == 0:
            # keyed by the bit's position: hashing t costs its length
            u = first.setdefault(t.bit_length(), v)
            if u != v and (pair is None or u < pair[0]):
                pair = (u, v)
    if pair is not None:
        return pair
    if attack_n < 3:
        return None
    # Hall filter: a j-set of 0s that sees fewer than j 2s has no member that
    # sees j or more, so only 0s with fewer than j 2-neighbors can be in one.
    # The filtered subsets keep their lexicographic order.
    twos = [(adj[v] & two_mask).bit_count() for v in zeros]
    for j in range(3, attack_n + 1):
        short = [v for v, t in zip(zeros, twos) if t < j]
        hit = _first_violation_of_size(adj, short, two_mask, j)
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
    witness = first_violation(labeling.graph.adjacency_masks(), labeling.labels, attack_n)
    return ValidationReport(witness is None, attack_n, witness)


def _first_violation_of_size(adj, zeros, two_mask, j) -> tuple[int, ...] | None:
    for subset in combinations(zeros, j):
        smask = 0
        nmask = 0
        for v in subset:
            smask |= 1 << v
            nmask |= adj[v]
        if (nmask & ~smask & two_mask).bit_count() < j:
            return subset
    return None


def validate_by_enumeration(labeling: Labeling, attack_n: int = 2) -> ValidationReport:
    """Subset-enumeration form of ``validate``; the reference the fast path
    must agree with."""
    if attack_n < 1:
        raise ValueError("attack_n must be >= 1")
    adj = labeling.graph.adjacency_masks()
    two_mask = labeling.label_mask(2)
    zeros = [v for v, lab in enumerate(labeling.labels) if lab == 0]
    for j in range(1, attack_n + 1):
        hit = _first_violation_of_size(adj, zeros, two_mask, j)
        if hit is not None:
            return ValidationReport(False, attack_n, hit)
    return ValidationReport(True, attack_n)

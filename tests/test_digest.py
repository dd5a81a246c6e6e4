"""Golden digest of the solvers' contract outputs over a seeded corpus.

The digest covers gammas, lex-first witnesses, ``all_minimum`` lists and
``feasible_two_counts`` at attacks 1-3 and 2-caps None, 0, 1, 2; the
witnesses and enumerations of both two modes; the packing route's answer
and optimality certificate; and ``validate`` reports at attacks 1-4.  It
leaves out ``stats``, which any change to the search may move.  A change
that claims to keep the outputs must leave the digest as pinned; one that
changes an output on purpose updates the pin and says why.
"""

import hashlib
import json
import random

from helpers import random_graphs
from tworoman import Labeling, SolveOptions, is_optimal, solve, validate

PINNED = "3f1640b1d8eb397abad67af1555ffa8015aa8f9a044ab4fe606d7279d845cf07"


def _corpus():
    return random_graphs(60, seed=7007, orders=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
                         probabilities=(0.25, 0.4, 0.6, 0.85))


def _labels(result):
    enum = result.all_minimum
    return [result.gamma, result.labeling.labels, result.feasible_two_counts,
            None if enum is None else [lab.labels for lab in enum]]


def contract_outputs() -> list:
    out = []
    rng = random.Random(7008)
    for g in _corpus():
        for attack in (1, 2, 3):
            for cap in (None, 0, 1, 2):
                opts = SolveOptions(attack_n=attack, max_twos=cap, method="bruteforce",
                                    enumerate_all=True)
                out.append(_labels(solve(g, opts)))
        for mode in ("minimize_twos", "maximize_twos"):
            out.append(_labels(solve(g, SolveOptions(two_mode=mode, enumerate_all=True))))
        out.append(_labels(solve(g)))
        verdict, cert = is_optimal(g)
        out.append([verdict, None if cert is None else [cert.path, cert.labeling.labels]])
        for _ in range(4):
            lab = Labeling(g, tuple(rng.choice((0, 1, 2)) for _ in range(g.order)))
            for attack in (1, 2, 3, 4):
                report = validate(lab, attack)
                out.append([report.valid, report.witness])
    return out


def digest() -> str:
    return hashlib.sha256(json.dumps(contract_outputs()).encode()).hexdigest()


def test_contract_outputs_digest():
    assert digest() == PINNED

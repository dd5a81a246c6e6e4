"""Digest every exact solve over a seeded corpus, one line per section.

Run it on two checkouts and compare the output: equal lines mean the two
give the same answers, witnesses and work counts on the whole corpus.

    PYTHONPATH=src python tools/solve_dump.py

Each line is ``section solves sha256``.  The branch-and-bound sections hash,
per solve, gamma, the witness, ``stats.nodes``, ``stats.frontier_width``,
the enumerated minimum labelings and the feasible 2-counts:

* ``bb_attack``: attacks 1-4, no cap;
* ``bb_cap``: 2-caps 0-2 at attacks 2 and 3;
* ``bb_two_mode``: fewest and most 2s;
* ``bb_enum``: enumeration at attacks 1-3;
* ``bb_large``: grids 5x7, 6x6 and 4x8 at attack 2, C20 and grid 4x5 at
  attack 3, and G(16-18, 0.2) at attacks 1-3.

``packing`` hashes the paths of ``max_eccd`` and the witness and
``stats.nodes`` of ``gamma_via_eccd``.  The script fails when the two routes
disagree on any uncapped attack-2 gamma.  The corpus is seeded G(n, p)
graphs (``random.Random(seed)`` draws each edge u < v in order) and a few
named families; it takes about 6 s on one core.
"""

from __future__ import annotations

import hashlib
import random

from tworoman import (FamilySpec, SolveOptions, build_graph, gamma_bruteforce,
                      gamma_via_eccd, generate, max_eccd)


def gnp(n: int, p: float, rng: random.Random):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def corpus():
    """(name, graph) pairs: seeded G(n, p) of order 1-11, then families."""
    rng = random.Random(35)
    for n in range(1, 12):
        for p in (0.2, 0.35, 0.5):
            for _ in range(5):
                yield f"gnp{n}", gnp(n, p, rng)
    specs = [("path", (n,)) for n in range(2, 13)] + [("cycle", (n,)) for n in range(3, 15)]
    specs += [("grid", (r, c)) for r in (2, 3) for c in range(2, 6)]
    specs += [("complete", (n,)) for n in range(1, 7)] + [("star", (m,)) for m in (2, 3, 5)]
    specs += [("complete_bipartite", (2, 3)), ("complete_bipartite", (3, 3))]
    for kind, params in specs:
        yield f"{kind}{params}", generate(FamilySpec(kind, params))


def bb_line(result) -> str:
    stats = result.stats
    every = None if result.all_minimum is None else [lab.labels for lab in result.all_minimum]
    return repr((result.gamma, result.labeling.labels, stats.nodes, stats.frontier_width,
                 every, result.feasible_two_counts))


SECTIONS = {
    "bb_attack": [SolveOptions(attack_n=a, method="bruteforce") for a in (1, 2, 3, 4)],
    "bb_cap": [SolveOptions(attack_n=a, max_twos=c, method="bruteforce")
               for a in (2, 3) for c in (0, 1, 2)],
    "bb_two_mode": [SolveOptions(two_mode=m, method="bruteforce")
                    for m in ("minimize_twos", "maximize_twos")],
    "bb_enum": [SolveOptions(attack_n=a, method="bruteforce", enumerate_all=True)
                for a in (1, 2, 3)],
}


def large():
    """(name, graph, options) of the ``bb_large`` section."""
    plain = SolveOptions(method="bruteforce")
    for r, c in ((5, 7), (6, 6), (4, 8)):
        yield f"grid{r}x{c}", generate(FamilySpec("grid", (r, c))), plain
    for kind, params in (("cycle", (20,)), ("grid", (4, 5))):
        yield f"{kind}{params}", generate(FamilySpec(kind, params)), SolveOptions(
            attack_n=3, method="bruteforce")
    for n in (16, 17, 18):
        for seed in (1, 2):
            g = gnp(n, 0.2, random.Random(seed))
            for a in (1, 2, 3):
                yield f"gnp{n}s{seed}", g, SolveOptions(attack_n=a, method="bruteforce")


def main() -> None:
    digests = {name: hashlib.sha256() for name in (*SECTIONS, "bb_large", "packing")}
    counts = dict.fromkeys(digests, 0)

    def add(section, line):
        digests[section].update(f"{line}\n".encode())
        counts[section] += 1

    def bb(section, name, g, opts):
        result = gamma_bruteforce(g, opts)
        add(section, f"{name} {opts!r} {bb_line(result)}")
        return result.gamma

    for name, g in corpus():
        gammas = {opts: bb(section, name, g, opts)
                  for section, runs in SECTIONS.items() for opts in runs}
        gamma = gammas[SolveOptions(method="bruteforce")]
        packed = gamma_via_eccd(g)
        if packed.gamma != gamma:
            raise SystemExit(f"{name} {list(g.edges())}: packing gamma {packed.gamma},"
                             f" branch and bound {gamma}")
        paths = max_eccd(g).paths
        add("packing", f"{name} {(paths, packed.labeling.labels, packed.stats.nodes)!r}")
    for name, g, opts in large():
        bb("bb_large", name, g, opts)
    for section, digest in digests.items():
        print(section, counts[section], digest.hexdigest())


if __name__ == "__main__":
    main()

"""The fixed reference program that normalises the benchmark's times.

Run as a script it executes the loop once and exits; the CLI workload times
it that way, as a process, because its jobs are processes.  It imports
nothing, so it runs the same whatever the program under test does.
"""

import time


def _visit(adj, free):
    if not free:
        return 1
    low = free & -free
    v = low.bit_length() - 1
    rest = free ^ low
    return _visit(adj, rest) + _visit(adj, rest & ~adj[v])


_N = 26
_ADJ = [sum(1 << ((v + d) % _N) for d in (1, 3, -1, -3)) for v in range(_N)]


def reference_loop() -> int:
    """Count the independent sets of a fixed 26-vertex circulant graph.

    Fixed pure-Python work shaped like the solvers' bitmask recursion (about
    12 ms on a 2-core cloud VM).  Never change it: the normalised metrics
    compare across commits only while this loop stays the same.
    """
    return _visit(_ADJ, (1 << _N) - 1)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


if __name__ == "__main__":
    reference_loop()

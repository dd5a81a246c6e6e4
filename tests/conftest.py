import time
from pathlib import Path

import pytest

from helpers import all_connected_graphs, random_graphs, sampled_connected_graphs
from tworoman import SolveOptions, gamma_bruteforce, max_eccd

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def small_corpus():
    """All connected labeled graphs up to order 6 plus sampled order 7."""
    return list(all_connected_graphs(6)) + sampled_connected_graphs(7, 250, seed=701)


@pytest.fixture(scope="session")
def corpus_results(small_corpus):
    """Both solver routes over the exhaustive corpus and the random batch.

    Each small-corpus graph gets one enumerating optimum pass, which gives
    its gamma and ``minima``, the list ``enumerate_minimum_labelings``
    returns for it.
    """
    start = time.perf_counter()
    enum = SolveOptions(method="bruteforce", enumerate_all=True)
    small, minima = [], []
    for g in small_corpus:
        result = gamma_bruteforce(g, enum)
        small.append((g, result.gamma, len(max_eccd(g))))
        minima.append(result.all_minimum)
    batch = random_graphs(200, seed=1202)
    randoms = [(g, gamma_bruteforce(g).gamma, len(max_eccd(g))) for g in batch]
    elapsed = time.perf_counter() - start
    return {"small": small, "minima": minima, "random": randoms, "elapsed": elapsed}

"""Table III — BFS row: GAP reference vs LAGraph, all five graphs.

Regenerates the ``BFS : GAP`` / ``BFS : SS`` rows of the paper's Table III.
Expected shape (paper): LAGraph ≈ 1.5–2× slower than the tuned reference,
except on the high-diameter Road graph where per-iteration overheads
dominate and the gap widens to ≈ 13×.
"""

import pytest

from repro.gap import baselines
from repro.lagraph import algorithms as alg

from conftest import GRAPHS


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.benchmark(group="table3-bfs")
def test_bfs_gap(benchmark, suite, sources, name):
    g = suite[name]
    srcs = sources(g)
    benchmark(lambda: [baselines.bfs_parent(g, int(s)) for s in srcs])


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.benchmark(group="table3-bfs")
def test_bfs_lagraph(benchmark, suite, sources, name):
    g = suite[name]
    srcs = sources(g)
    benchmark(lambda: [alg.bfs_parent_auto(g, int(s)) for s in srcs])

"""Ablation — direction optimisation (Sec. VI-A of the paper).

The paper credits the bitmap pull step for the BFS/BC gains in SS:GrB
v4.0.3.  Here: push-only BFS (Alg. 1) vs direction-optimising BFS
(Alg. 2, ``bfs_parent_auto``) on a skewed graph (pull pays off once the
frontier is heavy) and on the road graph (frontier never gets heavy —
pull rarely triggers, so the gap there is the dense visited/parent
arrays, not the direction switch).
"""

import pytest

from repro.lagraph import algorithms as alg


@pytest.mark.parametrize("name", ["kron", "urand", "road"])
@pytest.mark.benchmark(group="ablation-pushpull")
def test_bfs_push_only(benchmark, suite, sources, name):
    g = suite[name]
    src = int(sources(g)[0])
    benchmark(alg.bfs_parent_push, g, src)


@pytest.mark.parametrize("name", ["kron", "urand", "road"])
@pytest.mark.benchmark(group="ablation-pushpull")
def test_bfs_parent_auto(benchmark, suite, sources, name):
    g = suite[name]
    src = int(sources(g)[0])
    benchmark(alg.bfs_parent_auto, g, src)

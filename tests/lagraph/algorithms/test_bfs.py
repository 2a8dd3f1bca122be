"""Tests for BFS (Algorithms 1 and 2)."""

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import random_graphs
from repro import grb
from repro import lagraph as lg
from repro.gap import baselines, generators, verify


class TestPushOnly:
    def test_diamond(self, small_directed_graph):
        p = lg.bfs_parent_push(small_directed_graph, 0)
        assert p[0] == 0
        assert p[1] == 0 and p[2] == 0
        assert p[3] in (1, 2)   # the benign race: any valid parent

    def test_unreached_nodes_have_no_entry(self):
        A = grb.Matrix.from_coo([0], [1], [True], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        p = lg.bfs_parent_push(g, 0)
        assert p.nvals == 2 and 2 not in p

    def test_isolated_source(self):
        A = grb.Matrix.from_coo([1], [2], [True], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        p = lg.bfs_parent_push(g, 0)
        assert p.nvals == 1 and p[0] == 0

    def test_bad_source(self, small_directed_graph):
        with pytest.raises(grb.IndexOutOfBounds):
            lg.bfs_parent_push(small_directed_graph, 7)

    def test_needs_no_cached_properties(self, small_directed_graph):
        assert small_directed_graph.AT is None
        lg.bfs_parent_push(small_directed_graph, 0)
        assert small_directed_graph.AT is None  # and computes none

    @given(g=random_graphs(directed=True))
    @settings(max_examples=20)
    def test_valid_bfs_tree_on_random_graphs(self, g):
        p = lg.bfs_parent_push(g, 0)
        verify.verify_bfs_parent(g, 0, p)


class TestDirectionOptimizing:
    def test_matches_push(self, small_directed_graph):
        g = small_directed_graph
        assert lg.bfs_parent_auto(g, 0).isequal(lg.bfs_parent_push(g, 0))

    @given(g=random_graphs(directed=True))
    @settings(max_examples=20)
    def test_valid_tree_on_random_graphs(self, g):
        g.cache_at()
        g.cache_row_degree()
        p = lg.bfs_parent_auto(g, 0)
        verify.verify_bfs_parent(g, 0, p)
        assert p.isequal(lg.bfs_parent_push(g, 0))

    @given(g=random_graphs(directed=False))
    @settings(max_examples=15)
    def test_undirected(self, g):
        g.cache_at()
        g.cache_row_degree()
        p = lg.bfs_parent_auto(g, 0)
        verify.verify_bfs_parent(g, 0, p)
        assert p.isequal(lg.bfs_parent_push(g, 0))


class TestLevelBFS:
    def test_diamond_levels(self, small_directed_graph):
        lv = lg.bfs_level(small_directed_graph, 0)
        assert lv[0] == 0 and lv[1] == 1 and lv[2] == 1 and lv[3] == 2

    @given(g=random_graphs(directed=True))
    @settings(max_examples=20)
    def test_matches_reference(self, g):
        lv = lg.bfs_level(g, 0)
        verify.verify_bfs_level(g, 0, lv)


class TestBasicMode:
    def test_returns_requested_outputs(self, small_directed_graph):
        p, lv = lg.bfs(small_directed_graph, 0, parent=True, level=True)
        assert p is not None and lv is not None
        p2, lv2 = lg.bfs(small_directed_graph, 0, parent=False, level=True)
        assert p2 is None and lv2 is not None

    def test_basic_mode_caches_properties(self, small_directed_graph):
        g = small_directed_graph
        lg.bfs(g, 0)
        assert g.AT is not None and g.row_degree is not None

    def test_level_only_does_not_cache(self, small_directed_graph):
        g = small_directed_graph
        lg.bfs(g, 0, parent=False, level=True)
        assert g.AT is None and g.row_degree is None

    def test_parent_matches_baseline_reached_set(self, rng):
        from helpers import random_graph_np
        g = random_graph_np(rng, n=50, p=0.08)
        p, _ = lg.bfs(g, 3)
        ref = baselines.bfs_parent(g, 3)
        np.testing.assert_array_equal(p.indices, np.flatnonzero(ref >= 0))


def _graph(n, rows, cols, directed=True):
    A = grb.Matrix.from_coo(rows, cols, np.ones(len(rows), dtype=np.bool_),
                            n, n, dup_op=grb.binary.LOR)
    return lg.Graph(A, lg.ADJACENCY_DIRECTED if directed
                    else lg.ADJACENCY_UNDIRECTED)


def _undirected(n, rows, cols):
    rows, cols = np.asarray(rows), np.asarray(cols)
    return _graph(n, np.concatenate((rows, cols)),
                  np.concatenate((cols, rows)), directed=False)


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    child = np.arange(1, n)
    return _undirected(n, [int(rng.integers(0, c)) for c in child], child)


#: (graph builder, source): the sparse shapes (average degree < 4) and
#: corner cases Basic ``bfs()`` must handle with the one parent path
_SHAPES = {
    "path": (lambda: _undirected(300, np.arange(299), np.arange(1, 300)),
             0),
    "star": (lambda: _undirected(50, np.zeros(49, int), np.arange(1, 50)),
             7),
    "random_tree": (lambda: _random_tree(500, 3), 0),
    "road_no_diagonals": (lambda: generators.road(
        side=12, weighted=False, diag_fraction=0.0), 0),
    "single_node": (lambda: _graph(1, [], []), 0),
    "single_node_self_loop": (lambda: _graph(1, [0], [0]), 0),
    "source_without_out_edges": (lambda: _graph(4, [0, 1], [1, 2]), 3),
    "self_loops": (lambda: _graph(5, [0, 0, 1, 1, 2, 3], [0, 1, 1, 2, 3, 3]),
                   0),
    "directed_asymmetric": (
        lambda: _graph(6, [0, 2, 2, 3, 5], [2, 1, 3, 5, 4]), 2),
    "disconnected": (lambda: _undirected(8, [0, 1, 4, 5], [1, 2, 5, 6]), 4),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_basic_bfs_matches_push_on_sparse_and_corner_shapes(shape):
    build, source = _SHAPES[shape]
    g = build()
    p, _ = lg.bfs(g, source)
    verify.verify_bfs_parent(g, source, p)
    assert p.isequal(lg.bfs_parent_push(g, source))


_ENTRY_POINTS = {
    "bfs": lambda g, s: lg.bfs(g, s)[0],
    "bfs_parent_push": lg.bfs_parent_push,
    "bfs_parent_auto": lg.bfs_parent_auto,
    "bfs_level": lg.bfs_level,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("source", (1.0, True, np.int64(1)),
                         ids=("float", "bool", "np_int64"))
def test_source_validation(small_directed_graph, entry, source):
    run = _ENTRY_POINTS[entry]
    if isinstance(source, float):
        with pytest.raises(grb.InvalidValue):
            run(small_directed_graph, source)
    else:
        assert run(small_directed_graph, source).isequal(
            run(small_directed_graph, 1))

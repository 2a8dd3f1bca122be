"""Breadth-first search (Sec. IV-A; Algorithms 1 and 2 of the paper).

The parent BFS rests on the ``any.secondi`` semiring: one ``vxm`` computes
``qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A`` — the frontier expansion, parent
selection (``secondi`` yields the id of the frontier node that discovered
each neighbour) and de-duplication (``any`` resolves the benign race by
picking one parent) in a single step.  The follow-up
``p⟨s(q)⟩ = q`` writes the new parents.  :func:`bfs_parent_push` is that
Alg. 1 loop verbatim — the reference every other parent BFS must match
entry for entry.

Direction optimisation (Alg. 2): a *push* step costs the total out-degree
of the frontier; a *pull* step (``AT any.secondi q`` restricted to the
unvisited rows by the complemented structural mask) costs the total
in-degree of the unvisited set.  The per-level push/pull decision is the
Beamer-style heuristic the GAP benchmark uses, now resident in the
execution engine's rule registry
(:func:`repro.grb.engine.choose_direction`; constants
``PUSHPULL_ALPHA`` / ``PUSHPULL_BETA`` in :mod:`repro.grb.engine.cost`),
so it is forceable and telemetry-observable like every other planner
decision.  :func:`bfs_parent_auto` is the one direction-optimising parent
BFS.

The Advanced entry points never compute cached properties (Sec. II-B);
Basic-mode :func:`bfs` caches ``G.AT`` and ``G.row_degree`` on the graph
and always runs :func:`bfs_parent_auto` for parents.
"""

from __future__ import annotations

import operator
from typing import Optional, Tuple

import numpy as np

from ... import grb
from ...grb import Vector, complement, engine, structure
from ...grb import cancel as _cancel
from ..graph import Graph

__all__ = ["bfs", "bfs_parent_push", "bfs_parent_auto", "bfs_level"]

_ANY_SECONDI = grb.semiring("any", "secondi")
_ANY_PAIR = grb.semiring("any", "pair")


def _check_source(g: Graph, source: int) -> int:
    """The source as a plain ``int``, range-checked against ``g``."""
    try:
        source = operator.index(source)
    except TypeError:
        raise grb.InvalidValue(
            f"source must be an integer, got {source!r}") from None
    if not 0 <= source < g.n:
        raise grb.IndexOutOfBounds(
            f"source {source} out of range [0, {g.n})")
    return source


def bfs_parent_push(g: Graph, source: int) -> Vector:
    """Alg. 1 — push-only parents BFS (Advanced mode; needs nothing cached).

    Returns the INT64 parent vector: ``p[v]`` is the BFS-tree parent of
    ``v``, with ``p[source] == source``; unreached nodes have no entry.
    """
    source = _check_source(g, source)
    a = g.A
    n = g.n
    p = Vector(grb.INT64, n)
    q = Vector(grb.INT64, n)
    p[source] = source
    q[source] = source
    for _level in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        grb.vxm(q, q, a, _ANY_SECONDI,
                mask=complement(structure(p)), replace=True)
        if q.nvals == 0:
            break
        grb.update(p, q, mask=structure(q))
    return p


def bfs_parent_auto(g: Graph, source: int) -> Vector:
    """Storage-engine direction-optimised parents BFS (Basic-mode worker).

    The step chooser of Alg. 2 running directly on the storage layer:

    * **push** levels (sparse frontier) expand through the ``any.secondi``
      gather kernel — cost ∝ frontier out-degrees;
    * **pull** levels (heavy frontier) probe each unvisited node's
      in-neighbours against a *bitmap frontier*, reading ``Aᵀ`` from the
      store's cached CSC arrays (free when ``A`` is pinned to CSC, computed
      once otherwise) — cost ∝ a few probes per unvisited node;
    * the visited set and parents live in dense arrays for the whole sweep,
      so no per-level masked write-back is paid at all.

    Both step kinds pick the smallest frontier in-neighbour as the parent,
    so the result is identical — entry for entry — to
    :func:`bfs_parent_push`, whatever sequence of directions runs.  It
    never demands cached graph properties: the transpose view comes from
    ``G.AT`` when present, else from the adjacency's own storage.
    """
    source = _check_source(g, source)
    from ...grb._kernels.matmul import mxv_pull_probe, vxm_sparse

    a = g.A
    n = g.n
    at = g.AT
    if at is not None:
        at_indptr, at_indices = at.indptr, at.indices
    else:
        at_indptr, at_indices, _ = a._S().transpose_csr()
    if g.row_degree is not None:
        out_deg = g.row_degree.to_dense()
    else:
        out_deg = np.diff(a.indptr).astype(np.int64)
    total_edges = float(out_deg.sum())

    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    parent_dense = np.full(n, -1, dtype=np.int64)
    parent_dense[source] = source
    frontier = np.array([source], dtype=np.int64)
    frontier_bits = np.zeros(n, dtype=bool)
    scanned = float(out_deg[source])
    for _level in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        frontier_edges = float(out_deg[frontier].sum())
        unexplored = max(total_edges - scanned, 0.0)
        push = engine.choose_direction(frontier_edges, unexplored,
                                       frontier.size, n) == "push"
        if push:
            idx, par = vxm_sparse(frontier,
                                  np.zeros(frontier.size, dtype=np.int64),
                                  a.indptr, a.indices, None, _ANY_SECONDI)
            fresh = ~visited[idx]
            idx, par = idx[fresh], par[fresh]
        else:
            frontier_bits[frontier] = True
            idx, par = mxv_pull_probe(at_indptr, at_indices, frontier_bits,
                                      np.flatnonzero(~visited))
            frontier_bits[frontier] = False
        if idx.size == 0:
            break
        visited[idx] = True
        parent_dense[idx] = par
        frontier = idx
        scanned += float(out_deg[idx].sum())
    reached = np.flatnonzero(visited).astype(np.int64)
    return Vector.from_coo(reached, parent_dense[reached], n)


def bfs_level(g: Graph, source: int) -> Vector:
    """Level BFS: ``level[v]`` = BFS depth from the source (source = 0).

    Uses the ``any.pair`` semiring — the structural analogue of
    ``any.secondi`` when only reachability per level is needed.
    """
    source = _check_source(g, source)
    a = g.A
    n = g.n
    level = Vector(grb.INT64, n)
    q = Vector(grb.BOOL, n)
    level[source] = 0
    q[source] = True
    for depth in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        grb.vxm(q, q, a, _ANY_PAIR,
                mask=complement(structure(level)), replace=True)
        if q.nvals == 0:
            break
        grb.assign_scalar(level, depth, mask=structure(q))
    return level


def bfs(g: Graph, source: int, *,
        parent: bool = True, level: bool = False,
        ) -> Tuple[Optional[Vector], Optional[Vector]]:
    """Basic-mode BFS: "just works" (Sec. II-B).

    Caches ``G.AT`` and ``G.row_degree`` on the graph, then returns
    ``(parent, level)`` vectors (``None`` for whichever was not
    requested).  Parents come from :func:`bfs_parent_auto`.
    """
    source = _check_source(g, source)
    p = lv = None
    if parent:
        g.cache_at()              # Basic mode may compute properties
        g.cache_row_degree()
        p = bfs_parent_auto(g, source)
    if level:
        lv = bfs_level(g, source)
    return p, lv

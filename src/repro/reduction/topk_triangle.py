"""The ``(Top_k, η)``-triangle reduction (Section 5.2, Algorithm 4).

A subgraph ``C`` is a ``(Top_k, η)``-triangle when every edge of ``C``
has top triangle degree (Definition 5) at least ``k`` within ``C``.  By
Lemma 8, every maximal ``(k + 2, η)``-clique of ``G`` lies inside the
maximal ``(Top_k, η)``-triangle, so for enumeration with parameter
``k`` we peel with threshold ``k - 2``.

The implementation follows Algorithm 4: compute the top triangle degree
of every edge, queue sub-threshold edges, and cascade deletions while
updating the triangle lists of surviving edges.  Where the paper keeps
amortized O(1) updates via an index array, we re-evaluate the prefix
product of an edge's (cached, sorted) open-triangle probabilities on
update — asymptotically ``O(m^1.5 log d_max)`` overall like the paper,
with a slightly larger constant that is irrelevant at Python scale.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List

from repro.exceptions import ParameterError
from repro.reduction.eta_degree import prefix_count, top_triangle_degree
from repro.uncertain.graph import Edge, UncertainGraph, Vertex, normalize_edge


def topk_triangle(graph: UncertainGraph, k: int, eta) -> UncertainGraph:
    """Return the maximal ``(Top_k, η)``-triangle subgraph of ``graph``.

    Peels edges whose top triangle degree falls below ``k``; the result
    is the subgraph induced by the surviving edges (isolated vertices
    are dropped, as they cannot join any clique of size >= 3).
    """
    survivors = topk_triangle_edges(graph, k, eta)
    return graph.edge_subgraph(survivors)


def topk_triangle_edges(graph: UncertainGraph, k: int, eta) -> List[Edge]:
    """Edges of the maximal ``(Top_k, η)``-triangle, in insertion order."""
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    tri = _open_triangles(graph)
    tdeg = {
        e: _top_degree(tri[e], graph.probability(*e), eta) for e in tri
    }
    queue: List[Edge] = [e for e, t in tdeg.items() if t < k]
    while queue:
        e = queue.pop()
        if e not in tri:
            continue
        for side in _remove_edge(tri, e):
            if tdeg[side] >= k:
                tdeg[side] = _top_degree(
                    tri[side], graph.probability(*side), eta
                )
                if tdeg[side] < k:
                    queue.append(side)
    # Survivors in edge-scan (insertion) order, not set order: the
    # edge_subgraph built from them inherits this order, and downstream
    # orderings/colorings must be deterministic across processes.
    return [e for e in tdeg if e in tri]


def top_triangle_decomposition(graph: UncertainGraph, eta) -> Dict[Edge, int]:
    """Possible triangle number ``s_η(e)`` of every edge.

    ``s_η(e)`` is the largest ``k`` such that some ``(Top_k, η)``-
    triangle contains ``e`` (Section 5.2) — the analogue of the truss
    number.  Computed by one minimum-first peel (as in truss
    decomposition): repeatedly remove an edge with the minimum current
    top triangle degree; the running maximum of those minima at removal
    time is the removed edge's level.  Correctness follows from the
    monotonicity of the top triangle degree (Lemma 7), exactly as for
    k-cores.
    """
    tri = _open_triangles(graph)
    tdeg = {e: _top_degree(tri[e], graph.probability(*e), eta) for e in tri}
    heap = [(t, repr(e), e) for e, t in tdeg.items()]
    heapq.heapify(heap)
    result: Dict[Edge, int] = {}
    level = 0
    while heap:
        t, _tie, e = heapq.heappop(heap)
        if e in result or t != tdeg[e]:
            continue
        level = max(level, t)
        result[e] = level
        for side in _remove_edge(tri, e):
            new_t = _top_degree(tri[side], graph.probability(*side), eta)
            if new_t != tdeg[side]:
                tdeg[side] = new_t
                heapq.heappush(heap, (new_t, repr(side), side))
    return result


def verify_topk_triangle(graph: UncertainGraph, k: int, eta) -> bool:
    """Check every edge of ``graph`` has top triangle degree >= k in it."""
    return all(
        top_triangle_degree(graph, u, v, eta) >= k for u, v, _p in graph.edges()
    )


def _open_triangles(graph: UncertainGraph) -> Dict[Edge, Dict[Vertex, object]]:
    """Each edge's open triangles, apex -> ``p(u, w) * p(v, w)``, keyed
    by canonical edge in edge-scan order: the table both peels share."""
    tri: Dict[Edge, Dict[Vertex, object]] = {}
    for u, v, _p in graph.edges():
        nu, nv = graph.neighbors(u), graph.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        tri[normalize_edge(u, v)] = {w: nu[w] * nv[w] for w in nu if w in nv}
    return tri


def _remove_edge(
    tri: Dict[Edge, Dict[Vertex, object]], e: Edge
) -> Iterator[Edge]:
    """Peel ``e`` out of the table: each triangle through it leaves
    both side edges, and each side is yielded right after its loss so
    the caller re-counts it before the next one.  A row keeps an apex
    only while both of its side edges survive, so every side is live.
    """
    u, v = e
    for w in tri.pop(e):
        for side, apex in ((normalize_edge(u, w), v), (normalize_edge(v, w), u)):
            del tri[side][apex]
            yield side


def _top_degree(open_probs: Dict[Vertex, object], p_e, eta) -> int:
    return prefix_count(sorted(open_probs.values(), reverse=True), eta, p_e)

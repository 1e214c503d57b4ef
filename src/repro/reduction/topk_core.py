"""The ``(Top_k, η)``-core reduction (Li et al., Definition 8).

A subgraph ``C`` is a ``(Top_k, η)``-core when every vertex of ``C`` has
η-topdegree at least ``k`` *within C*.  Every maximal ``(k, η)``-clique
lives inside the maximal ``(Top_{k-1}, η)``-core (each clique member
sees ``k - 1`` other members through edges whose probability product
already reaches ``η``), so peeling to the core is a sound pre-reduction
for enumeration; this is the preprocessing used by the state-of-the-art
``MUC`` comparator and, as a first stage, by ``PMUC+``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set

from repro.exceptions import ParameterError
from repro.reduction.eta_degree import eta_topdegree, prefix_count
from repro.uncertain.graph import UncertainGraph, Vertex


def topk_core(graph: UncertainGraph, k: int, eta) -> UncertainGraph:
    """Return the maximal ``(Top_k, η)``-core of ``graph``.

    Iteratively deletes vertices whose η-topdegree within the remaining
    subgraph is below ``k``; the survivors induce the (possibly empty)
    maximal core, which is unique by the monotonicity of η-topdegree.
    """
    survivors = topk_core_vertices(graph, k, eta)
    return graph.subgraph(survivors)


def topk_core_vertices(graph: UncertainGraph, k: int, eta) -> Set[Vertex]:
    """Vertex set of the maximal ``(Top_k, η)``-core."""
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    alive: Set[Vertex] = set(graph.vertices())
    # Per-vertex multiset of incident probabilities, sorted descending;
    # the η-topdegree is the longest prefix whose product stays >= η.
    incident: Dict[Vertex, List] = {
        v: sorted(graph.neighbors(v).values(), reverse=True) for v in alive
    }
    topdeg = {v: prefix_count(incident[v], eta) for v in alive}
    # Canonical queue order: peeling is confluent (the core is unique),
    # but a sorted seed keeps the removal sequence reproducible.
    queue = sorted((v for v in alive if topdeg[v] < k), key=repr)
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for u, p in graph.neighbors(v).items():
            if u not in alive:
                continue
            incident[u].remove(p)
            if topdeg[u] >= k:
                topdeg[u] = prefix_count(incident[u], eta)
                if topdeg[u] < k:
                    queue.append(u)
    return alive


def topk_core_decomposition(graph: UncertainGraph, eta) -> Dict[Vertex, int]:
    """Return, for each vertex, the largest ``k`` whose core contains it.

    Analogue of the classic core decomposition, by one minimum-first
    peel: a lazy-deletion heap keyed by ``(η-topdegree, repr)`` removes
    a vertex of minimum current η-topdegree, and each vertex's shell is
    the running maximum of the η-topdegree at removal.  Every removal
    updates the incident-probability multisets of the neighbors, for
    an overall ``O((n + m) log d_max)`` bound matching the paper.  The
    dict is in removal order, which is
    :func:`~repro.reduction.ordering.topk_core_ordering`.
    """
    incident: Dict[Vertex, List] = {
        v: sorted(graph.neighbors(v).values(), reverse=True) for v in graph
    }
    topdeg = {v: prefix_count(incident[v], eta) for v in graph}
    heap = [(d, repr(v), v) for v, d in topdeg.items()]
    heapq.heapify(heap)
    shell: Dict[Vertex, int] = {}
    level = 0
    while heap:
        d, _tie, v = heapq.heappop(heap)
        if v in shell or d != topdeg[v]:
            continue
        level = max(level, d)
        shell[v] = level
        for u, p in graph.neighbors(v).items():
            if u not in shell:
                incident[u].remove(p)
                new_deg = prefix_count(incident[u], eta)
                if new_deg != topdeg[u]:
                    topdeg[u] = new_deg
                    heapq.heappush(heap, (new_deg, repr(u), u))
    return shell


def verify_topk_core(graph: UncertainGraph, k: int, eta) -> bool:
    """Check that every vertex of ``graph`` has η-topdegree >= k in it."""
    return all(eta_topdegree(graph, v, eta) >= k for v in graph)

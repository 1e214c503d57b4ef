"""``UKCore`` — (k, η)-cores of uncertain graphs (Bonchi et al., KDD'14).

The η-degree of a vertex ``v`` is the largest ``k`` such that the
probability that at least ``k`` of ``v``'s incident edges exist is at
least ``η``; the (k, η)-core is the maximal subgraph in which every
vertex has η-degree >= ``k`` within the subgraph.

The tail probability of a sum of independent Bernoulli edges is
computed by the standard O(d²) convolution DP, and the core is obtained
by peeling, recomputing η-degrees of the affected neighbors — the exact
semantics of the original paper, at the graph scales this repo uses.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Set

from repro.exceptions import ParameterError
from repro.uncertain.graph import UncertainGraph, Vertex


def tail_distribution(probabilities: Sequence[float]) -> List[float]:
    """Return ``tail[k] = Pr[at least k successes]`` for independent
    Bernoulli trials with the given probabilities (length ``d + 1``)."""
    dist = [1.0]
    for p in probabilities:
        nxt = [0.0] * (len(dist) + 1)
        for count, mass in enumerate(dist):
            nxt[count] += mass * (1 - p)
            nxt[count + 1] += mass * p
        dist = nxt
    tail = [0.0] * (len(dist) + 1)
    for k in range(len(dist) - 1, -1, -1):
        tail[k] = tail[k + 1] + dist[k]
    return tail[:-1]


def eta_degree(graph: UncertainGraph, v: Vertex, eta) -> int:
    """η-degree of ``v``: max k with ``Pr[deg(v) >= k] >= eta``."""
    _check_eta(eta)
    return _eta_degree(graph, v, eta, graph)


def k_eta_core(graph: UncertainGraph, k: int, eta) -> UncertainGraph:
    """Return the maximal (k, η)-core as an induced subgraph."""
    return graph.subgraph(k_eta_core_vertices(graph, k, eta))


def k_eta_core_vertices(graph: UncertainGraph, k: int, eta) -> Set[Vertex]:
    """Vertex set of the maximal (k, η)-core (peeling)."""
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    _check_eta(eta)
    alive: Set[Vertex] = set(graph.vertices())
    degrees: Dict[Vertex, int] = {
        v: _eta_degree(graph, v, eta, alive) for v in alive
    }
    # Canonical queue order: peeling is confluent (the core is unique),
    # but seeding in sorted order keeps intermediate states — and any
    # instrumentation hung off them — reproducible too.
    queue = sorted((v for v in alive if degrees[v] < k), key=repr)
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        # repro-lint: ok REP001 insertion-ordered dict view; peeling is confluent
        for u in graph.neighbors(v):
            if u in alive and degrees[u] >= k:
                degrees[u] = _eta_degree(graph, u, eta, alive)
                if degrees[u] < k:
                    queue.append(u)
    return alive


def eta_core_decomposition(graph: UncertainGraph, eta) -> Dict[Vertex, int]:
    """(k, η)-core number of every vertex (Bonchi et al.'s decomposition).

    The core number of ``v`` is the largest ``k`` such that ``v``
    belongs to the (k, η)-core; computed by minimum-η-degree peeling,
    mirroring the classic core decomposition.  A lazy-deletion heap
    keyed by ``(η-degree, repr)`` picks each removal, and the dict is
    in removal order.
    """
    _check_eta(eta)
    alive: Set[Vertex] = set(graph.vertices())
    degrees = {v: _eta_degree(graph, v, eta, alive) for v in graph}
    heap = [(d, repr(v), v) for v, d in degrees.items()]
    heapq.heapify(heap)
    shell: Dict[Vertex, int] = {}
    level = 0
    while heap:
        d, _tie, v = heapq.heappop(heap)
        if v not in alive or d != degrees[v]:
            continue
        level = max(level, d)
        shell[v] = level
        alive.discard(v)
        for u in graph.neighbors(v):
            if u in alive:
                new = min(degrees[u], _eta_degree(graph, u, eta, alive))
                if new != degrees[u]:
                    degrees[u] = new
                    heapq.heappush(heap, (new, repr(u), u))
    return shell


def _eta_degree(graph: UncertainGraph, v: Vertex, eta, alive) -> int:
    """η-degree of ``v`` over its edges into ``alive``: the one count
    behind :func:`eta_degree` and both peels."""
    tail = tail_distribution(
        [p for u, p in graph.neighbors(v).items() if u in alive]
    )
    degree = 0
    for k in range(1, len(tail)):
        if tail[k] >= eta:
            degree = k
        else:
            break
    return degree


def core_community(graph: UncertainGraph, query: Vertex, k: int, eta):
    """Connected component of ``query`` inside the (k, η)-core.

    Returns the vertex set (empty if the query is peeled away) — the
    community UKCore reports in the paper's case studies.
    """
    core = k_eta_core(graph, k, eta)
    if query not in core:
        return frozenset()
    for component in core.connected_components():
        if query in component:
            return frozenset(component)
    return frozenset()  # pragma: no cover - query always in a component


def _check_eta(eta) -> None:
    if not 0 <= eta <= 1:
        raise ParameterError(f"eta must lie in [0, 1], got {eta!r}")

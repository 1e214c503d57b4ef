"""Maximum η-clique search and top-r maximal clique queries.

The enumeration algorithms report *every* maximal ``(k, η)``-clique;
two common queries need much less:

* :func:`maximum_k_eta_clique` — one largest ``(k, η)``-clique (ties
  broken by clique probability).  Implemented as a dedicated
  branch-and-bound that reuses the paper's machinery (core reduction,
  ``GenerateSet`` candidate maintenance, greedy-coloring bounds) but
  prunes every branch that cannot beat the incumbent, so it is far
  cheaper than full enumeration.  This is the maximum probabilistic
  clique problem of Miao et al. (J. Comb. Optim. 2014) restated for
  the ``(k, η)`` model.
* :func:`top_r_maximal_cliques` — the ``r`` best maximal cliques by
  ``(size, probability)``, via a bounded heap over the streaming
  enumerator.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.exceptions import ParameterError
from repro.core.api import enumerate_maximal_cliques
from repro.core.candidates import generate_set
from repro.core.config import require_eta, require_k
from repro.core.stats import SearchStats
from repro.deterministic.coloring import greedy_coloring
from repro.reduction.ordering import topk_core_ordering
from repro.reduction.topk_core import topk_core
from repro.uncertain.clique_probability import clique_probability
from repro.uncertain.graph import UncertainGraph, Vertex


def maximum_k_eta_clique(
    graph: UncertainGraph, k: int, eta, stats: Optional[SearchStats] = None
) -> Optional[frozenset]:
    """Return one maximum ``(k, η)``-clique, or None if none exists.

    The returned clique is guaranteed to have maximum *size*; among
    the maximum-size cliques the search prefers higher clique
    probability but may not explore all of them (the color bound prunes
    branches that cannot exceed the incumbent size — exact probability
    tie-breaking would forfeit that pruning).  ``stats`` (optional)
    collects search counters for benchmarking against full enumeration.

    Unlike the enumerator, the search needs no ``X`` set: every
    η-clique extends to a maximal one, so maximizing over *all*
    η-cliques reachable by expansion is enough.
    """
    require_k(k)
    require_eta(eta)
    if stats is None:
        stats = SearchStats()
    search_graph = topk_core(graph, k - 1, eta) if k >= 2 else graph
    if k == 1 and graph.num_vertices:
        # Any single vertex is a (1, η)-clique; still search for bigger.
        search_graph = graph
    if not search_graph.num_vertices:
        return _fallback_singleton(graph, k)
    order = topk_core_ordering(search_graph, eta)
    rank = {v: i for i, v in enumerate(order)}
    colors = greedy_coloring(search_graph.to_deterministic())
    searcher = _MaximumSearch(search_graph, k, eta, colors, stats)
    # Seeds in reverse peeling order: densest region first, which finds
    # a strong incumbent early and sharpens the bound.
    for v in reversed(order):
        candidates = {
            u: p
            for u, p in search_graph.neighbors(v).items()
            if p >= eta and rank[u] > rank[v]
        }
        searcher.expand([v], 1, candidates)
    best = searcher.best
    if best is None:
        return _fallback_singleton(graph, k)
    return frozenset(best[2])


def top_r_maximal_cliques(
    graph: UncertainGraph, k: int, eta, r: int, algorithm: str = "pmuc+"
) -> List[Tuple[frozenset, object]]:
    """The ``r`` best maximal ``(k, η)``-cliques by ``(size, Pr)``.

    Returns ``(clique, probability)`` pairs, best first.  Memory is
    bounded by ``r`` regardless of how many maximal cliques exist.
    """
    if r < 1:
        raise ParameterError(f"r must be positive, got {r}")
    heap: List[Tuple[Tuple[int, object], int, frozenset]] = []
    counter = [0]

    def consider(clique: frozenset) -> None:
        prob = clique_probability(graph, clique)
        key = (len(clique), prob)
        counter[0] += 1
        if len(heap) < r:
            heapq.heappush(heap, (key, counter[0], clique))
        elif key > heap[0][0]:
            heapq.heapreplace(heap, (key, counter[0], clique))

    enumerate_maximal_cliques(graph, k, eta, algorithm, on_clique=consider)
    ranked = sorted(heap, key=lambda item: item[0], reverse=True)
    return [(clique, key[1]) for key, _tie, clique in ranked]


class _MaximumSearch:
    """Branch-and-bound core of :func:`maximum_k_eta_clique`."""

    def __init__(self, graph, k, eta, colors, stats):
        self._graph = graph
        self._k = k
        self._eta = eta
        self._colors = colors
        self._stats = stats
        #: (size, probability, members) of the incumbent, or None.
        self.best: Optional[Tuple[int, object, List[Vertex]]] = None

    def _bound(self, candidates) -> int:
        colors = self._colors
        return len({colors[v] for v in candidates})

    def expand(self, r: List[Vertex], q, candidates) -> None:
        stats = self._stats
        stats.calls += 1
        size = len(r)
        incumbent = self.best
        if size >= self._k and (
            incumbent is None or (size, q) > (incumbent[0], incumbent[1])
        ):
            self.best = (size, q, list(r))
            incumbent = self.best
        if not candidates:
            return
        floor = incumbent[0] if incumbent is not None else self._k - 1
        if size + self._bound(candidates) <= floor:
            stats.size_prunes += 1
            return
        # Expand strongest-first: high r-values keep q large longest.
        for u in sorted(candidates, key=lambda w: candidates[w], reverse=True):
            r_u = candidates.pop(u)
            q_new = q * r_u
            r.append(u)
            stats.expansions += 1
            child = generate_set(self._graph, u, candidates, q_new, self._eta)
            self.expand(r, q_new, child)
            r.pop()
            incumbent = self.best
            floor = incumbent[0] if incumbent is not None else self._k - 1
            if size + 1 + self._bound(candidates) <= floor:
                stats.size_prunes += 1
                break


def _fallback_singleton(graph: UncertainGraph, k: int) -> Optional[frozenset]:
    """k = 1 on a graph whose core is empty: any vertex qualifies."""
    if k == 1 and graph.num_vertices:
        return frozenset([graph.vertices()[0]])
    return None

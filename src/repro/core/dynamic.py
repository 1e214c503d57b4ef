"""Incremental maintenance of maximal ``(k, η)``-cliques under updates.

Enumerating from scratch after every edge change is wasteful: an edge
update at ``(u, v)`` can only affect cliques that touch ``u`` or ``v``.
Formally, for any vertex set ``S`` with ``u ∉ S`` and ``v ∉ S``,

* ``Pr(S)`` is unchanged (the updated edge is not inside ``S``), and
* the status of every extension ``S ∪ {w}`` is unchanged as well —
  ``S ∪ {w}`` contains the edge ``(u, v)`` only if both endpoints are
  inside, which would put ``u`` or ``v`` in ``S``.

So :class:`DynamicCliqueIndex` repairs the clique set locally: it drops
every indexed clique containing ``u`` or ``v`` and re-enumerates the
maximal cliques *through* each endpoint inside the endpoint's closed
neighborhood (a clique containing ``x`` lives inside ``N[x]``, and its
possible extensions are common neighbors of its members — all inside
``N[x]`` — so maximality inside the neighborhood subgraph coincides
with maximality in the full graph).

Vertex removal is supported by cascading edge removals, vertex
insertion by edge insertions; both therefore inherit the edge-level
correctness argument.  The index is validated against from-scratch
re-enumeration in the test suite.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.exceptions import GraphError
from repro.core.api import enumerate_maximal_cliques
from repro.core.config import require_eta, require_k
from repro.uncertain.graph import UncertainGraph, Vertex


class DynamicCliqueIndex:
    """Maintains all maximal ``(k, η)``-cliques under edge updates.

    Parameters
    ----------
    graph:
        Initial uncertain graph (copied; later mutations go through the
        index methods).
    k, eta:
        The clique parameters, fixed for the index lifetime.
    algorithm:
        Enumeration algorithm used for the initial build and the local
        repairs (default ``"pmuc+"``).

    Examples
    --------
    >>> g = UncertainGraph([(0, 1, 0.9), (1, 2, 0.9)])
    >>> index = DynamicCliqueIndex(g, k=3, eta=0.5)
    >>> len(index)
    0
    >>> index.add_edge(0, 2, 0.9)
    >>> sorted(next(iter(index.cliques)))
    [0, 1, 2]
    """

    def __init__(
        self,
        graph: UncertainGraph,
        k: int,
        eta,
        algorithm: str = "pmuc+",
    ):
        require_k(k)
        require_eta(eta)
        self._graph = graph.copy()
        self._k = k
        self._eta = eta
        self._algorithm = algorithm
        self._cliques: Set[frozenset] = set(
            enumerate_maximal_cliques(self._graph, k, eta, algorithm).cliques
        )
        #: Number of local repair enumerations performed (for tests
        #: and benchmarks comparing against full recomputation).
        self.repairs = 0

    # ------------------------------------------------------------------
    @property
    def graph(self) -> UncertainGraph:
        """The current graph (treat as read-only)."""
        return self._graph

    @property
    def cliques(self) -> Set[frozenset]:
        """The current maximal ``(k, η)``-cliques (do not mutate)."""
        return self._cliques

    def __len__(self) -> int:
        return len(self._cliques)

    def __contains__(self, vertices) -> bool:
        return frozenset(vertices) in self._cliques

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex, p) -> None:
        """Insert edge ``(u, v)`` (or update its probability) and repair."""
        self._graph.add_edge(u, v, p)
        self._repair(u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete edge ``(u, v)`` and repair."""
        self._graph.remove_edge(u, v)
        self._repair(u, v)

    def add_vertex(self, v: Vertex) -> None:
        """Insert an isolated vertex (a maximal clique iff ``k == 1``)."""
        if v in self._graph:
            return
        self._graph.add_vertex(v)
        if self._k == 1:
            self._cliques.add(frozenset([v]))

    def remove_vertex(self, v: Vertex) -> None:
        """Delete ``v`` (cascading its incident edges) and repair."""
        if v not in self._graph:
            raise GraphError(f"vertex {v!r} does not exist")
        for u in list(self._graph.neighbors(v)):
            self.remove_edge(u, v)
        self._graph.remove_vertex(v)
        self._cliques.discard(frozenset([v]))

    # ------------------------------------------------------------------
    def _repair(self, u: Vertex, v: Vertex) -> None:
        """Recompute the cliques touching ``u`` or ``v`` locally."""
        self.repairs += 1
        self._cliques = {
            s for s in self._cliques if u not in s and v not in s
        }
        fresh: Set[frozenset] = set()
        for x in (u, v):
            fresh.update(self._cliques_through(x))
        # A clique through u may also contain v (and vice versa); the
        # two neighborhood enumerations can both emit it — the set
        # union deduplicates.  A clique through u that is maximal in
        # N[u] but extendable by a vertex outside N[u] cannot exist
        # (any extender is adjacent to u), so everything fresh is
        # globally maximal.
        self._cliques.update(fresh)

    def _cliques_through(self, x: Vertex) -> Iterable[frozenset]:
        neighborhood = set(self._graph.neighbors(x))
        neighborhood.add(x)
        local = self._graph.subgraph(neighborhood)
        for clique in enumerate_maximal_cliques(
            local, self._k, self._eta, self._algorithm
        ).cliques:
            if x in clique:
                yield clique

    # ------------------------------------------------------------------
    def recompute(self) -> Set[frozenset]:
        """From-scratch enumeration (used to validate the index)."""
        return set(
            enumerate_maximal_cliques(
                self._graph, self._k, self._eta, self._algorithm
            ).cliques
        )

    def check(self) -> bool:
        """Return True if the index matches a from-scratch enumeration."""
        return self._cliques == self.recompute()

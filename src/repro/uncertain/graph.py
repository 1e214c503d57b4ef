"""The uncertain graph data structure.

An *uncertain graph* ``G = (V, E, p)`` is an undirected simple graph in
which every edge ``e`` carries a probability ``p(e)`` in ``(0, 1]``
indicating the likelihood that ``e`` exists.  This module implements the
standard possible-world model used by the paper (Section 2): edges exist
independently, and a possible world is obtained by sampling each edge
with its probability.

The structure is deliberately simple — a dictionary of neighbor
dictionaries — because every algorithm in this package works on local
neighborhoods.  Probabilities may be ``float`` (fast, default) or any
numeric type supporting ``*`` and comparisons, such as
:class:`fractions.Fraction` (exact; used by the property-based tests to
rule out floating-point order-of-evaluation ambiguity).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import GraphError, InvalidProbabilityError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Return a canonical (sorted) representation of the edge ``(u, v)``.

    Vertices of mixed non-comparable types fall back to ordering by
    ``repr``, which keeps the canonical form deterministic.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class UncertainGraph:
    """An undirected uncertain graph with per-edge existence probabilities.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v, p)`` triples used to populate the
        graph.  Self-loops are rejected; duplicate edges overwrite the
        stored probability.

    Examples
    --------
    >>> g = UncertainGraph()
    >>> g.add_edge("a", "b", 0.9)
    >>> g.probability("a", "b")
    0.9
    >>> sorted(g.neighbors("a"))
    ['b']
    """

    __slots__ = ("_adj",)

    def __init__(self, edges: Optional[Iterable[Tuple[Vertex, Vertex, object]]] = None):
        self._adj: Dict[Vertex, Dict[Vertex, object]] = {}
        if edges is not None:
            for u, v, p in edges:
                self.add_edge(u, v, p)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Insert an isolated vertex ``v`` (no-op if already present)."""
        self._adj.setdefault(v, {})

    def add_edge(self, u: Vertex, v: Vertex, p: object) -> None:
        """Insert edge ``(u, v)`` with existence probability ``p``.

        Raises
        ------
        GraphError
            If ``u == v`` (self-loop).
        InvalidProbabilityError
            If ``p`` is a bool or outside the interval ``(0, 1]``.
        """
        if u == v:
            raise GraphError(f"self-loop ({u!r}, {v!r}) is not allowed")
        if isinstance(p, bool) or not 0 < p <= 1:  # type: ignore[operator]
            raise InvalidProbabilityError(
                f"edge ({u!r}, {v!r}) probability {p!r} outside (0, 1]"
            )
        self._adj.setdefault(u, {})[v] = p
        self._adj.setdefault(v, {})[u] = p

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove edge ``(u, v)``; raises :class:`GraphError` if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges; raises if ``v`` absent."""
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} does not exist")
        for u in list(self._adj[v]):
            del self._adj[u][v]
        del self._adj[v]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n = |V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges ``m = |E|``."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> List[Vertex]:
        """Return the vertex list (insertion order)."""
        return list(self._adj)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, object]]:
        """Yield each edge once as ``(u, v, p)``."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, p in nbrs.items():
                e = normalize_edge(u, v)
                if e not in seen:
                    seen.add(e)
                    yield (u, v, p)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True if edge ``(u, v)`` is present."""
        return u in self._adj and v in self._adj[u]

    def probability(self, u: Vertex, v: Vertex) -> object:
        """Existence probability of edge ``(u, v)``; 0 if absent.

        Following the paper's convention (Section 2), a vertex pair with
        no edge has probability 0, which makes the clique probability of
        any non-clique vertex set 0.
        """
        if u in self._adj:
            return self._adj[u].get(v, 0)
        return 0

    def neighbors(self, v: Vertex) -> Dict[Vertex, object]:
        """Return the neighbor→probability mapping of ``v`` (do not mutate).

        Raises :class:`GraphError` if ``v`` is not a vertex.
        """
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} does not exist") from None

    def degree(self, v: Vertex) -> int:
        """Number of neighbors of ``v``."""
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        """Maximum vertex degree ``d_max`` (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[Vertex]) -> "UncertainGraph":
        """Return the induced uncertain subgraph on ``vertices``.

        Unknown vertices are ignored, matching the behaviour of graph
        reduction pipelines that pass pruned vertex sets around.

        The result's vertex order is this graph's insertion order
        restricted to ``vertices`` — never the iteration order of the
        argument.  Callers routinely pass ``set`` objects, whose
        iteration order varies with ``PYTHONHASHSEED`` for string
        vertices; ordering-sensitive consumers (vertex orderings,
        greedy coloring, the parallel driver's identical-per-worker
        invariant) need the subgraph to be a deterministic function of
        the graph and the vertex *set* alone.
        """
        requested = set(vertices)
        keep = [v for v in self._adj if v in requested]
        sub = UncertainGraph()
        for v in keep:
            sub.add_vertex(v)
        for v in keep:
            for u, p in self._adj[v].items():
                if u in requested and not sub.has_edge(u, v):
                    sub.add_edge(u, v, p)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "UncertainGraph":
        """Return the subgraph induced by the given edge set.

        Only edges present in this graph are kept; their endpoints form
        the vertex set of the result.
        """
        sub = UncertainGraph()
        for u, v in edges:
            if self.has_edge(u, v):
                sub.add_edge(u, v, self._adj[u][v])
        return sub

    def to_deterministic(self):
        """Return the deterministic backbone: same vertices/edges, no p.

        Used by the degeneracy ordering and the coloring heuristics,
        which deliberately ignore probabilities (Section 4.5).
        """
        from repro.deterministic.graph import Graph

        g = Graph()
        for v in self._adj:
            g.add_vertex(v)
        for u, v, _p in self.edges():
            g.add_edge(u, v)
        return g

    def with_exact_probabilities(self, max_denominator: int = 10**6) -> "UncertainGraph":
        """Return a copy whose probabilities are :class:`~fractions.Fraction`.

        Exact arithmetic makes η-clique decisions independent of the
        multiplication order, which the float mode cannot guarantee.
        """
        exact = UncertainGraph()
        for v in self._adj:
            exact.add_vertex(v)
        for u, v, p in self.edges():
            if isinstance(p, Fraction):
                exact.add_edge(u, v, p)
            else:
                exact.add_edge(u, v, Fraction(p).limit_denominator(max_denominator))
        return exact

    def connected_components(self) -> List[List[Vertex]]:
        """Return connected components as vertex lists (DFS order)."""
        seen = set()
        components = []
        for start in self._adj:
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            component = []
            while stack:
                v = stack.pop()
                component.append(v)
                for u in self._adj[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            components.append(component)
        return components

    def copy(self) -> "UncertainGraph":
        """Return an independent copy of this graph."""
        dup = UncertainGraph()
        dup._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        return dup

    def __repr__(self) -> str:
        return (
            f"UncertainGraph(n={self.num_vertices}, m={self.num_edges})"
        )

"""Hereditary properties for the general pivot framework.

A vertex-set property ``P`` is *hereditary* when every subset of a
``P``-set is again a ``P``-set.  The framework in
:mod:`repro.hereditary.framework` enumerates all maximal ``P``-sets of
a graph for any such property; this module supplies the instances used
in the paper and tests:

* :class:`CliqueProperty` — complete subgraphs of a deterministic graph
  (the classic Bron–Kerbosch setting);
* :class:`EtaCliqueProperty` — η-cliques of an uncertain graph (the
  paper's setting);
* :class:`IndependentSetProperty` — edgeless subgraphs;
* :class:`BoundedDegreeProperty` — subgraphs whose induced degree is at
  most ``d`` (an `s`-defective-clique-style example showing the
  principle extends beyond cliques).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.exceptions import ParameterError
from repro.core.config import require_eta
from repro.deterministic.graph import Graph
from repro.uncertain.clique_probability import clique_probability
from repro.uncertain.graph import UncertainGraph, Vertex


class HereditaryProperty:
    """Interface the framework consumes.

    Subclasses must implement :meth:`universe` (the ground vertex set)
    and :meth:`extends` (the one-vertex extension test).  ``extends``
    may assume ``members`` already satisfies the property — that is
    what heredity buys.
    """

    def universe(self) -> List[Vertex]:
        """All vertices that can participate in a ``P``-set."""
        raise NotImplementedError

    def extends(self, members: Sequence[Vertex], candidate: Vertex) -> bool:
        """Return True if ``members + [candidate]`` satisfies ``P``."""
        raise NotImplementedError

    def holds(self, vertices: Iterable[Vertex]) -> bool:
        """Full membership test (used by tests; O(|S|^2) via extends)."""
        members: List[Vertex] = []
        for v in vertices:
            if not self.extends(members, v):
                return False
            members.append(v)
        return True


class CliqueProperty(HereditaryProperty):
    """Complete subgraphs of a deterministic graph."""

    def __init__(self, graph: Graph):
        self._graph = graph

    def universe(self) -> List[Vertex]:
        return self._graph.vertices()

    def extends(self, members: Sequence[Vertex], candidate: Vertex) -> bool:
        neighbors = self._graph.neighbors(candidate)
        return all(v in neighbors for v in members)


class EtaCliqueProperty(HereditaryProperty):
    """η-cliques of an uncertain graph (Definition 2)."""

    def __init__(self, graph: UncertainGraph, eta):
        require_eta(eta)
        self._graph = graph
        self._eta = eta

    def universe(self) -> List[Vertex]:
        return self._graph.vertices()

    def extends(self, members: Sequence[Vertex], candidate: Vertex) -> bool:
        prob = clique_probability(self._graph, list(members) + [candidate])
        return prob >= self._eta


class IndependentSetProperty(HereditaryProperty):
    """Edgeless induced subgraphs of a deterministic graph."""

    def __init__(self, graph: Graph):
        self._graph = graph

    def universe(self) -> List[Vertex]:
        return self._graph.vertices()

    def extends(self, members: Sequence[Vertex], candidate: Vertex) -> bool:
        neighbors = self._graph.neighbors(candidate)
        return not any(v in neighbors for v in members)


class KPlexProperty(HereditaryProperty):
    """``s``-plexes: every member misses at most ``s - 1`` other members.

    A vertex set ``S`` is an ``s``-plex when each ``v ∈ S`` has at
    least ``|S| - s`` neighbors inside ``S``.  For ``s = 1`` this is
    exactly the clique property.  The property is hereditary: removing
    a vertex cannot decrease any remaining vertex's slack.
    """

    def __init__(self, graph: Graph, s: int):
        if s < 1:
            raise ParameterError(f"plex parameter s must be >= 1, got {s}")
        self._graph = graph
        self._s = s

    def universe(self) -> List[Vertex]:
        return self._graph.vertices()

    def extends(self, members: Sequence[Vertex], candidate: Vertex) -> bool:
        neighbors = self._graph.neighbors(candidate)
        new_size = len(members) + 1
        missing_for_candidate = sum(1 for v in members if v not in neighbors)
        if missing_for_candidate > self._s - 1:
            return False
        for v in members:
            v_neighbors = self._graph.neighbors(v)
            inside = sum(1 for w in members if w != v and w in v_neighbors)
            if candidate in v_neighbors:
                inside += 1
            if new_size - 1 - inside > self._s - 1:
                return False
        return True


class BoundedDegreeProperty(HereditaryProperty):
    """Subgraphs whose induced degree is bounded by ``max_degree``."""

    def __init__(self, graph: Graph, max_degree: int):
        if max_degree < 0:
            raise ParameterError(
                f"max_degree must be non-negative, got {max_degree}"
            )
        self._graph = graph
        self._max_degree = max_degree

    def universe(self) -> List[Vertex]:
        return self._graph.vertices()

    def extends(self, members: Sequence[Vertex], candidate: Vertex) -> bool:
        neighbors = self._graph.neighbors(candidate)
        inside = [v for v in members if v in neighbors]
        if len(inside) > self._max_degree:
            return False
        for v in inside:
            v_inside = sum(1 for w in members if w in self._graph.neighbors(v))
            if v_inside + 1 > self._max_degree:
                return False
        return True

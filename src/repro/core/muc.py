"""``MUC`` — set-enumeration baseline (Algorithm 1, Mukherjee et al.).

The recursive backtracking procedure maintains an η-clique ``R``, a
candidate dictionary ``C`` and an explored dictionary ``X`` under the
invariant that ``R ∪ {v}`` is an η-clique exactly for ``v ∈ C ∪ X``.
Candidates are expanded in lexicographic order; a set is emitted when
``C ∪ X = ∅`` and ``|R| >= k``.

Two variants are exposed:

* ``use_reduction=False`` — the original algorithm of Mukherjee et al.,
  run per connected component;
* ``use_reduction=True`` — the state-of-the-art comparator of Li et
  al. (the paper's ``MUC``), which first prunes the graph to its
  maximal ``(Top_{k-1}, η)``-core and then runs the same enumeration.

This baseline is intentionally faithful to Algorithm 1, including its
weakness: to emit a maximal clique ``H`` it explores every subset of
``H`` (see ``SearchStats.calls``), which is what the pivot algorithms
of :mod:`repro.core.pmuc` eliminate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.exceptions import ParameterError
from repro.core.candidates import generate_set
from repro.core.stats import EnumerationResult, SearchStats
from repro.reduction.topk_core import topk_core
from repro.uncertain.graph import UncertainGraph, Vertex

Sink = Callable[[frozenset], None]


class _StopEnumeration(Exception):
    """Internal signal: the configured output limit was reached."""


def muc(
    graph: UncertainGraph,
    k: int,
    eta,
    use_reduction: bool = True,
    on_clique: Optional[Sink] = None,
    limit: Optional[int] = None,
) -> EnumerationResult:
    """Enumerate all maximal ``(k, η)``-cliques with Algorithm 1.

    Parameters
    ----------
    graph:
        The uncertain graph.
    k:
        Minimum clique size (positive integer).
    eta:
        Probability threshold in ``(0, 1]``.
    use_reduction:
        Apply the ``(Top_{k-1}, η)``-core pre-reduction first (the
        state-of-the-art ``MUC`` configuration of Li et al.).
    on_clique:
        Optional callback invoked on each maximal clique as it is
        found; when given, cliques are *not* accumulated in the result.
    limit:
        Optional cap on the number of cliques to emit; enumeration
        stops cleanly once reached.

    Returns
    -------
    EnumerationResult
        The maximal cliques (unless ``on_clique`` is given) and the
        search statistics.
    """
    _check_parameters(k, eta)
    if limit is not None and limit < 1:
        raise ParameterError(f"limit must be positive, got {limit!r}")
    result = EnumerationResult()
    sink = on_clique if on_clique is not None else result.cliques.sink()

    def emit(members: List[Vertex]) -> None:
        result.stats.outputs += 1
        sink(frozenset(members))
        if limit is not None and result.stats.outputs >= limit:
            raise _StopEnumeration

    # The core reduction discards isolated vertices, which are valid
    # maximal (1, η)-cliques, so it is only sound for k >= 2.
    search_graph = graph
    if use_reduction and k >= 2:
        search_graph = topk_core(graph, k - 1, eta)
    engine = _MucEngine(search_graph, k, eta, result.stats, emit)
    try:
        for component in search_graph.connected_components():
            engine.run_component(component)
    except _StopEnumeration:
        pass
    return result


class _MucEngine:
    """One enumeration run of Algorithm 1 over a fixed graph."""

    def __init__(
        self,
        graph: UncertainGraph,
        k: int,
        eta,
        stats: SearchStats,
        emit: Callable[[List[Vertex]], None],
    ):
        self._graph = graph
        self._k = k
        self._eta = eta
        self._stats = stats
        self._emit = emit

    def run_component(self, component: List[Vertex]) -> None:
        """Enumerate the maximal cliques inside one connected component."""
        candidates: Dict[Vertex, object] = {
            v: 1 for v in sorted(component, key=repr)
        }
        self._recurse([], 1, candidates, {}, depth=1)

    def _recurse(
        self,
        r: List[Vertex],
        q,
        c: Dict[Vertex, object],
        x: Dict[Vertex, object],
        depth: int,
    ) -> None:
        stats = self._stats
        stats.calls += 1
        stats.observe_depth(depth)
        if not c and not x:
            if len(r) >= self._k:
                self._emit(r)
            return
        # Lexicographic expansion over a snapshot of C (Algorithm 1 l.7).
        for v in sorted(c, key=repr):
            rv = c[v]
            q_new = q * rv
            r.append(v)
            c_new = generate_set(self._graph, v, c, q_new, self._eta)
            c_new.pop(v, None)
            x_new = generate_set(self._graph, v, x, q_new, self._eta)
            if len(r) + len(c_new) >= self._k:
                stats.expansions += 1
                self._recurse(r, q_new, c_new, x_new, depth + 1)
            else:
                stats.size_prunes += 1
            r.pop()
            del c[v]
            x[v] = rv


def _check_parameters(k: int, eta) -> None:
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    if not 0 < eta <= 1:
        raise ParameterError(f"eta must lie in (0, 1], got {eta!r}")

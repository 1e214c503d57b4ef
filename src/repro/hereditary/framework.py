"""The general pivot principle for maximal hereditary subgraphs.

This is Algorithm 2 of the paper made concrete: a set-enumeration
search over ``R / C / X`` in which each recursive call may prune a
*periphery set* ``P ⊆ C`` — any set such that ``R ∪ P`` contains no
maximal ``P``-subgraph containing ``R`` (Lemmas 1-2).  The periphery is
discovered M-pivot style: explore the pivot branch first, record the
maximum ``P``-set found, and defer candidates covered by it; deferred
candidates are re-examined whenever the recorded maximum changes
(Lemma 4), and the call stops once every remaining candidate lies
inside the final recorded maximum.

The framework is property-agnostic: give it any
:class:`~repro.hereditary.properties.HereditaryProperty` and it
enumerates all maximal ``P``-sets, demonstrating the "independent
interest" claim of Section 4.1.  It trades the incremental-probability
bookkeeping of :class:`repro.core.pmuc.PivotEnumerator` for a single
``extends`` callback, so it is the clear-but-slower general engine —
the specialized enumerator remains the fast path for η-cliques.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.stats import EnumerationResult
from repro.hereditary.properties import HereditaryProperty
from repro.uncertain.graph import Vertex


def enumerate_maximal_sets(
    prop: HereditaryProperty, use_pivot: bool = True
) -> EnumerationResult:
    """Enumerate all maximal ``P``-sets of ``prop`` (Algorithm 2).

    With ``use_pivot=False`` the periphery stays empty and the search
    degenerates to plain set enumeration — handy for measuring how much
    the general pivot principle saves (``SearchStats.calls``).
    """
    result = EnumerationResult()
    engine = _PivotFramework(prop, use_pivot, result)
    engine.run()
    return result


class _PivotFramework:
    def __init__(
        self, prop: HereditaryProperty, use_pivot: bool, result: EnumerationResult
    ):
        self._prop = prop
        self._use_pivot = use_pivot
        self._result = result
        self._emit = result.cliques.sink()

    def run(self) -> None:
        universe = self._prop.universe()
        # Single-vertex P-sets are assumed admissible; drop vertices
        # that are not even singleton P-sets (e.g. eta > every edge
        # probability never affects singletons, but a property may
        # reject a vertex outright).
        candidates = [v for v in universe if self._prop.extends((), v)]
        self._recurse([], candidates, [], [], depth=1)

    def _recurse(
        self,
        r: List[Vertex],
        c: List[Vertex],
        x: List[Vertex],
        best: List[Vertex],
        depth: int,
    ) -> List[Vertex]:
        """Returns the maximum P-set containing ``r`` found so far."""
        stats = self._result.stats
        stats.calls += 1
        stats.observe_depth(depth)
        if not c and not x:
            self._result.stats.outputs += 1
            self._emit(frozenset(r))
            return list(r)
        if not c:
            return best if len(best) > len(r) else list(r)
        unexpanded = list(c)
        periphery: Set[Vertex] = set()
        while True:
            u = next((w for w in unexpanded if w not in periphery), None)
            if u is None:
                stats.mpivot_skips += len(unexpanded)
                break
            r.append(u)
            c_new = [w for w in c if w != u and self._prop.extends(r, w)]
            x_new = [w for w in x if self._prop.extends(r, w)]
            stats.expansions += 1
            branch_best = self._recurse(r, c_new, x_new, list(r), depth + 1)
            r.pop()
            if self._use_pivot and len(periphery) < len(branch_best):
                periphery = set(branch_best)
            if len(branch_best) > len(best):
                best = branch_best
            unexpanded.remove(u)
            c.remove(u)
            x.append(u)
        return best


def maximal_sets_naive(
    prop: HereditaryProperty, limit: int = 20
) -> List[frozenset]:
    """Brute-force oracle: maximal ``P``-sets by subset enumeration.

    Exponential in the universe size (capped at ``limit`` vertices);
    used to validate the framework in tests.
    """
    from itertools import combinations

    universe = prop.universe()
    if len(universe) > limit:
        raise ValueError(
            f"naive enumeration limited to {limit} vertices, "
            f"got {len(universe)}"
        )
    p_sets = [frozenset()]
    for size in range(1, len(universe) + 1):
        found_any = False
        for subset in combinations(universe, size):
            if prop.holds(subset):
                p_sets.append(frozenset(subset))
                found_any = True
        if not found_any:
            break
    p_set_index = set(p_sets)
    maximal = [
        s
        for s in p_sets
        if s
        and not any(
            frozenset(s | {v}) in p_set_index for v in universe if v not in s
        )
    ]
    return sorted(maximal, key=lambda s: (len(s), sorted(map(repr, s))))

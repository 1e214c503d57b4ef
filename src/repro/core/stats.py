"""Search-tree instrumentation shared by all enumerators.

The paper's central claim is about *search effort*: the set-enumeration
baseline explores every subset of each maximal clique, while the pivot
algorithms skip most of them.  :class:`SearchStats` counts exactly the
quantities that claim is about, so tests and benchmarks can assert the
reduction directly instead of relying on wall-clock noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SearchStats:
    """Counters describing one enumeration run.

    Attributes
    ----------
    calls:
        Number of recursive-procedure invocations (nodes of the search
        tree, including the root calls of the outer loop).
    expansions:
        Number of candidate vertices actually expanded into a child
        branch.
    outputs:
        Number of maximal ``(k, η)``-cliques emitted.
    mpivot_skips:
        Candidates skipped because they belonged to the current
        M-pivot periphery (the recorded maximum η-clique).
    kpivot_stops:
        Recursive calls cut short by the size-constraint (K-pivot)
        stopping rule.
    size_prunes:
        Child branches skipped because ``|R'| + bound(C')`` could not
        reach ``k``.
    max_depth:
        Deepest recursion level reached (root call = depth 1).
    """

    calls: int = 0
    expansions: int = 0
    outputs: int = 0
    mpivot_skips: int = 0
    kpivot_stops: int = 0
    size_prunes: int = 0
    max_depth: int = 0

    def observe_depth(self, depth: int) -> None:
        """Record a visit at ``depth`` of the search tree."""
        if depth > self.max_depth:
            self.max_depth = depth

    def as_dict(self) -> dict:
        """Plain-dict view (used by the bench harness)."""
        return {
            "calls": self.calls,
            "expansions": self.expansions,
            "outputs": self.outputs,
            "mpivot_skips": self.mpivot_skips,
            "kpivot_stops": self.kpivot_stops,
            "size_prunes": self.size_prunes,
            "max_depth": self.max_depth,
        }


@dataclass
class EnumerationResult:
    """Outcome of an enumeration run: the cliques plus search counters.

    Monolithic runs leave ``shards``/``fleet`` empty.  The partitioned
    and parallel drivers (:mod:`repro.core.partition`) fill them: one
    breakdown dict per seed chunk (its own counters, wall seconds,
    pid, peak RSS, optional metrics snapshot and flight-log path) plus
    the cross-worker imbalance/utilization summary of
    :func:`repro.obs.fleet.fleet_summary` — so the merged ``stats``
    stop being the only surviving view of a fan-out.

    ``phases`` holds the engine's per-phase seconds (``reduction``,
    ``ordering``, ``recursion``, ``sanitize``), recorded on every
    engine run whether or not an observer is bound; merged results sum
    them over shards.  Wall time is never part of result equality.
    """

    cliques: list = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    shards: list = field(default_factory=list)
    fleet: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict, compare=False)

    def __iter__(self):
        return iter(self.cliques)

    def __len__(self) -> int:
        return len(self.cliques)

    def as_sorted_sets(self) -> list:
        """Canonical, order-independent view for comparisons in tests."""
        return sorted(
            (frozenset(c) for c in self.cliques),
            key=lambda s: (len(s), sorted(map(repr, s))),
        )

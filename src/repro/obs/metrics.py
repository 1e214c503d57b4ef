"""The metrics registry: counters, gauges, timers, per-depth histograms.

:class:`~repro.core.stats.SearchStats` counts seven flat quantities;
the paper's figures ask *where* in the search tree the effort goes
(recursion-tree size by level, pruning effectiveness by level) and
*where the time goes* (reduction vs ordering vs recursion).  The
registry generalizes the flat counters along both axes:

* **counters** — monotonically increasing integers (``nodes``,
  ``expansions``, ``emits``, ...);
* **gauges** — last-write-wins scalars (``vertices_input``,
  ``vertices_search``);
* **timers** — accumulated seconds per named phase (``reduction``,
  ``ordering``, ``recursion``, ``sanitize``);
* **depth histograms** — integer-keyed counts per recursion depth
  (``nodes``, ``expansions``, ``emits``, ``prune_*``, and the
  depth-abused ``clique_size`` distribution).

Everything serializes to a plain, deterministically-ordered dict
(:meth:`MetricsRegistry.as_dict`) and back
(:meth:`MetricsRegistry.from_dict`), so metrics files diff cleanly and
two runs can be compared key by key.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Derived per-depth columns rendered by ``repro.obs report``: the mean
#: branching factor at depth d is ``expansions[d] / nodes[d]``.
DEPTH_METRICS = (
    "nodes",
    "expansions",
    "emits",
    "prune_kpivot",
    "prune_mpivot",
    "prune_size",
)


class MetricsRegistry:
    """A bag of named counters, gauges, timers and depth histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, float] = {}
        self._depth: Dict[str, Dict[int, int]] = {}

    # -- writers -------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value) -> None:
        """Set gauge ``name`` (last write wins)."""
        self._gauges[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` onto phase timer ``name``."""
        self._timers[name] = self._timers.get(name, 0.0) + seconds

    def add_stats(self, flat: Dict[str, int]) -> None:
        """Fold flat :class:`~repro.core.stats.SearchStats` counters:
        ``max_depth`` is a gauge, every other field a counter."""
        for name in sorted(flat):
            if name == "max_depth":
                self.set_gauge(name, flat[name])
            else:
                self.inc(name, int(flat[name]))

    def observe_depth(self, name: str, depth: int, amount: int = 1) -> None:
        """Count one (or ``amount``) events at ``depth`` in histogram
        ``name``."""
        hist = self._depth.get(name)
        if hist is None:
            hist = self._depth[name] = {}
        hist[depth] = hist.get(depth, 0) + amount

    # -- readers -------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never touched)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str):
        """Current value of gauge ``name`` (None when never set)."""
        return self._gauges.get(name)

    def timer(self, name: str) -> float:
        """Accumulated seconds of phase ``name`` (0.0 when never hit)."""
        return self._timers.get(name, 0.0)

    def depth_histogram(self, name: str) -> Dict[int, int]:
        """A copy of depth histogram ``name`` (depth -> count)."""
        return dict(self._depth.get(name, {}))

    def counters(self) -> Dict[str, int]:
        """All counters, sorted by name."""
        return {k: self._counters[k] for k in sorted(self._counters)}

    def timers(self) -> Dict[str, float]:
        """All phase timers, sorted by name."""
        return {k: self._timers[k] for k in sorted(self._timers)}

    # -- combination / serialization -----------------------------------
    def merge(self, other: "MetricsRegistry", gauges: str = "last") -> None:
        """Fold ``other`` into this registry.

        Counters, timers and depth histograms always sum.  Gauges
        follow ``gauges``: ``"last"`` (default, the session semantics
        — later runs overwrite) or ``"max"`` (cross-worker merges —
        order-insensitive, and the right fold for high-water gauges
        like ``max_depth`` or ``peak_rss_bytes``; non-comparable
        values fall back to last-write).
        """
        if gauges not in ("last", "max"):
            raise ValueError(
                f"gauges must be 'last' or 'max', got {gauges!r}"
            )
        for name in sorted(other._counters):
            self.inc(name, other._counters[name])
        for name in sorted(other._gauges):
            value = other._gauges[name]
            if gauges == "max":
                current = self._gauges.get(name)
                try:
                    keep = current is not None and current >= value
                except TypeError:
                    keep = False
                if keep:
                    continue
            self.set_gauge(name, value)
        for name in sorted(other._timers):
            self.add_time(name, other._timers[name])
        for name in sorted(other._depth):
            hist = other._depth[name]
            for depth in sorted(hist):
                self.observe_depth(name, depth, hist[depth])

    def as_dict(self) -> Dict[str, object]:
        """Deterministically ordered plain-dict view.

        Depth keys become strings (JSON object keys), sorted
        numerically so the serialized form is byte-stable.
        """
        return {
            "counters": self.counters(),
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "phases": self.timers(),
            "depth": {
                name: {
                    str(depth): hist[depth] for depth in sorted(hist)
                }
                for name, hist in sorted(self._depth.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output."""
        registry = cls()
        for name, value in dict(doc.get("counters", {})).items():
            registry.inc(name, int(value))
        for name, value in dict(doc.get("gauges", {})).items():
            registry.set_gauge(name, value)
        for name, value in dict(doc.get("phases", {})).items():
            registry.add_time(name, float(value))
        for name, hist in dict(doc.get("depth", {})).items():
            for depth, count in dict(hist).items():
                registry.observe_depth(name, int(depth), int(count))
        return registry

    def branching_factors(self) -> Dict[int, Optional[float]]:
        """Mean branching factor per depth: expansions[d] / nodes[d]."""
        nodes = self._depth.get("nodes", {})
        expansions = self._depth.get("expansions", {})
        return {
            depth: (
                expansions.get(depth, 0) / nodes[depth]
                if nodes[depth]
                else None
            )
            for depth in sorted(nodes)
        }

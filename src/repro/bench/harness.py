"""Shared experiment-harness utilities.

Times enumerations, collects search statistics and renders the
row/series layout of the paper's tables and figures as plain text, so
every benchmark prints something directly comparable to the published
artifact.  The harness stores nothing.

A configured run is timed and stamped by
:func:`repro.store.records.run_stamped`, the one timer every producer
shares; :class:`RunRecord` is re-exported here.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.api import enumerate_maximal_cliques
from repro.core.config import PivotConfig
from repro.core.pmuc import PivotEnumerator
from repro.store.records import RunRecord, run_stamped
from repro.uncertain.graph import UncertainGraph

__all__ = [
    "RunRecord",
    "timed_enumeration",
    "timed_config_enumeration",
    "peak_memory_bytes",
    "format_table",
    "print_table",
]


def timed_enumeration(
    label: str, graph: UncertainGraph, k: int, eta, algorithm: str
) -> RunRecord:
    """Time one named-algorithm enumeration (discarding cliques)."""
    count = [0]

    def sink(_clique: frozenset) -> None:
        count[0] += 1

    start = time.perf_counter()
    result = enumerate_maximal_cliques(graph, k, eta, algorithm, on_clique=sink)
    elapsed = time.perf_counter() - start
    return RunRecord(label, elapsed, count[0], result.stats.as_dict())


def timed_config_enumeration(
    label: str,
    graph: UncertainGraph,
    k: int,
    eta,
    config: PivotConfig,
) -> RunRecord:
    """Time one :class:`PivotConfig`-driven enumeration.

    The cliques stream to a sink that drops them, so the timed window
    holds no result list; the record (from
    :func:`~repro.store.records.run_stamped`) counts them from
    ``stats.outputs`` and names the backend that actually ran.
    """
    enumerator = PivotEnumerator(
        graph, k, eta, config, on_clique=lambda _clique: None
    )
    return run_stamped(label, enumerator, k, eta)[1]


def peak_memory_bytes(action: Callable[[], object]) -> int:
    """Peak additional memory allocated while running ``action``."""
    tracemalloc.start()
    try:
        action()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def format_table(rows: Sequence[Dict[str, object]], title: Optional[str] = None) -> str:
    """Render dict rows as an aligned text table (paper-style)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(c).ljust(widths[c]) for c in columns))
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(
            " | ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


def print_table(rows: Sequence[Dict[str, object]], title: Optional[str] = None) -> None:
    """Print :func:`format_table` output."""
    print(format_table(rows, title))


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)

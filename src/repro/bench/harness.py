"""Shared experiment-harness utilities.

Runs configured enumerations under a timer, collects search statistics
and renders the row/series layout of the paper's tables and figures as
plain text, so every benchmark prints something directly comparable to
the published artifact.

Record stamping (backend/variant/env fingerprints, full-precision
seconds) lives in :mod:`repro.store.records` — one writer shared by
every producer; :class:`RunRecord` is re-exported here for
compatibility.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.api import enumerate_maximal_cliques
from repro.core.config import PivotConfig
from repro.core.pmuc import PivotEnumerator
from repro.exceptions import SanitizerViolation
from repro.store.records import RunRecord, stamped_record
from repro.uncertain.graph import UncertainGraph

__all__ = [
    "RunRecord",
    "timed_enumeration",
    "timed_config_enumeration",
    "sanitized_config_enumeration",
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
    sanitize: Optional[str] = None,
    obs: Optional[str] = None,
) -> RunRecord:
    """Time one :class:`PivotConfig`-driven enumeration.

    ``sanitize`` (``"off"``/``"light"``/``"full"``) overrides the
    config's sanitizer level for this run; checks then count toward the
    measured time, which is the point — the harness is how sanitizer
    overhead is quantified.  ``obs`` (``"off"``/``"metrics"``/
    ``"full"``) likewise overrides the observability level — the same
    mechanism quantifies observer overhead.
    """
    if sanitize is not None:
        config = replace(config, sanitize=sanitize)
    if obs is not None:
        config = replace(config, obs=obs)
    count = [0]

    def sink(_clique: frozenset) -> None:
        count[0] += 1

    enumerator = PivotEnumerator(graph, k, eta, config, on_clique=sink)
    start = time.perf_counter()
    result = enumerator.run()
    elapsed = time.perf_counter() - start
    # ``backend_used``, not ``config.backend``: the kernel silently
    # falls back to dict on unsupported inputs, and the row must say
    # what actually ran (the diff gate refuses cross-backend rows).
    return stamped_record(
        label,
        elapsed,
        count[0],
        result.stats.as_dict(),
        backend=enumerator.backend_used,
        variant=enumerator.variant_used,
    )


def sanitized_config_enumeration(
    label: str,
    graph: UncertainGraph,
    k: int,
    eta,
    config: PivotConfig,
    sanitize: str = "full",
) -> RunRecord:
    """A sanitized run that records violations instead of raising.

    On a violation the record carries ``extra["violation"]`` (the
    serialized :class:`~repro.sanitize.report.ViolationReport` dict,
    replayable via :func:`repro.sanitize.replay`) and the clique count
    reached before the check fired.
    """
    config = replace(config, sanitize=sanitize)
    count = [0]

    def sink(_clique: frozenset) -> None:
        count[0] += 1

    enumerator = PivotEnumerator(graph, k, eta, config, on_clique=sink)
    start = time.perf_counter()
    extra: Dict[str, object] = {"sanitize": sanitize}
    try:
        result = enumerator.run()
        stats = result.stats.as_dict()
    except SanitizerViolation as violation:
        stats = {}
        extra["violation"] = (
            violation.report.as_dict()
            if violation.report is not None
            else {"message": str(violation)}
        )
    elapsed = time.perf_counter() - start
    return stamped_record(
        label,
        elapsed,
        count[0],
        stats,
        extra=extra,
        backend=enumerator.backend_used,
        variant=enumerator.variant_used,
    )


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

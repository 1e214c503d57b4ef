"""Observation sessions: collect per-run observers, write artifacts.

The enumerators build their own :class:`~repro.obs.observer.Observer`
per run (via :func:`~repro.obs.observer.build_observer`), which is the
right granularity for metrics but the wrong one for artifacts: a
benchmark executes many runs and wants *one* trace file, *one* folded
profile, *one* metrics document.  An :class:`ObsSession` bridges the
two — while a session is active (the :func:`observe` context manager),
every observer built anywhere in the process registers with it, and the
session writes the combined artifacts when the context exits:

>>> with observe(trace_path="run.trace.jsonl") as session:
...     PivotEnumerator(graph, k, eta, config).run()
>>> session.metrics_document()["merged"]["counters"]["outputs"]

Sessions nest (a stack); observers register with the innermost one.
Runs appear in the trace as separate thread lanes (``tid`` 1, 2, ...)
named after their backend.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import DEFAULT_SAMPLE_EVERY, Observer
from repro.obs.tracer import FoldedStacks

#: Schema tag of the session metrics document (see ``repro.obs report``).
METRICS_SCHEMA = "repro.obs/metrics-v1"

_ACTIVE: List["ObsSession"] = []


def current_session() -> Optional["ObsSession"]:
    """The innermost active session, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


class ObsSession:
    """One observation window over any number of enumeration runs."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        folded_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        clock=None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        progress=None,
        flight=None,
    ) -> None:
        self.trace_path = trace_path
        self.folded_path = folded_path
        self.metrics_path = metrics_path
        self.clock = clock
        self.sample_every = sample_every
        #: Optional :class:`~repro.obs.progress.ProgressTracker` /
        #: :class:`~repro.obs.flight.FlightRecorder` handed to every
        #: observer built inside the session — the seam the ``--progress``
        #: CLI flags and the parallel workers' flight logs ride.
        self.progress = progress
        self.flight = flight
        self.observers: List[Observer] = []

    def register(self, observer: Observer) -> None:
        """Attach one run's observer; assigns its trace lane."""
        self.observers.append(observer)
        observer.progress = self.progress
        observer.flight = self.flight
        if observer.tracer is not None:
            observer.tracer.set_tid(len(self.observers))

    # -- combined artifact views ---------------------------------------
    def trace_jsonl(self) -> str:
        """All runs' trace events as one JSONL stream."""
        return "".join(
            observer.tracer.to_jsonl()
            for observer in self.observers
            if observer.tracer is not None
        )

    def folded_text(self) -> str:
        """All runs' sampled stacks merged into one folded profile."""
        merged = FoldedStacks()
        for observer in self.observers:
            if observer.folded is not None:
                merged.merge(observer.folded)
        return merged.render()

    def metrics_document(self) -> Dict[str, object]:
        """Per-run and merged metrics as a plain JSON-ready document."""
        merged = MetricsRegistry()
        runs = []
        for index, observer in enumerate(self.observers):
            merged.merge(observer.metrics)
            runs.append({
                "index": index,
                "backend": observer.backend,
                "variant": observer.variant,
                "level": observer.level,
                "metrics": observer.metrics.as_dict(),
            })
        # Imported lazily: keeps the session importable on platforms
        # without the resource module until a document is rendered.
        from repro.obs.runtime import runtime_fingerprint

        return {
            "schema": METRICS_SCHEMA,
            "env": runtime_fingerprint(),
            "runs": runs,
            "merged": merged.as_dict(),
        }

    def finish(self) -> None:
        """Write every configured artifact file."""
        if self.trace_path is not None:
            with open(self.trace_path, "w") as handle:
                handle.write(self.trace_jsonl())
        if self.folded_path is not None:
            with open(self.folded_path, "w") as handle:
                handle.write(self.folded_text())
        if self.metrics_path is not None:
            with open(self.metrics_path, "w") as handle:
                json.dump(self.metrics_document(), handle, indent=2)
                handle.write("\n")


@contextmanager
def observe(
    trace_path: Optional[str] = None,
    folded_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    clock=None,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    progress=None,
    flight=None,
):
    """Activate an :class:`ObsSession` for the duration of the block.

    Artifacts are written on exit even when the block raises, so a
    crashed benchmark still leaves its partial trace behind for
    inspection.  ``progress``/``flight`` are handed to every observer
    the block builds (see :class:`ObsSession`).
    """
    session = ObsSession(
        trace_path=trace_path,
        folded_path=folded_path,
        metrics_path=metrics_path,
        clock=clock,
        sample_every=sample_every,
        progress=progress,
        flight=flight,
    )
    _ACTIVE.append(session)
    try:
        yield session
    finally:
        _ACTIVE.pop()
        session.finish()

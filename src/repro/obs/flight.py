"""The flight recorder: an append-only, crash-safe JSONL event stream.

A parallel enumeration is many processes, any of which can die mid-run
(OOM on a dense shard, a sanitizer violation, a killed pool).  The
in-memory :class:`~repro.obs.metrics.MetricsRegistry` of a dead worker
is gone; its flight log is not.  Each process appends one
schema-versioned JSON object per line and flushes after every write,
so whatever survives a crash is a valid prefix of the stream and the
parent (or a human with ``python -m repro.obs report``) can replay it.

Event kinds (``repro.obs/flight-v1``):

==============  =====================================================
event           meaning
==============  =====================================================
``open``        stream header: schema tag, role (parent/worker),
                worker index, pid
``run_start``   one enumeration begins (workload parameters, shard)
``dispatch``    parent handed one shard to a worker
``phase``       one named engine phase and its measured seconds
``milestone``   every N-th emitted clique (progress breadcrumb;
                ``metrics``/``full`` only — it rides the per-node
                ``on_emit`` hook)
``heartbeat``   throttled liveness sample: peak RSS plus caller gauges
``violation``   the run died (sanitizer violation or any exception)
``finish``      run completed: flat stats, full metrics snapshot,
                wall seconds, peak RSS (a worker's is its shard
                breakdown, see :mod:`repro.core.partition`)
==============  =====================================================

Every record carries a monotonically increasing ``seq`` and a ``t_s``
timestamp relative to the recorder's own start (clocks of separate
processes are not synchronized; the parent's ``dispatch`` records are
the cross-process anchors).  :func:`replay_flight` tolerates a
truncated final line — the tail a crash cut mid-write — and
:func:`merge_flight_registries` rebuilds the cross-worker registry
deterministically, independent of worker completion order.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import peak_rss_bytes

#: Schema tag stamped into every stream's ``open`` record.
FLIGHT_SCHEMA = "repro.obs/flight-v1"

#: Minimum seconds between ``heartbeat`` records (unless forced).
DEFAULT_HEARTBEAT_EVERY = 0.25


class FlightRecorder:
    """Appends flight events to one JSONL file, flushing per record."""

    def __init__(
        self,
        path: str,
        role: str = "worker",
        worker: int = 0,
        clock=None,
        meta: Optional[Dict[str, object]] = None,
        heartbeat_every: float = DEFAULT_HEARTBEAT_EVERY,
    ) -> None:
        self.path = path
        self.role = role
        self.worker = worker
        self._clock = clock if clock is not None else time.monotonic
        self._t0 = self._clock()
        self._seq = 0
        self._heartbeat_every = heartbeat_every
        self._last_heartbeat: Optional[float] = None
        self._handle = open(path, "a", encoding="utf-8")
        self.record(
            "open",
            schema=FLIGHT_SCHEMA,
            role=role,
            worker=worker,
            pid=os.getpid(),
            **(meta or {}),
        )

    # -- the one writer ------------------------------------------------
    def record(self, event: str, **fields) -> None:
        """Append one event; the write is flushed before returning.

        Flushing per line is the crash-safety contract: a process that
        dies right after an event leaves that event on disk, and a
        process that dies *during* a write leaves at most one
        truncated final line, which :func:`replay_flight` drops.
        """
        entry: Dict[str, object] = {
            "event": event,
            "seq": self._seq,
            "t_s": round(self._clock() - self._t0, 6),
        }
        entry.update(fields)
        self._seq += 1
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    # -- typed events --------------------------------------------------
    def run_start(self, **fields) -> None:
        """One enumeration begins in this process."""
        self.record("run_start", **fields)

    def dispatch(self, shard: int, seeds: int, path: str) -> None:
        """Parent-side: one shard handed to a worker."""
        self.record("dispatch", shard=shard, seeds=seeds, path=path)

    def phase(self, name: str, seconds: float) -> None:
        """One named engine phase and its measured duration."""
        self.record("phase", name=name, seconds=round(seconds, 6))

    def milestone(self, outputs: int, **fields) -> None:
        """Emission progress breadcrumb (every N-th clique)."""
        self.record("milestone", outputs=outputs, **fields)

    def heartbeat(self, force: bool = False, **gauges) -> None:
        """Throttled liveness sample; always stamps peak RSS.

        Callers may invoke this per hook site (e.g. once per root of
        the outer loop); the recorder drops samples closer than
        ``heartbeat_every`` seconds to the previous one so hot callers
        cannot flood the stream.
        """
        now = self._clock()
        if (
            not force
            and self._last_heartbeat is not None
            and now - self._last_heartbeat < self._heartbeat_every
        ):
            return
        self._last_heartbeat = now
        self.record("heartbeat", peak_rss_bytes=peak_rss_bytes(), **gauges)

    def violation(self, kind: str, detail: str) -> None:
        """The run died: record why before the process goes away."""
        self.record("violation", kind=kind, detail=detail)

    def finish(self, **fields) -> None:
        """Run completed; carries stats/metrics for exact replay.

        Stamps the process's peak RSS unless ``fields`` carries one.
        """
        fields.setdefault("peak_rss_bytes", peak_rss_bytes())
        self.record("finish", **fields)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class FlightLog:
    """One replayed flight stream: parsed events plus derived views."""

    def __init__(
        self, path: str, events: List[Dict[str, object]], truncated: bool
    ) -> None:
        self.path = path
        self.events = events
        self.truncated = truncated
        header = events[0] if events else {}
        if header.get("event") != "open":
            header = {}
        self.schema = header.get("schema")
        self.role = header.get("role", "worker")
        self.worker = int(header.get("worker", 0) or 0)
        self.pid = header.get("pid")

    def first(self, event: str) -> Optional[Dict[str, object]]:
        """The first event of the given kind, or None."""
        for entry in self.events:
            if entry.get("event") == event:
                return entry
        return None

    def finish(self) -> Optional[Dict[str, object]]:
        """The ``finish`` record, or None for a crashed/partial log."""
        return self.first("finish")

    def wall_s(self) -> Optional[float]:
        """Recorded wall seconds of the run, or None."""
        finish = self.finish()
        if finish is None:
            return None
        wall = finish.get("wall_s")
        return float(wall) if wall is not None else None

    def registry(self) -> Optional[MetricsRegistry]:
        """Rebuild the run's metrics registry from the stream.

        Prefers the full ``metrics`` snapshot of the ``finish`` record
        (byte-identical to the live registry); falls back to folding
        the flat ``stats`` counters through
        :meth:`~repro.obs.metrics.MetricsRegistry.add_stats`, as
        :meth:`repro.obs.observer.Observer.on_finish` does, so an
        obs-off flight log still replays into comparable counters.
        Returns None when the log has no ``finish`` record (crash).
        """
        finish = self.finish()
        if finish is None:
            return None
        metrics = finish.get("metrics")
        if metrics:
            return MetricsRegistry.from_dict(metrics)
        stats = finish.get("stats")
        if stats is None:
            return None
        registry = MetricsRegistry()
        registry.add_stats(stats)
        return registry


def replay_flight(path: str) -> FlightLog:
    """Parse one flight log, tolerating a truncated final line.

    A line that fails to parse marks the log ``truncated`` and ends
    the replay there — everything before it is a valid prefix (the
    per-line flush guarantees complete earlier lines), everything
    after it cannot be trusted.
    """
    events: List[Dict[str, object]] = []
    truncated = False
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                entry = json.loads(stripped)
            except ValueError:
                truncated = True
                break
            if not isinstance(entry, dict):
                truncated = True
                break
            events.append(entry)
    return FlightLog(path, events, truncated)


def merge_flight_registries(logs: List[FlightLog]) -> MetricsRegistry:
    """One registry across workers, independent of completion order.

    Logs are merged in ``(worker, role, path)`` order and gauges merge
    by maximum, so shuffling the input (workers finishing in any
    order) cannot change a single byte of the result.  Logs without a
    ``finish`` record (crashed workers) contribute nothing.
    """
    merged = MetricsRegistry()
    ordered = sorted(
        logs, key=lambda log: (log.worker, str(log.role), log.path)
    )
    for log in ordered:
        registry = log.registry()
        if registry is not None:
            merged.merge(registry, gauges="max")
    return merged

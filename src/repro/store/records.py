"""Run records, the one record writer and the one store path.

:class:`RunRecord` moved here from ``repro.bench.harness`` (which
re-exports it).  Every producer stamps its records here, once:

* :func:`stamped_record` — build a :class:`RunRecord` with the
  backend/variant stamps and the :func:`repro.obs.runtime.run_env`
  fingerprint merged into ``extra``;
* :func:`result_record` — the record of a finished run: its clique
  count, counters and everything ``StoredRun.result()`` replays
  (phase seconds; a partitioned run's shards and fleet summary);
* :func:`run_stamped` — the one timer of an ``enumerator.run()``:
  the run's result and its :func:`result_record`;
* :func:`replay_or_run` — the one store path: the stored run for a
  key, or a fresh run stored under it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs.runtime import run_env


@dataclass
class RunRecord:
    """One timed enumeration run."""

    label: str
    seconds: float
    num_cliques: int
    stats: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)


def stamped_record(
    label: str,
    seconds: float,
    num_cliques: int,
    stats: Optional[Dict[str, int]] = None,
    extra: Optional[Dict[str, object]] = None,
    backend: Optional[str] = None,
    variant: Optional[str] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` with the standard stamps applied.

    ``backend`` must be the backend that *actually ran* (e.g.
    ``PivotEnumerator.backend_used`` — the kernel silently falls back
    to dict on unsupported inputs, and a stored record must say what
    ran).  ``seconds`` is stored at full precision; the env
    fingerprint (python/platform/peak RSS) is merged last so a
    caller-provided ``extra`` cannot shadow it.
    """
    merged: Dict[str, object] = dict(extra or {})
    if backend is not None:
        merged["backend"] = backend
    if variant is not None:
        merged["variant"] = variant
    merged.update(run_env())
    return RunRecord(
        label, seconds, num_cliques, dict(stats or {}), merged
    )


def result_record(
    label: str,
    seconds: float,
    result,
    k: int,
    eta,
    extra: Optional[Dict[str, object]] = None,
    backend: Optional[str] = None,
    variant: Optional[str] = None,
) -> RunRecord:
    """The record of a finished run, as :meth:`StoredRun.result` reads it.

    ``num_cliques`` is ``result.stats.outputs``, so a run that
    streamed its cliques to a sink counts them too.  ``extra`` keeps
    the phase seconds and, for a partitioned run, the shard
    breakdowns and the fleet summary without its merged metrics
    registry (each shard keeps its own snapshot).
    """
    merged: Dict[str, object] = {"k": k, "eta": repr(eta)}
    merged.update(extra or {})
    merged["phases"] = result.phases
    if result.shards:
        merged["shards"] = result.shards
        merged["fleet"] = {
            name: value
            for name, value in sorted(result.fleet.items())
            if name != "metrics"
        }
    return stamped_record(
        label,
        seconds,
        result.stats.outputs,
        result.stats.as_dict(),
        extra=merged,
        backend=backend,
        variant=variant,
    )


def run_stamped(
    label: str,
    enumerator,
    k: int,
    eta,
    extra: Optional[Dict[str, object]] = None,
) -> tuple:
    """Time ``enumerator.run()``: ``(result, record)``."""
    start = time.perf_counter()
    result = enumerator.run()
    seconds = time.perf_counter() - start
    return result, result_record(
        label,
        seconds,
        result,
        k,
        eta,
        extra,
        backend=enumerator.backend_used,
        variant=enumerator.variant_used,
    )


def replay_or_run(
    store,
    key,
    produce: Callable[[], tuple],
    artifacts: Optional[Callable[[], Dict[str, str]]] = None,
) -> tuple:
    """``(result, record, stored)`` for ``key`` through ``store``.

    A hit replays the stored run (:meth:`StoredRun.result`) and builds
    no enumerator.  A miss calls ``produce()`` for ``(result,
    record)`` and stores the record and the result's cliques under
    ``key``, with the files ``artifacts()`` then names (name -> path)
    in the same entry.  ``record`` is the stored one on a hit and the
    one just written on a miss, and ``stored`` is the replayed
    :class:`StoredRun` on a hit and None on a miss, so no caller reads
    the entry back.
    """
    stored = store.get_run(key)
    if stored is not None:
        return stored.result(), stored.record, stored
    result, record = produce()
    store.put_run(
        key, record, cliques=result.cliques,
        artifacts=artifacts() if artifacts is not None else None,
    )
    return result, record, None

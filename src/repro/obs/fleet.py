"""Fleet views: aggregate per-worker flight logs.

The flight recorder (:mod:`repro.obs.flight`) leaves one JSONL stream
per process; this module turns a set of them into the operator-facing
views:

* :func:`fleet_summary` — the per-process imbalance/utilization
  summary the parallel driver stamps into ``EnumerationResult.fleet``;
* :func:`render_fleet` — a per-worker utilization table
  (``python -m repro.obs fleet flight-*.jsonl``), the one view that
  marks a worker log with no ``finish`` record as ``crashed``, over
  the :func:`fleet_summary` of the finished workers (a worker's
  ``finish`` record is its shard breakdown).

One stream at a time renders through ``python -m repro.obs report``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.obs.flight import FlightLog, replay_flight
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import _table


def fleet_summary(shards: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Imbalance/utilization summary of the processes behind the shards.

    ``shards`` are the breakdowns the parallel driver collects from
    each chunk, or the ``finish`` records of the chunks' flight logs,
    which hold the same fields (see
    :func:`repro.core.partition.enumerate_parallel`).  A process runs
    its chunks one after another, so its busy time is the sum of their
    walls, summed per ``pid`` (a shard with no ``pid`` is a process of
    its own): ``workers``, ``wall_max_s``, ``wall_mean_s``,
    ``imbalance`` and ``utilization`` describe those processes, and
    ``wall_s`` keeps the per-chunk walls.  For a given assignment of
    chunks to processes the result is deterministic: shards are
    ordered by index and the merged registry uses max-mode gauges, so
    worker completion order cannot change a byte.
    """
    if not shards:
        return {}
    ordered = sorted(shards, key=lambda s: int(s.get("shard", 0) or 0))
    walls = [float(s.get("wall_s") or 0.0) for s in ordered]
    busy: Dict[object, float] = {}
    for index, (shard, wall) in enumerate(zip(ordered, walls)):
        pid = shard.get("pid")
        lane = ("pid", pid) if pid is not None else ("shard", index)
        busy[lane] = busy.get(lane, 0.0) + wall
    wall_max = max(busy.values())
    wall_mean = sum(busy.values()) / len(busy)
    summary: Dict[str, object] = {
        "workers": len(busy),
        "seeds": sum(int(s.get("seeds") or 0) for s in ordered),
        "outputs": sum(int(s.get("outputs") or 0) for s in ordered),
        "wall_s": [round(w, 6) for w in walls],
        "wall_max_s": round(wall_max, 6),
        "wall_mean_s": round(wall_mean, 6),
        # max/mean: 1.0 is a perfectly balanced pool; the critical
        # path is the busiest process, so (imbalance - 1) is the wasted
        # fraction a better assignment could reclaim.
        "imbalance": (
            round(wall_max / wall_mean, 4) if wall_mean > 0 else None
        ),
        "utilization": (
            round(wall_mean / wall_max, 4) if wall_max > 0 else None
        ),
    }
    metric_docs = [s.get("metrics") for s in ordered]
    if metric_docs and all(metric_docs):
        merged = MetricsRegistry()
        for doc in metric_docs:
            merged.merge(MetricsRegistry.from_dict(doc), gauges="max")
        summary["metrics"] = merged.as_dict()
    return summary


def load_flights(paths: Sequence[str]) -> List[FlightLog]:
    """Replay every path, ordered parent-first then by worker index."""
    logs = [replay_flight(path) for path in paths]
    return sorted(
        logs,
        key=lambda log: (log.role != "parent", log.worker, log.path),
    )


# -- fleet utilization table -----------------------------------------
def _fmt_rss(value) -> str:
    if value is None:
        return "-"
    return "%.1f" % (float(value) / (1024.0 * 1024.0))


def _fmt_ratio(value) -> str:
    return "-" if value is None else "%.3f" % value


def fleet_rows(logs: Sequence[FlightLog]) -> List[List[str]]:
    rows = []
    for log in logs:
        start = log.first("run_start") or {}
        finish = log.finish()
        stats = (finish or {}).get("stats") or {}
        status = "ok" if finish is not None else "crashed"
        if log.truncated:
            status += "+truncated"
        rows.append([
            "%s %d" % (log.role, log.worker),
            str(log.pid),
            str(start.get("seeds", "-")),
            str((finish or {}).get("outputs", stats.get("outputs", "-"))),
            str(stats.get("calls", "-")),
            "%.4f" % log.wall_s() if log.wall_s() is not None else "-",
            _fmt_rss((finish or {}).get("peak_rss_bytes")),
            status,
        ])
    return rows


def render_fleet(logs: Sequence[FlightLog]) -> str:
    """Utilization table plus the imbalance summary over worker logs."""
    lines = _table(
        ["lane", "pid", "seeds", "outputs", "calls", "wall_s",
         "rss_mib", "status"],
        fleet_rows(logs),
    )
    summary = fleet_summary([
        log.finish()
        for log in logs
        if log.role != "parent" and log.finish() is not None
    ])
    if summary:
        lines.append("")
        lines.append(
            "workers: %d  wall max %.4fs  mean %.4fs  imbalance %s  "
            "utilization %s"
            % (
                summary["workers"],
                summary["wall_max_s"],
                summary["wall_mean_s"],
                _fmt_ratio(summary["imbalance"]),
                _fmt_ratio(summary["utilization"]),
            )
        )
    return "\n".join(lines) + "\n"

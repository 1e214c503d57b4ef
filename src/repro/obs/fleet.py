"""Fleet views: aggregate per-worker flight logs.

The flight recorder (:mod:`repro.obs.flight`) leaves one JSONL stream
per process; this module turns a set of them into the operator-facing
views:

* :func:`fleet_summary` — the imbalance/utilization summary the
  parallel driver stamps into ``EnumerationResult.fleet``;
* :func:`render_fleet` — a per-worker utilization table
  (``python -m repro.obs fleet flight-*.jsonl``);
* :func:`render_timeline` — a per-worker Chrome-trace Gantt
  (``python -m repro.obs timeline flight-*.jsonl``; open in
  ``chrome://tracing`` / Perfetto);
* :func:`render_tail` — a human-readable event listing of one stream
  (``python -m repro.obs tail flight.jsonl``).

Timestamps inside one stream are relative to that process's start;
streams of different processes are not clock-synchronized (the
parent's ``dispatch`` records anchor the fan-out), so the timeline
shows per-worker durations faithfully but aligns lane starts at zero.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.obs.flight import FlightLog, replay_flight
from repro.obs.metrics import MetricsRegistry

#: Synthetic Chrome-trace pid shared by every lane of one timeline.
_TRACE_PID = 1


def fleet_summary(shards: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Imbalance/utilization summary over per-shard breakdown dicts.

    ``shards`` are the records the partition drivers collect from each
    worker (see :func:`repro.core.partition.enumerate_parallel`).  The
    result is deterministic: shards are ordered by index and the
    merged registry uses max-mode gauges, so worker completion order
    cannot change a byte.
    """
    if not shards:
        return {}
    ordered = sorted(shards, key=lambda s: int(s.get("shard", 0) or 0))
    walls = [float(s.get("wall_s") or 0.0) for s in ordered]
    wall_max = max(walls)
    wall_mean = sum(walls) / len(walls)
    summary: Dict[str, object] = {
        "workers": len(ordered),
        "seeds": sum(int(s.get("seeds") or 0) for s in ordered),
        "outputs": sum(int(s.get("outputs") or 0) for s in ordered),
        "wall_s": [round(w, 6) for w in walls],
        "wall_max_s": round(wall_max, 6),
        "wall_mean_s": round(wall_mean, 6),
        # max/mean: 1.0 is a perfectly balanced fan-out; the critical
        # path is the slowest shard, so (imbalance - 1) is the wasted
        # fraction a better split could reclaim.
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


def _lane(log: FlightLog, index: int) -> int:
    if log.role == "parent":
        return 0
    return log.worker + 1 if log.worker is not None else index + 1


# -- timeline (Chrome trace) -----------------------------------------
def timeline_events(logs: Sequence[FlightLog]) -> List[Dict[str, object]]:
    """Chrome trace events: one lane per flight log.

    Each log's ``run_start``→``finish`` window becomes a ``run`` span;
    the measured ``phase`` durations are laid back to back inside it
    (they are post-hoc measurements, like the observer's phase spans);
    milestones, heartbeats, dispatches and violations become instants.
    """
    events: List[Dict[str, object]] = []
    for index, log in enumerate(logs):
        tid = _lane(log, index)
        events.append({
            "ph": "M",
            "pid": _TRACE_PID,
            "tid": tid,
            "name": "thread_name",
            "args": {
                "name": "%s %d (pid %s)"
                % (log.role, log.worker, log.pid)
            },
        })
        start = log.first("run_start")
        finish = log.finish()
        if start is not None and finish is not None:
            start_us = int(float(start.get("t_s", 0.0)) * 1e6)
            end_us = int(float(finish.get("t_s", 0.0)) * 1e6)
            events.append({
                "ph": "X",
                "pid": _TRACE_PID,
                "tid": tid,
                "name": "run",
                "ts": start_us,
                "dur": max(0, end_us - start_us),
                "args": {"outputs": finish.get("outputs")},
            })
            cursor = start_us
            for entry in log.events:
                if entry.get("event") != "phase":
                    continue
                dur = int(float(entry.get("seconds", 0.0)) * 1e6)
                events.append({
                    "ph": "X",
                    "pid": _TRACE_PID,
                    "tid": tid,
                    "name": str(entry.get("name")),
                    "ts": cursor,
                    "dur": dur,
                    "args": {},
                })
                cursor += dur
        for entry in log.events:
            kind = entry.get("event")
            if kind not in ("milestone", "heartbeat", "violation",
                            "dispatch"):
                continue
            args = {
                key: entry[key]
                for key in sorted(entry)
                if key not in ("event", "seq", "t_s")
            }
            events.append({
                "ph": "i",
                "pid": _TRACE_PID,
                "tid": tid,
                "name": str(kind),
                "ts": int(float(entry.get("t_s", 0.0)) * 1e6),
                "s": "t",
                "args": args,
            })
    return events


def render_timeline(logs: Sequence[FlightLog]) -> str:
    """The timeline as Chrome-trace JSONL (one event per line)."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in timeline_events(logs)
    )


# -- fleet utilization table -----------------------------------------
def _fmt_rss(value) -> str:
    if value is None:
        return "-"
    return "%.1f" % (float(value) / (1024.0 * 1024.0))


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
    # Imported here: report renders flight logs through this module,
    # so a module-level import either way would be a cycle.
    from repro.obs.report import _table

    lines = _table(
        ["lane", "pid", "seeds", "outputs", "calls", "wall_s",
         "rss_mib", "status"],
        fleet_rows(logs),
    )
    walls = [
        log.wall_s()
        for log in logs
        if log.role != "parent" and log.wall_s() is not None
    ]
    if walls:
        wall_max = max(walls)
        wall_mean = sum(walls) / len(walls)
        lines.append("")
        lines.append(
            "workers: %d  wall max %.4fs  mean %.4fs  imbalance %s  "
            "utilization %s"
            % (
                len(walls),
                wall_max,
                wall_mean,
                "%.3f" % (wall_max / wall_mean) if wall_mean else "-",
                "%.3f" % (wall_mean / wall_max) if wall_max else "-",
            )
        )
    return "\n".join(lines) + "\n"


# -- tail (human-readable event listing) -----------------------------
def render_tail(log: FlightLog, last: Optional[int] = None) -> str:
    """One line per event of a single flight stream."""
    lines = [
        "%s [%s %s, pid %s, schema %s]%s"
        % (
            log.path,
            log.role,
            log.worker,
            log.pid,
            log.schema,
            " TRUNCATED TAIL" if log.truncated else "",
        )
    ]
    events = log.events
    if last is not None and last >= 0:
        events = events[-last:] if last else []
    for entry in events:
        fields = " ".join(
            "%s=%s" % (key, _fmt_field(entry[key]))
            for key in sorted(entry)
            if key not in ("event", "seq", "t_s")
        )
        lines.append(
            "[%10.4fs] #%-4s %-10s %s"
            % (
                float(entry.get("t_s", 0.0)),
                entry.get("seq", "?"),
                str(entry.get("event")),
                fields,
            )
        )
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _fmt_field(value) -> str:
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


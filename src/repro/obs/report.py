"""Human-readable summaries of observation artifacts.

``python -m repro.obs report FILE`` accepts any artifact the stack
produces and picks the right renderer by sniffing the content:

* a **metrics document** (``repro.obs/metrics-v1``, written by
  :class:`~repro.obs.session.ObsSession`) — per-phase times, counters,
  gauges, and the per-depth histogram table with derived branching
  factors;
* a **flight log** (``repro.obs/flight-v1`` JSONL, see
  :mod:`repro.obs.flight`) — rendered as its event listing;
* a **JSONL trace** (Chrome trace events) — span totals and sampled
  instant counts.

Anything else is refused with a ``ValueError`` naming these kinds.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.obs.metrics import DEPTH_METRICS, MetricsRegistry
from repro.obs.session import METRICS_SCHEMA
from repro.obs.tracer import read_jsonl

ARTIFACT_KINDS = (
    "a repro.obs/metrics-v1 session document, a repro.obs/flight-v1 "
    "log, or a Chrome-trace JSONL stream"
)


def load_artifact(path: str) -> Tuple[str, object]:
    """Read ``path`` and classify it.

    Returns ``("metrics", doc)``, ``("flight", log)`` or
    ``("trace", events)``, and raises ``ValueError`` on anything else.
    An empty file is an empty trace: a session that observed no run
    writes one.
    """
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if isinstance(doc, dict):
            if "event" in doc:
                # A one-record flight log parses as a single object.
                from repro.obs.flight import replay_flight

                return "flight", replay_flight(path)
            if doc.get("schema") == METRICS_SCHEMA:
                return "metrics", doc
        if doc is None and _looks_like_flight(stripped):
            # Multi-line flight log: the single-object parse above
            # failed but each line is one event record.
            from repro.obs.flight import replay_flight

            return "flight", replay_flight(path)
    try:
        events = read_jsonl(text)
        is_trace = all(
            isinstance(event, dict) and "ph" in event for event in events
        )
    except ValueError:
        is_trace = False
    if not is_trace:
        raise ValueError(
            "%s is not an observation artifact; expected %s"
            % (path, ARTIFACT_KINDS)
        )
    return "trace", events


def _looks_like_flight(text: str) -> bool:
    first_line = text.splitlines()[0] if text else ""
    try:
        entry = json.loads(first_line)
    except ValueError:
        return False
    return isinstance(entry, dict) and "event" in entry


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    ]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            ).rstrip()
        )
    return lines


def _registry_sections(registry: MetricsRegistry) -> List[str]:
    lines: List[str] = []
    phases = registry.timers()
    if phases:
        total = sum(phases.values())
        rows = [
            [name, "%.6f" % seconds,
             "%4.1f%%" % (100.0 * seconds / total if total else 0.0)]
            for name, seconds in phases.items()
        ]
        lines.append("phases:")
        lines.extend("  " + t for t in _table(
            ["phase", "seconds", "share"], rows
        ))
    counters = registry.counters()
    if counters:
        lines.append("counters:")
        lines.extend(
            "  %s = %s" % (name, _fmt(value))
            for name, value in counters.items()
        )
    gauges = {
        name: registry.gauge(name)
        for name in sorted(registry.as_dict()["gauges"])
    }
    if gauges:
        lines.append("gauges:")
        lines.extend(
            "  %s = %s" % (name, _fmt(value))
            for name, value in gauges.items()
        )
    depth_rows = _depth_rows(registry)
    if depth_rows:
        lines.append("per-depth:")
        lines.extend("  " + t for t in _table(
            ["depth", "nodes", "branch", "emits",
             "prune_kpivot", "prune_mpivot", "prune_size"],
            depth_rows,
        ))
    sizes = registry.depth_histogram("clique_size")
    if sizes:
        lines.append("clique sizes:")
        lines.extend(
            "  size %d: %d" % (size, sizes[size])
            for size in sorted(sizes)
        )
    return lines


def _depth_rows(registry: MetricsRegistry) -> List[List[str]]:
    hists = {name: registry.depth_histogram(name) for name in DEPTH_METRICS}
    depths = sorted({d for hist in hists.values() for d in hist})
    if not depths:
        return []
    branching = registry.branching_factors()
    rows = []
    for depth in depths:
        factor = branching.get(depth)
        rows.append([
            str(depth),
            str(hists["nodes"].get(depth, 0)),
            "%.3f" % factor if factor is not None else "-",
            str(hists["emits"].get(depth, 0)),
            str(hists["prune_kpivot"].get(depth, 0)),
            str(hists["prune_mpivot"].get(depth, 0)),
            str(hists["prune_size"].get(depth, 0)),
        ])
    return rows


def render_metrics(doc: Dict[str, object]) -> str:
    """Summary of a ``repro.obs/metrics-v1`` session document."""
    lines: List[str] = []
    env = doc.get("env")
    if env:
        lines.append(
            "env: " + ", ".join(
                "%s=%s" % (key, env[key]) for key in sorted(env)
            )
        )
    runs = doc.get("runs", [])
    for run in runs:
        lines.append(
            "run %s [%s backend, obs=%s]"
            % (run.get("index"), run.get("backend"), run.get("level"))
        )
        registry = MetricsRegistry.from_dict(run.get("metrics", {}))
        lines.extend("  " + t for t in _registry_sections(registry))
        lines.append("")
    merged = doc.get("merged")
    if merged is not None and len(runs) != 1:
        lines.append("merged (%d runs)" % len(runs))
        registry = MetricsRegistry.from_dict(merged)
        lines.extend("  " + t for t in _registry_sections(registry))
    return "\n".join(lines).rstrip() + "\n"


def render_trace(events: List[Dict[str, object]]) -> str:
    """Summary of a Chrome-trace-event JSONL stream."""
    span_dur: Dict[Tuple[object, str], int] = {}
    span_count: Dict[Tuple[object, str], int] = {}
    instants: Dict[Tuple[object, str], int] = {}
    lanes: Dict[object, str] = {}
    for event in events:
        phase = event.get("ph")
        tid = event.get("tid")
        name = str(event.get("name", ""))
        if phase == "X":
            key = (tid, name)
            span_dur[key] = span_dur.get(key, 0) + int(event.get("dur", 0))
            span_count[key] = span_count.get(key, 0) + 1
        elif phase == "i":
            key = (tid, name)
            instants[key] = instants.get(key, 0) + 1
        elif phase == "M" and name == "thread_name":
            lanes[tid] = str(event.get("args", {}).get("name", ""))
    lines = ["trace: %d events, %d lanes" % (len(events), len(lanes) or 1)]
    if span_dur:
        rows = [
            [
                "%s%s" % (name, _lane_suffix(lanes, tid)),
                str(span_count[(tid, name)]),
                "%.6f" % (span_dur[(tid, name)] / 1e6),
            ]
            for tid, name in sorted(
                span_dur, key=lambda key: (str(key[0]), key[1])
            )
        ]
        lines.append("spans:")
        lines.extend("  " + t for t in _table(
            ["span", "count", "seconds"], rows
        ))
    if instants:
        lines.append("sampled instants:")
        lines.extend(
            "  %s%s: %d"
            % (name, _lane_suffix(lanes, tid), instants[(tid, name)])
            for tid, name in sorted(
                instants, key=lambda key: (str(key[0]), key[1])
            )
        )
    return "\n".join(lines) + "\n"


def _lane_suffix(lanes: Dict[object, str], tid) -> str:
    label = lanes.get(tid)
    return " [%s]" % label if label else ""


def render_path(path: str) -> str:
    """Load ``path`` and render the matching summary."""
    kind, payload = load_artifact(path)
    if kind == "metrics":
        return render_metrics(payload)
    if kind == "flight":
        # Imported lazily in both directions (fleet borrows _table).
        from repro.obs.fleet import render_tail

        return render_tail(payload)
    return render_trace(payload)

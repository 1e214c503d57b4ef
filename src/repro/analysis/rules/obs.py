"""REP008 — engine observer-hook coverage.

The observability layer (:mod:`repro.obs`) only sees what the engine
tells it: the single recursion calls ``obs.on_node`` / ``obs.on_emit``
/ ``obs.on_expand`` / ``obs.on_prune`` and the run lifecycle calls
``obs.on_gauge`` / ``obs.on_phase`` / ``obs.on_finish``.  Like REP007
this was a backend-parity rule before the unification; with one
recursion left it becomes coverage: a deleted hook site makes every
metric, per-depth histogram, and trace silently wrong on all backends
at once.

Hook labels carry their string discriminator
(``obs.on_prune("kpivot", ...)`` -> ``hook:on_prune:kpivot``), so the
rule requires each prune kind, each gauge, and each phase span
individually — losing the single ``mpivot`` prune site cannot hide
behind a surviving ``kpivot`` one.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.fingerprint import hook_labels
from repro.analysis.registry import rule
from repro.analysis.rules.conformance import find_engine_anchors
from repro.analysis.source import SourceFile

#: Hooks the recursion must call, one label per discriminator kind.
RECURSION_HOOKS = (
    "hook:on_node",
    "hook:on_emit",
    "hook:on_expand",
    "hook:on_prune:kpivot",
    "hook:on_prune:mpivot",
    "hook:on_prune:size",
)
#: Hooks the run lifecycle must call: both gauges, the fixed phase
#: sequence, the per-seed progress tick, and the final stats handover.
#: ``on_root`` is deliberately a *lifecycle* hook (the seed loop of
#: ``SearchEngine.run``), not a template hook: the folded hooks-off
#: recursion variants stay zero-branch (REP013) while progress/flight
#: telemetry still sees every root.
DRIVER_HOOKS = (
    "hook:on_gauge:vertices_input",
    "hook:on_gauge:vertices_search",
    "hook:on_phase:reduction",
    "hook:on_phase:ordering",
    "hook:on_phase:recursion",
    "hook:on_phase:sanitize",
    "hook:on_root",
    "hook:on_finish",
)


@rule(
    "REP008",
    "observer-hook-coverage",
    Severity.ERROR,
    "the engine must call every observer hook the metrics and traces "
    "depend on",
)
def check_observer_coverage(src: SourceFile) -> Iterator[Finding]:
    recursion, driver = find_engine_anchors(src)
    for func, required, where in (
        (recursion, RECURSION_HOOKS, "recursion"),
        (driver, DRIVER_HOOKS, "run lifecycle"),
    ):
        if func is None:
            continue
        present = set(hook_labels(func, hook_root="obs", detail=True))
        missing = [h for h in required if h not in present]
        if missing:
            yield Finding(
                path=src.path,
                line=func.lineno,
                col=func.col_offset,
                rule="REP008",
                severity=Severity.ERROR,
                message=(
                    f"the engine {where} ({func.name}) no longer calls "
                    f"{', '.join(missing)} — every observer hook site "
                    "must stay wired or metrics and traces go silently "
                    "wrong on all backends (see docs/analysis.md)"
                ),
                line_text=src.line_text(func.lineno),
            )

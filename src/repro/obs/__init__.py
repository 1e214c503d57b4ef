"""repro-obs: tracing, metrics, and profiling for the enumeration stack.

Activate with ``PivotConfig(obs="metrics"|"full")``, the ``--obs`` flag
of the CLI / benchmarks, or the ``REPRO_OBS`` environment variable
(which applies when the config leaves the level at ``"off"``).  Wrap
any number of runs in :func:`~repro.obs.session.observe` to collect
combined trace / folded-stack / metrics artifacts, then inspect them
with ``python -m repro.obs report`` and gate regressions with
``python -m repro.obs diff``.  See ``docs/observability.md``.
"""

from repro.obs.diff import compare, diff_paths, load_series
from repro.obs.fleet import (
    fleet_summary,
    load_flights,
    render_fleet,
    render_tail,
    render_timeline,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightLog,
    FlightRecorder,
    merge_flight_registries,
    replay_flight,
)
from repro.obs.metrics import DEPTH_METRICS, MetricsRegistry
from repro.obs.observer import (
    DEFAULT_SAMPLE_EVERY,
    Observer,
    build_observer,
    resolve_level,
)
from repro.obs.progress import ProgressTracker
from repro.obs.report import load_artifact, render_path
from repro.obs.runtime import peak_rss_bytes, run_env, runtime_fingerprint
from repro.obs.session import ObsSession, current_session, observe
from repro.obs.tracer import FoldedStacks, Tracer, read_jsonl

__all__ = [
    "DEFAULT_SAMPLE_EVERY",
    "DEPTH_METRICS",
    "FLIGHT_SCHEMA",
    "FlightLog",
    "FlightRecorder",
    "FoldedStacks",
    "MetricsRegistry",
    "Observer",
    "ObsSession",
    "ProgressTracker",
    "Tracer",
    "build_observer",
    "compare",
    "current_session",
    "diff_paths",
    "fleet_summary",
    "load_artifact",
    "load_flights",
    "load_series",
    "merge_flight_registries",
    "observe",
    "peak_rss_bytes",
    "read_jsonl",
    "render_fleet",
    "render_path",
    "render_tail",
    "render_timeline",
    "replay_flight",
    "resolve_level",
    "run_env",
    "runtime_fingerprint",
]

"""repro-obs: tracing, metrics, and profiling for the enumeration stack.

Activate with ``PivotConfig(obs="metrics"|"full")``, the ``--obs`` flag
of the CLI / benchmarks, or the ``REPRO_OBS`` environment variable
(which applies when the config leaves the level at ``"off"``).  Wrap
any number of runs in :func:`~repro.obs.session.observe` to collect
combined trace / folded-stack / metrics artifacts, then inspect them
with ``python -m repro.obs report``; ``python -m repro.obs fleet``
tabulates the flight logs of a parallel run.  See
``docs/observability.md``.
"""

from repro.obs.fleet import fleet_summary, load_flights, render_fleet
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
    "current_session",
    "fleet_summary",
    "load_artifact",
    "load_flights",
    "merge_flight_registries",
    "observe",
    "peak_rss_bytes",
    "read_jsonl",
    "render_fleet",
    "render_path",
    "replay_flight",
    "run_env",
    "runtime_fingerprint",
]

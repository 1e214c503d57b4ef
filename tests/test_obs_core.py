"""The observability layer: metrics, tracer, observer, session.

Covers the three contracts the layer makes:

* **zero-impact when off** — enabling/disabling observation never
  changes enumeration results or :class:`SearchStats`;
* **determinism** — with an injected clock, traces and folded stacks
  are byte-identical across runs and across ``PYTHONHASHSEED`` values;
* **fidelity** — the registry's counters reconcile exactly with the
  flat :class:`SearchStats` the enumerators already report.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import PMUC_PLUS_CONFIG, PivotEnumerator
from repro.exceptions import ParameterError
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, build_observer, resolve_level
from repro.obs.session import current_session, observe
from repro.obs.tracer import FoldedStacks, Tracer, read_jsonl
from repro.uncertain import UncertainGraph

REPO = Path(__file__).resolve().parents[1]


def small_graph(n=18, density=0.4, seed=7):
    import random

    rng = random.Random(seed)
    g = UncertainGraph()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(u, v, round(rng.uniform(0.3, 1.0), 2))
    return g


def counting_clock(step=0.001):
    """A deterministic fake clock advancing ``step`` s per call."""
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
def test_registry_counters_gauges_timers_depth():
    reg = MetricsRegistry()
    reg.inc("calls")
    reg.inc("calls", 4)
    reg.set_gauge("vertices_input", 30)
    reg.set_gauge("vertices_input", 12)  # last write wins
    reg.add_time("recursion", 0.25)
    reg.add_time("recursion", 0.75)
    reg.observe_depth("nodes", 1)
    reg.observe_depth("nodes", 2, 3)
    assert reg.counter("calls") == 5
    assert reg.counter("never") == 0
    assert reg.gauge("vertices_input") == 12
    assert reg.gauge("never") is None
    assert reg.timer("recursion") == 1.0
    assert reg.depth_histogram("nodes") == {1: 1, 2: 3}


def test_registry_as_dict_roundtrip_and_merge():
    reg = MetricsRegistry()
    reg.inc("calls", 7)
    reg.set_gauge("max_depth", 4)
    reg.add_time("ordering", 0.5)
    reg.observe_depth("emits", 3, 2)
    doc = reg.as_dict()
    # Depth keys serialize as strings (JSON object keys).
    assert doc["depth"]["emits"] == {"3": 2}
    clone = MetricsRegistry.from_dict(doc)
    assert clone.as_dict() == doc
    merged = MetricsRegistry()
    merged.merge(reg)
    merged.merge(clone)
    assert merged.counter("calls") == 14
    assert merged.depth_histogram("emits") == {3: 4}
    assert merged.gauge("max_depth") == 4


def test_registry_branching_factors():
    reg = MetricsRegistry()
    reg.observe_depth("nodes", 1, 2)
    reg.observe_depth("expansions", 1, 6)
    reg.observe_depth("nodes", 2, 4)
    assert reg.branching_factors() == {1: 3.0, 2: 0.0}


# ----------------------------------------------------------------------
# tracer + folded stacks
# ----------------------------------------------------------------------
def test_tracer_is_deterministic_with_injected_clock():
    def make():
        tracer = Tracer(clock=counting_clock())
        tracer.metadata("process_name", {"name": "repro"})
        tracer.complete_span("reduction", 0, 1500)
        tracer.instant("node", tracer.now_us(), {"depth": 2})
        return tracer.to_jsonl()

    first, second = make(), make()
    assert first == second
    events = read_jsonl(first)
    assert [e["ph"] for e in events] == ["M", "X", "i"]
    assert events[1]["dur"] == 1500


def test_tracer_set_tid_rewrites_existing_events():
    tracer = Tracer(clock=counting_clock())
    tracer.metadata("thread_name", {"name": "dict backend"})
    tracer.set_tid(3)
    tracer.instant("node", 10)
    assert all(e["tid"] == 3 for e in tracer.events())


def test_folded_stacks_aggregate_and_render_sorted():
    folded = FoldedStacks()
    folded.add(["enumerate", "a", "b"])
    folded.add(["enumerate", "a", "b"], 2)
    folded.add(["enumerate", "a"])
    other = FoldedStacks()
    other.add(["enumerate", "a"], 5)
    folded.merge(other)
    assert folded.total_weight() == 9
    assert folded.render() == "enumerate;a 6\nenumerate;a;b 3\n"


# ----------------------------------------------------------------------
# level resolution + observer behavior
# ----------------------------------------------------------------------
def test_env_level_applies_only_when_config_is_off(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "metrics")
    assert resolve_level(PMUC_PLUS_CONFIG) == "metrics"
    explicit = replace(PMUC_PLUS_CONFIG, obs="full")
    assert resolve_level(explicit) == "full"
    monkeypatch.setenv("REPRO_OBS", "verbose")
    with pytest.raises(ParameterError):
        resolve_level(PMUC_PLUS_CONFIG)


def test_build_observer_returns_none_when_off(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    assert build_observer(PMUC_PLUS_CONFIG) is None
    assert build_observer(replace(PMUC_PLUS_CONFIG, obs="metrics")) is not None


def test_metrics_level_has_no_tracer_full_samples_nodes():
    lite = Observer(level="metrics")
    assert lite.tracer is None and lite.folded is None
    full = Observer(level="full", clock=counting_clock(), sample_every=2)
    for seq in range(5):
        full.on_node(1, ["a"])
    # Counter-based sampling: nodes 0, 2, 4 of 5 are kept.
    assert full.folded.total_weight() == 3
    assert full.metrics.depth_histogram("nodes") == {1: 5}


def test_observer_folds_search_stats_and_phases():
    obs = Observer(level="metrics")
    obs.on_emit(2, 5)
    obs.on_prune("mpivot", 1, 3)
    obs.on_phase("reduction", 0.5)
    obs.on_gauge("vertices_input", 9)

    class FakeStats:
        def as_dict(self):
            return {"calls": 10, "outputs": 2, "max_depth": 4}

    obs.on_finish(FakeStats())
    assert obs.metrics.counter("calls") == 10
    assert obs.metrics.gauge("max_depth") == 4
    assert obs.metrics.depth_histogram("prune_mpivot") == {1: 3}
    assert obs.metrics.timer("reduction") == 0.5


# ----------------------------------------------------------------------
# zero impact when off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ("dict", "kernel"))
def test_observation_never_changes_results(backend):
    g = small_graph()
    results = {}
    for level in ("off", "light", "metrics", "full"):
        config = replace(PMUC_PLUS_CONFIG, backend=backend, obs=level)
        enumerator = PivotEnumerator(g, k=3, eta=0.1, config=config)
        results[level] = enumerator.run()
        if level == "off":
            assert enumerator.obs is None
    assert (
        results["off"].cliques
        == results["light"].cliques
        == results["metrics"].cliques
        == results["full"].cliques
    )
    assert (
        results["off"].stats.as_dict()
        == results["light"].stats.as_dict()
        == results["metrics"].stats.as_dict()
        == results["full"].stats.as_dict()
    )


def test_registry_counters_reconcile_with_search_stats():
    g = small_graph()
    config = replace(PMUC_PLUS_CONFIG, obs="metrics")
    enumerator = PivotEnumerator(g, k=3, eta=0.1, config=config)
    result = enumerator.run()
    metrics = enumerator.obs.metrics
    flat = result.stats.as_dict()
    assert metrics.counter("calls") == flat["calls"]
    assert metrics.counter("outputs") == flat["outputs"]
    assert metrics.gauge("max_depth") == flat["max_depth"]
    # The depth histograms marginalize back to the flat counters.
    assert sum(metrics.depth_histogram("nodes").values()) == flat["calls"]
    assert sum(metrics.depth_histogram("emits").values()) == flat["outputs"]
    assert (
        sum(metrics.depth_histogram("expansions").values())
        == flat["expansions"]
    )
    for phase in ("reduction", "ordering", "recursion", "sanitize"):
        assert metrics.timer(phase) >= 0.0


# ----------------------------------------------------------------------
# phase seconds and lifecycle-only (light) observation
# ----------------------------------------------------------------------
PHASES = ("ordering", "recursion", "reduction", "sanitize")


def test_phase_seconds_are_recorded_without_an_observer(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    enumerator = PivotEnumerator(small_graph(), k=3, eta=0.1)
    result = enumerator.run()
    assert enumerator.obs is None
    assert enumerator.backend_used == "kernel"
    assert sorted(result.phases) == list(PHASES)
    assert all(seconds >= 0.0 for seconds in result.phases.values())


@pytest.mark.parametrize("backend", ("dict", "kernel"))
def test_light_observer_is_lifecycle_only(backend):
    g = small_graph()
    runs = {}
    for level in ("light", "metrics", "full"):
        config = replace(PMUC_PLUS_CONFIG, backend=backend, obs=level)
        enumerator = PivotEnumerator(g, k=3, eta=0.1, config=config)
        runs[level] = (enumerator, enumerator.run())
    light, light_result = runs["light"]
    # The light run keeps the production variant; per-node levels
    # still compile the hooked one.
    assert light.backend_used == backend
    assert not light.obs.recursion_hooks
    assert light.variant_used == (
        "bitset" if backend == "kernel" else "generic"
    )
    for level in ("metrics", "full"):
        assert runs[level][0].obs.recursion_hooks
        assert runs[level][0].variant_used == "generic+hooks"
    doc = light.obs.metrics.as_dict()
    hooked = runs["metrics"][0].obs.metrics.as_dict()
    # The registry of a hooked run minus its depth histograms (and
    # wall time): same counters, same gauges, the same four phases.
    assert doc["counters"] == hooked["counters"]
    assert doc["gauges"] == hooked["gauges"]
    assert sorted(doc["gauges"]) == [
        "max_depth", "roots_total", "vertices_input", "vertices_search"
    ]
    assert list(doc["phases"]) == list(PHASES) == list(hooked["phases"])
    assert doc["depth"] == {}
    # The observer's timers are the engine's own phase record.
    assert light.obs.metrics.timers() == light_result.phases


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------
def test_session_collects_runs_and_writes_artifacts(tmp_path):
    g = small_graph(n=14)
    trace = tmp_path / "run.trace.jsonl"
    folded = tmp_path / "run.folded"
    metrics = tmp_path / "run.metrics.json"
    with observe(
        trace_path=str(trace),
        folded_path=str(folded),
        metrics_path=str(metrics),
        clock=counting_clock(),
        sample_every=1,
    ) as session:
        assert current_session() is session
        for backend in ("dict", "kernel"):
            config = replace(
                PMUC_PLUS_CONFIG, backend=backend, obs="full"
            )
            PivotEnumerator(g, k=2, eta=0.1, config=config).run()
    assert current_session() is None
    assert len(session.observers) == 2
    # Each run gets its own trace lane.
    assert {o.tracer._tid for o in session.observers} == {1, 2}
    doc = json.loads(metrics.read_text())
    assert doc["schema"] == "repro.obs/metrics-v1"
    assert [run["backend"] for run in doc["runs"]] == ["dict", "kernel"]
    assert doc["merged"]["counters"]["calls"] == 2 * doc["runs"][0][
        "metrics"
    ]["counters"]["calls"]
    events = read_jsonl(trace.read_text())
    assert {e["tid"] for e in events} == {1, 2}
    assert folded.read_text().startswith("enumerate")


# ----------------------------------------------------------------------
# hash-seed independence of the full trace artifacts
# ----------------------------------------------------------------------
TRACE_PIPELINE = r"""
import random
from dataclasses import replace

from repro.core import PMUC_PLUS_CONFIG, PivotEnumerator
from repro.obs.session import observe
from repro.uncertain import UncertainGraph

state = {"t": 0.0}
def clock():
    state["t"] += 0.001
    return state["t"]

rng = random.Random(7)
names = ["node-%02d" % i for i in range(16)]
g = UncertainGraph()
for i, u in enumerate(names):
    for v in names[i + 1:]:
        if rng.random() < 0.4:
            g.add_edge(u, v, round(rng.uniform(0.3, 1.0), 2))

with observe(clock=clock, sample_every=4) as session:
    for backend in ("dict", "kernel"):
        config = replace(PMUC_PLUS_CONFIG, backend=backend, obs="full")
        PivotEnumerator(g, k=2, eta=0.1, config=config).run()

# Phase spans carry *measured* wall-clock durations (phases are timed,
# not traced with the injected clock), so they vary run to run by
# design; zero them out and compare everything else byte for byte.
import json
for line in session.trace_jsonl().splitlines():
    event = json.loads(line)
    if event["ph"] == "X":
        event["ts"] = event["dur"] = 0
    print(json.dumps(event, sort_keys=True, separators=(",", ":")))
print(session.folded_text(), end="")
"""


def run_trace_pipeline(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-c", TRACE_PIPELINE],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        check=True,
    )
    return result.stdout


def test_trace_artifacts_are_hashseed_independent():
    """String vertices hash differently under each seed; with the
    injected clock the trace and folded output must still be
    byte-identical."""
    first = run_trace_pipeline(1)
    second = run_trace_pipeline(4242)
    assert first == second
    assert '"ph":"X"' in first  # spans actually made it out
    assert "enumerate;" in first  # so did folded stacks

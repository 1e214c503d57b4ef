"""Fleet aggregation: parallel shards, flight replay parity, CLI views."""

import json
from dataclasses import replace

from repro.core import enumerate_parallel, enumerate_partitioned
from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.partition import _accumulate
from repro.core.pmuc import PivotEnumerator
from repro.core.stats import EnumerationResult
from repro.obs.cli import main as obs_main
from repro.obs.fleet import fleet_summary
from repro.obs.flight import merge_flight_registries, replay_flight
from repro.obs.session import observe

from tests.conftest import as_sorted_sets, random_uncertain_graph


def _canon(doc):
    return json.dumps(doc, sort_keys=True)


class TestFleetSummary:
    SHARDS = [
        {"shard": 1, "seeds": 4, "outputs": 3, "wall_s": 1.0,
         "metrics": None},
        {"shard": 0, "seeds": 6, "outputs": 7, "wall_s": 3.0,
         "metrics": None},
    ]

    def test_imbalance_and_utilization(self):
        summary = fleet_summary(self.SHARDS)
        assert summary["workers"] == 2
        assert summary["seeds"] == 10
        assert summary["outputs"] == 10
        # Ordered by shard index, not input order.
        assert summary["wall_s"] == [3.0, 1.0]
        assert summary["imbalance"] == 1.5   # max 3.0 / mean 2.0
        assert summary["utilization"] == 0.6667
        # A shard without metrics keeps the merged registry out.
        assert "metrics" not in summary

    def test_empty_shards(self):
        assert fleet_summary([]) == {}

    def test_order_insensitive(self):
        assert _canon(fleet_summary(self.SHARDS)) == _canon(
            fleet_summary(self.SHARDS[::-1])
        )


class TestPartitionedBreakdown:
    def test_shards_survive_the_merge(self):
        g = random_uncertain_graph(13, 16, 0.5)
        merged = enumerate_partitioned(g, 2, 0.4, parts=3)
        assert len(merged.shards) == 3
        assert sum(s["outputs"] for s in merged.shards) == \
            merged.stats.outputs
        assert sum(s["calls"] for s in merged.shards) == merged.stats.calls
        assert merged.fleet["workers"] == 3
        assert merged.fleet["outputs"] == merged.stats.outputs

    def test_merged_phases_sum_the_shards(self):
        g = random_uncertain_graph(13, 16, 0.5)
        merged = enumerate_partitioned(g, 2, 0.4, parts=3)
        assert sorted(merged.phases) == [
            "ordering", "recursion", "reduction", "sanitize"
        ]
        assert all(seconds >= 0.0 for seconds in merged.phases.values())
        # The fold itself: per-name sums, names unioned.
        total = EnumerationResult()
        for phases in (
            {"reduction": 0.25, "recursion": 1.0},
            {"recursion": 2.0, "sanitize": 0.5},
        ):
            _accumulate(total, EnumerationResult(phases=phases))
        assert total.phases == {
            "reduction": 0.25, "recursion": 3.0, "sanitize": 0.5
        }

    def test_monolithic_result_has_no_fleet(self):
        g = random_uncertain_graph(10, 8, 0.5)
        result = PivotEnumerator(g, 2, 0.4).run()
        assert result.shards == []
        assert result.fleet == {}

    def test_observed_shards_carry_metrics(self):
        g = random_uncertain_graph(13, 16, 0.5)
        config = replace(PMUC_PLUS_CONFIG, obs="light")
        merged = enumerate_partitioned(g, 2, 0.4, parts=2, config=config)
        assert all(s["metrics"] is not None for s in merged.shards)
        live = merged.fleet["metrics"]
        stats = merged.stats.as_dict()
        expected = {k: v for k, v in stats.items() if k != "max_depth"}
        assert live["counters"] == expected
        assert live["gauges"]["max_depth"] == stats["max_depth"]


class TestParallelFlightParity:
    def test_parallel_flight_replay_matches_live_registry(self, tmp_path):
        g = random_uncertain_graph(14, 18, 0.5)
        config = replace(PMUC_PLUS_CONFIG, obs="light")
        flight_dir = str(tmp_path / "flights")
        merged = enumerate_parallel(
            g, 2, 0.4, parts=2, processes=2, config=config,
            flight_dir=flight_dir,
        )
        sequential = enumerate_partitioned(
            g, 2, 0.4, parts=2, config=config
        )
        single = PivotEnumerator(g, 2, 0.4, config).run()

        # Clique surface: invariant across all drivers.
        assert as_sorted_sets(merged.cliques) == \
            as_sorted_sets(single.cliques)
        # Counter surface: byte-identical to the same-chunking
        # sequential run.
        assert _canon(merged.stats.as_dict()) == \
            _canon(sequential.stats.as_dict())

        # Per-worker flight logs exist and replay to the live registry.
        worker_paths = sorted(
            str(p) for p in (tmp_path / "flights").glob(
                "flight-worker*.jsonl"
            )
        )
        assert len(worker_paths) == 2
        logs = [replay_flight(p) for p in worker_paths]
        assert all(not log.truncated for log in logs)
        replayed = merge_flight_registries(logs)
        assert _canon(replayed.as_dict()) == _canon(merged.fleet["metrics"])
        # ... independent of replay order.
        shuffled = merge_flight_registries(logs[::-1])
        assert _canon(shuffled.as_dict()) == _canon(merged.fleet["metrics"])

        # The parent log records the fan-out and the merged finish.
        parent = replay_flight(str(tmp_path / "flights"
                                   / "flight-parent.jsonl"))
        assert parent.role == "parent"
        dispatches = [
            e for e in parent.events if e["event"] == "dispatch"
        ]
        assert [d["shard"] for d in dispatches] == [0, 1]
        assert parent.finish()["outputs"] == merged.stats.outputs

    def test_single_chunk_parallel_records_flight(self, tmp_path):
        g = random_uncertain_graph(10, 8, 0.5)
        flight_dir = str(tmp_path / "flights")
        merged = enumerate_parallel(
            g, 2, 0.4, parts=1, flight_dir=flight_dir
        )
        assert len(merged.shards) == 1
        worker = replay_flight(
            str(tmp_path / "flights" / "flight-worker00.jsonl")
        )
        # obs off: no metrics snapshot, but the flat stats still replay
        # into comparable counters.
        registry = worker.registry()
        assert registry.counters()["outputs"] == merged.stats.outputs
        # The engine's phase seconds are logged without an observer,
        # in the order the phases ran.
        phases = [e for e in worker.events if e["event"] == "phase"]
        assert [e["name"] for e in phases] == [
            "reduction", "ordering", "recursion", "sanitize"
        ]
        assert [e["seconds"] for e in phases] == [
            round(seconds, 6) for seconds in merged.phases.values()
        ]


class TestObsCli:
    def _flights(self, tmp_path):
        g = random_uncertain_graph(12, 14, 0.5)
        config = replace(PMUC_PLUS_CONFIG, obs="light")
        flight_dir = tmp_path / "flights"
        enumerate_parallel(
            g, 2, 0.4, parts=2, processes=2, config=config,
            flight_dir=str(flight_dir),
        )
        return sorted(str(p) for p in flight_dir.glob("flight-*.jsonl"))

    def test_tail_fleet_timeline_smoke(self, tmp_path, capsys):
        paths = self._flights(tmp_path)
        assert obs_main(["tail", paths[0], "--last", "3"]) == 0
        out = capsys.readouterr().out
        assert "repro.obs/flight-v1" in out

        assert obs_main(["fleet"] + paths) == 0
        out = capsys.readouterr().out
        assert "parent 0" in out
        assert "imbalance" in out

        trace_path = str(tmp_path / "trace.jsonl")
        assert obs_main(["timeline"] + paths + ["--out", trace_path]) == 0
        capsys.readouterr()
        events = [
            json.loads(line)
            for line in open(trace_path, encoding="utf-8")
        ]
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(name.startswith("parent") for name in lanes)
        assert sum(1 for n in lanes if n.startswith("worker")) == 2
        # The timeline doubles as a report-able trace artifact.
        assert obs_main(["report", trace_path]) == 0
        assert "lanes" in capsys.readouterr().out

    def test_report_renders_flight_log(self, tmp_path, capsys):
        paths = self._flights(tmp_path)
        assert obs_main(["report", paths[0]]) == 0
        assert "run_start" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert obs_main(["tail", "no-such-flight.jsonl"]) == 2
        capsys.readouterr()


class TestPlatformWarning:
    def test_diff_warns_on_cross_platform(self, tmp_path, capsys):
        base = {
            "schema": "repro.obs/metrics-v1",
            "env": {"python": "3.11.1", "platform": "Linux-x"},
            "runs": [
                {"index": 0, "backend": "kernel",
                 "metrics": {"counters": {"outputs": 5},
                             "phases": {"recursion": 1.0}}},
            ],
        }
        run = json.loads(json.dumps(base))
        run["env"] = {"python": "3.12.0", "platform": "macOS-y"}
        base_path = str(tmp_path / "base.json")
        run_path = str(tmp_path / "run.json")
        for path, doc in ((base_path, base), (run_path, run)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        assert obs_main(["diff", base_path, run_path]) == 0
        out = capsys.readouterr().out
        # Warns (not fails): counters still gate, the clock does not.
        assert "cross-platform" in out
        assert "no regressions beyond threshold" in out


class TestParallelGate:
    def test_gate_passes_end_to_end(self, tmp_path, capsys):
        from repro.bench.parallel_gate import main as gate_main

        flight_dir = str(tmp_path / "gate")
        trace = str(tmp_path / "gate" / "trace.jsonl")
        code = gate_main([
            "--flight-dir", flight_dir, "--timeline-out", trace,
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "parallel obs gate ok" in out
        assert (tmp_path / "gate" / "trace.jsonl").exists()


class TestProgressIntegration:
    def test_progress_rides_an_observe_session(self):
        from repro.obs.progress import ProgressTracker

        class Stream:
            def __init__(self):
                self.lines = []

            def write(self, text):
                self.lines.append(text)

            def flush(self):
                pass

        g = random_uncertain_graph(12, 14, 0.5)
        stream = Stream()
        tracker = ProgressTracker(stream=stream, interval=0.0)
        config = replace(PMUC_PLUS_CONFIG, obs="light")
        with observe(progress=tracker):
            result = PivotEnumerator(g, 2, 0.4, config).run()
        assert result.stats.outputs > 0
        assert tracker.roots_total > 0
        assert stream.lines, "progress should have rendered"
        assert "progress" in stream.lines[0]

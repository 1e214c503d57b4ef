"""Fleet aggregation: parallel shards, flight replay parity, CLI views."""

import json
from dataclasses import replace

import pytest

from repro.bench.kernel_speedup import WORKLOADS, build_graph
from repro.core import enumerate_parallel
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

    def test_a_process_is_busy_for_the_sum_of_its_chunks(self):
        # enron k=5, eta=0.1, parts=3 on two processes: chunks 1 and 2
        # ran one after the other on process B.
        shards = [
            {"shard": 0, "pid": "A", "wall_s": 0.1505},
            {"shard": 1, "pid": "B", "wall_s": 0.1508},
            {"shard": 2, "pid": "B", "wall_s": 0.0191},
        ]
        summary = fleet_summary(shards)
        assert summary["workers"] == 2
        assert summary["wall_s"] == [0.1505, 0.1508, 0.0191]
        assert summary["wall_max_s"] == 0.1699
        assert summary["wall_mean_s"] == 0.1602
        assert summary["imbalance"] == 1.0605
        assert summary["utilization"] == 0.9429


class TestPartitionedBreakdown:
    def test_shards_survive_the_merge(self):
        g = random_uncertain_graph(13, 16, 0.5)
        merged = enumerate_parallel(g, 2, 0.4, parts=3, processes=1)
        assert len(merged.shards) == 3
        assert sum(s["outputs"] for s in merged.shards) == \
            merged.stats.outputs
        assert sum(s["calls"] for s in merged.shards) == merged.stats.calls
        # processes=1 runs the three chunks in this one process.
        assert merged.fleet["workers"] == 1
        assert len(merged.fleet["wall_s"]) == 3
        assert merged.fleet["outputs"] == merged.stats.outputs

    def test_merged_phases_sum_the_shards(self):
        g = random_uncertain_graph(13, 16, 0.5)
        merged = enumerate_parallel(g, 2, 0.4, parts=3, processes=1)
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
        merged = enumerate_parallel(
            g, 2, 0.4, parts=2, processes=1, config=config
        )
        assert all(s["metrics"] is not None for s in merged.shards)
        live = merged.fleet["metrics"]
        stats = merged.stats.as_dict()
        expected = {k: v for k, v in stats.items() if k != "max_depth"}
        assert live["counters"] == expected
        assert live["gauges"]["max_depth"] == stats["max_depth"]


def _random_workload():
    return random_uncertain_graph(14, 18, 0.5), 2, 0.4


def _communities_100():
    spec = next(w for w in WORKLOADS if w["name"] == "communities-100")
    return build_graph(spec["params"]), spec["k"], spec["eta"]


class TestParallelFlightParity:
    @pytest.mark.parametrize(
        "workload", [_random_workload, _communities_100],
        ids=["random", "communities-100"],
    )
    def test_parallel_flight_replay_matches_live_registry(
        self, tmp_path, workload
    ):
        g, k, eta = workload()
        config = replace(PMUC_PLUS_CONFIG, obs="light")
        flight_dir = str(tmp_path / "flights")
        merged = enumerate_parallel(
            g, k, eta, parts=2, processes=2, config=config,
            flight_dir=flight_dir,
        )
        sequential = enumerate_parallel(
            g, k, eta, parts=2, processes=1, config=config
        )
        single = PivotEnumerator(g, k, eta, config).run()

        # Clique surface: invariant across all drivers.
        assert as_sorted_sets(merged.cliques) == \
            as_sorted_sets(single.cliques)
        # Counter surface: byte-identical to the same-chunking
        # sequential run.
        assert _canon(merged.stats.as_dict()) == \
            _canon(sequential.stats.as_dict())
        # The live merged registry counts what the merged stats count.
        stats = merged.stats.as_dict()
        assert merged.fleet["metrics"]["counters"] == {
            name: value for name, value in stats.items()
            if name != "max_depth"
        }

        # One worker flight log per shard, each finished, replaying to
        # the live registry.
        worker_paths = sorted(
            str(p) for p in (tmp_path / "flights").glob(
                "flight-worker*.jsonl"
            )
        )
        assert len(worker_paths) == len(merged.shards) == 2
        logs = [replay_flight(p) for p in worker_paths]
        assert all(not log.truncated for log in logs)
        assert all(log.finish() is not None for log in logs)
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

    def test_a_reused_flight_dir_replays_only_the_latest_run(
        self, tmp_path
    ):
        # Recorders append, so a second call into the same directory
        # must first drop the first call's logs, including the log of
        # a shard the second call no longer has.
        g, k, eta = _random_workload()
        config = replace(PMUC_PLUS_CONFIG, obs="light")
        flight_dir = tmp_path / "flights"
        first = enumerate_parallel(
            g, k, eta, parts=2, processes=1, config=config,
            flight_dir=str(flight_dir),
        )
        second = enumerate_parallel(
            g, k + 1, eta, parts=1, config=config,
            flight_dir=str(flight_dir),
        )
        assert first.stats.outputs != second.stats.outputs
        assert sorted(p.name for p in flight_dir.iterdir()) == [
            "flight-parent.jsonl", "flight-worker00.jsonl"
        ]
        logs = [
            replay_flight(str(p))
            for p in sorted(flight_dir.glob("flight-*.jsonl"))
        ]
        assert all(
            [e["event"] for e in log.events].count("open") == 1
            for log in logs
        )
        worker_logs = [log for log in logs if log.role == "worker"]
        replayed = merge_flight_registries(worker_logs)
        assert _canon(replayed.as_dict()) == _canon(second.fleet["metrics"])

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

    def test_fleet_table_marks_a_log_without_finish_as_crashed(
        self, tmp_path, capsys
    ):
        paths = self._flights(tmp_path)
        assert obs_main(["fleet"] + paths) == 0
        out = capsys.readouterr().out
        assert "parent 0" in out
        assert "imbalance" in out
        assert "crashed" not in out

        # A worker that died before its finish record.
        worker = paths[-1]
        with open(worker, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(worker, "w", encoding="utf-8") as handle:
            handle.writelines(
                line for line in lines if '"event": "finish"' not in line
            )
        assert obs_main(["fleet"] + paths) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[-1] for row in rows if "crashed" in row] == [
            "crashed"
        ]

    def test_report_renders_flight_log(self, tmp_path, capsys):
        paths = self._flights(tmp_path)
        assert obs_main(["report", paths[0]]) == 0
        assert "run_start" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert obs_main(["fleet", "no-such-flight.jsonl"]) == 2
        capsys.readouterr()


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

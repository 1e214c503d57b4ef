"""Partitioned/parallel enumeration and multi-k query sessions."""

import concurrent.futures
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ParameterError
from repro.core import (
    CliqueQuerySession,
    PivotEnumerator,
    enumerate_maximal_cliques,
    enumerate_parallel,
)
from repro.datasets import figure1_graph, load_dataset
from repro.uncertain import UncertainGraph
from tests.conftest import as_sorted_sets, random_uncertain_graph

REPO = Path(__file__).resolve().parents[1]

#: Kills one of two spawn workers as soon as its flight log shows it
#: enumerating (each chunk then runs about a second), and reports what
#: the call did.
KILL_A_WORKER = r"""
import json, multiprocessing, os, signal, sys, threading, time

from repro.core.partition import enumerate_parallel
from repro.datasets.random_graphs import planted_communities_weighted
from repro.datasets.registry import uncertain_from_weights
from repro.obs.flight import replay_flight

flight_dir = sys.argv[1]
graph = uncertain_from_weights(planted_communities_weighted(
    n=600, communities=10, community_size=60, overlap=0,
    p_in=0.6, p_out_edges=1000, seed=7,
), seed=7)
worker_log = os.path.join(flight_dir, "flight-worker00.jsonl")
killed = []

def kill_worker_mid_chunk():
    while not (os.path.exists(worker_log)
               and replay_flight(worker_log).first("run_start")):
        time.sleep(0.01)
    os.kill(replay_flight(worker_log).pid, signal.SIGKILL)
    killed.append(time.monotonic())

threading.Thread(target=kill_worker_mid_chunk, daemon=True).start()
try:
    enumerate_parallel(
        graph, 5, 0.3, parts=2, processes=2, flight_dir=flight_dir
    )
    error = None
except Exception as exc:
    error = type(exc).__name__
parent = replay_flight(os.path.join(flight_dir, "flight-parent.jsonl"))
print(json.dumps({
    "error": error,
    "seconds_after_kill": time.monotonic() - killed[0] if killed else None,
    "children": len(multiprocessing.active_children()),
    "parent_last_event": parent.events[-1]["event"],
}))
"""


class TestSeedFilter:
    def test_disjoint_seed_runs_union_to_full(self):
        g = random_uncertain_graph(12, 14, 0.5)
        k, eta = 2, 0.4
        full = as_sorted_sets(PivotEnumerator(g, k, eta).run().cliques)
        vertices = list(g.vertices())
        union = []
        for chunk in (vertices[i::3] for i in range(3)):
            union.extend(PivotEnumerator(g, k, eta).run(seeds=chunk).cliques)
        assert as_sorted_sets(union) == full
        assert len(union) == len(set(union))  # no cross-chunk duplicates

    def test_empty_seed_set(self):
        g = random_uncertain_graph(12, 8, 0.5)
        result = PivotEnumerator(g, 2, 0.4).run(seeds=[])
        assert result.cliques == []


class TestPartitioned:
    def test_matches_monolithic(self):
        g = random_uncertain_graph(13, 16, 0.5)
        expected = as_sorted_sets(
            enumerate_maximal_cliques(g, 2, 0.4, "pmuc+").cliques
        )
        for parts in (1, 2, 5):
            merged = enumerate_parallel(g, 2, 0.4, parts=parts, processes=1)
            assert as_sorted_sets(merged.cliques) == expected
            assert merged.stats.outputs == len(expected)

    def test_parts_validation(self, triangle_graph):
        with pytest.raises(ParameterError):
            enumerate_parallel(triangle_graph, 3, 0.5, parts=0)

    def test_more_parts_than_vertices(self, triangle_graph):
        merged = enumerate_parallel(
            triangle_graph, 3, 0.5, parts=10, processes=1
        )
        assert len(merged.shards) == 3

    def test_one_worker_starts_no_pool(self, monkeypatch):
        def tripwire(*args, **kwargs):
            raise AssertionError("a pool was started for one worker")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", tripwire
        )
        g = random_uncertain_graph(13, 16, 0.5)
        merged = enumerate_parallel(g, 2, 0.4, parts=3, processes=1)
        assert len(merged.shards) == 3
        assert {shard["pid"] for shard in merged.shards} == {os.getpid()}
        assert as_sorted_sets(merged.cliques) == as_sorted_sets(
            PivotEnumerator(g, 2, 0.4).run().cliques
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("processes", [None, 2])
    def test_a_graph_the_reduction_empties_has_no_chunks(self, processes):
        path = UncertainGraph([(0, 1, 0.9), (1, 2, 0.9)])
        merged = enumerate_parallel(
            path, 5, 0.5, parts=3, processes=processes
        )
        assert list(merged.cliques) == []
        assert merged.shards == []
        assert merged.fleet == {}

    def test_equal_runs_compare_equal_whatever_their_wall_times(self):
        # Shards and fleet carry wall seconds, pids and peak RSS, which
        # are never part of result equality.
        a, b = (
            enumerate_parallel(figure1_graph(), 3, 0.1, parts=2, processes=1)
            for _ in range(2)
        )
        assert a.shards and a.fleet
        assert a.stats == b.stats
        assert a == b


class TestParallel:
    def test_parallel_matches_monolithic(self):
        g = load_dataset("enron")
        expected = as_sorted_sets(
            enumerate_maximal_cliques(g, 6, 0.1, "pmuc+").cliques
        )
        merged = enumerate_parallel(g, 6, 0.1, parts=4, processes=2)
        assert as_sorted_sets(merged.cliques) == expected

    def test_single_chunk_short_circuits(self, triangle_graph):
        merged = enumerate_parallel(triangle_graph, 3, 0.5, parts=1)
        assert merged.cliques == [frozenset({0, 1, 2})]

    def test_a_killed_worker_raises_instead_of_hanging(self, tmp_path):
        # A child interpreter, in its own session, so that a hang is a
        # timeout here and the whole process group can be killed.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", KILL_A_WORKER, str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("enumerate_parallel hung after a worker was killed")
        assert proc.returncode == 0, err
        report = json.loads(out)
        assert report["error"] == "BrokenProcessPool"
        assert report["seconds_after_kill"] < 10
        assert report["children"] == 0
        assert report["parent_last_event"] == "violation"


class TestQuerySession:
    def test_matches_direct_enumeration(self):
        g = load_dataset("enron")
        session = CliqueQuerySession(g, eta=0.1)
        for k in (2, 3, 5, 7):
            expected = as_sorted_sets(
                enumerate_maximal_cliques(g, k, 0.1, "pmuc+").cliques
            )
            got = as_sorted_sets(session.query(k).cliques)
            assert got == expected, k

    def test_figure1_profile(self):
        session = CliqueQuerySession(figure1_graph(), eta=0.53)
        profile = session.size_profile([3, 4, 5, 6])
        assert profile[5] == 1 and profile[6] == 0
        assert profile[3] >= profile[4] >= profile[5]

    def test_k1_uses_full_graph(self):
        g = UncertainGraph([(0, 1, 0.9)])
        g.add_vertex(5)
        session = CliqueQuerySession(g, eta=0.5)
        got = as_sorted_sets(session.query(1).cliques)
        assert frozenset({5}) in got

    def test_reduced_graph_monotone_in_k(self):
        g = load_dataset("enron")
        session = CliqueQuerySession(g, eta=0.1)
        sizes = [session.reduced_graph(k).num_edges for k in (2, 4, 6, 8)]
        assert sizes == sorted(sizes, reverse=True)

    def test_validation(self, triangle_graph):
        with pytest.raises(ParameterError):
            CliqueQuerySession(triangle_graph, eta=0)
        session = CliqueQuerySession(triangle_graph, eta=0.5)
        with pytest.raises(ParameterError):
            session.reduced_graph(0)

    def test_streaming_callback(self, two_communities):
        session = CliqueQuerySession(two_communities, eta=0.5)
        seen = []
        result = session.query(3, on_clique=seen.append)
        assert result.cliques == []
        assert len(seen) == 2

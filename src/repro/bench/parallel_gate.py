"""CI gate: parallel enumeration must equal its single-process run.

Runs one workload three ways — monolithic, sequentially partitioned
(:func:`repro.core.partition.enumerate_partitioned`, same chunking,
one process), and through
:func:`repro.core.partition.enumerate_parallel` with flight recording —
and fails unless every observability surface agrees:

1. the merged parallel clique set and ``outputs`` counter equal the
   monolithic run's (the partition invariant: one emitting seed per
   clique);
2. the merged cross-worker counters are **byte-identical**
   (``json.dumps`` with sorted keys) to the same-chunking
   single-process counters — the effort counters are deterministic for
   a fixed chunking, so multiprocessing must not move a single unit of
   work (they are *not* invariant across different chunkings: the
   M-pivot warm state carries across roots within a chunk, which is
   why the monolithic run only gates the clique surface);
3. the fleet's live merged registry counters
   (``result.fleet["metrics"]``) equal those merged counters; and
4. **replaying the per-worker flight logs** from disk
   (:func:`repro.obs.flight.merge_flight_registries`) rebuilds a
   registry whose counters are byte-identical to the live one.

(1)–(2) gate the partition layer; (3)–(4) gate the observability
pipeline itself — a worker whose metrics or flight stream drifted from
its in-memory registry fails here even if the cliques are right.

Gauges are deliberately outside the byte-identity check: per-worker
``roots_total`` / phase wall times legitimately differ across
processes.  Counters are the deterministic surface.

Usage (the CI ``gates`` job)::

    PYTHONPATH=src python -m repro.bench.parallel_gate \
        --flight-dir obs-artifacts --timeline-out obs-artifacts/trace.jsonl
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from dataclasses import replace
from typing import Dict, List, Optional

from repro.bench.kernel_speedup import WORKLOADS, build_graph
from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.partition import enumerate_parallel, enumerate_partitioned
from repro.core.pmuc import PivotEnumerator

DEFAULT_WORKLOAD = "communities-100"


def counters_of(metrics_doc: Dict[str, object]) -> Dict[str, object]:
    """The counters dict of a registry ``as_dict`` document."""
    return dict(metrics_doc.get("counters", {}))


def canonical(counters: Dict[str, object]) -> str:
    """Byte-stable form used for the identity checks."""
    return json.dumps(counters, sort_keys=True)


def stats_counters(stats_dict: Dict[str, int]) -> Dict[str, int]:
    """SearchStats as counter space (``max_depth`` is a gauge)."""
    return {
        name: value
        for name, value in sorted(stats_dict.items())
        if name != "max_depth"
    }


def run_gate(
    workload: str = DEFAULT_WORKLOAD,
    parts: int = 2,
    processes: Optional[int] = 2,
    obs: str = "light",
    flight_dir: str = "obs-artifacts",
    timeline_out: Optional[str] = None,
) -> List[str]:
    """Run both enumerations and return the list of failures (empty=ok)."""
    spec = next(w for w in WORKLOADS if w["name"] == workload)
    graph = build_graph(spec["params"])  # type: ignore[index]
    k, eta = spec["k"], spec["eta"]
    config = replace(PMUC_PLUS_CONFIG, obs=obs)

    failures: List[str] = []

    # Flight recorders append (crash-safety contract); a stale log from
    # a previous gate run would replay as two concatenated streams.
    os.makedirs(flight_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(flight_dir, "flight-*.jsonl")):
        os.remove(stale)

    single = PivotEnumerator(graph, k, eta, config).run()
    sequential = enumerate_partitioned(
        graph, k, eta, parts=parts, config=config
    )
    parallel = enumerate_parallel(
        graph, k, eta,
        parts=parts, processes=processes, config=config,
        flight_dir=flight_dir,
    )
    single_cliques = set(map(frozenset, single.cliques))
    parallel_cliques = set(map(frozenset, parallel.cliques))
    if single_cliques != parallel_cliques:
        failures.append(
            "clique sets differ: single %d vs parallel %d"
            % (len(single_cliques), len(parallel_cliques))
        )
    if single.stats.outputs != parallel.stats.outputs:
        failures.append(
            "outputs differ: single %d vs parallel %d"
            % (single.stats.outputs, parallel.stats.outputs)
        )

    sequential_counters = stats_counters(sequential.stats.as_dict())
    merged_counters = stats_counters(parallel.stats.as_dict())
    if canonical(sequential_counters) != canonical(merged_counters):
        failures.append(
            "merged parallel counters != same-chunking single-process "
            "counters: %s vs %s"
            % (canonical(merged_counters), canonical(sequential_counters))
        )

    fleet_metrics = parallel.fleet.get("metrics")
    if fleet_metrics is None:
        failures.append(
            "fleet summary carries no merged metrics (obs=%r should "
            "observe every shard)" % obs
        )
    else:
        live_counters = counters_of(fleet_metrics)
        if canonical(live_counters) != canonical(merged_counters):
            failures.append(
                "live merged registry counters != merged stats "
                "counters: %s vs %s"
                % (canonical(live_counters), canonical(merged_counters))
            )

    worker_paths = sorted(
        glob.glob(os.path.join(flight_dir, "flight-worker*.jsonl"))
    )
    if len(worker_paths) != len(parallel.shards):
        failures.append(
            "expected %d worker flight logs in %s, found %d"
            % (len(parallel.shards), flight_dir, len(worker_paths))
        )
    from repro.obs.flight import merge_flight_registries, replay_flight

    logs = [replay_flight(path) for path in worker_paths]
    for log in logs:
        if log.truncated:
            failures.append("flight log %s has a truncated tail" % log.path)
        if log.finish() is None:
            failures.append("flight log %s has no finish record" % log.path)
    replayed = merge_flight_registries(logs)
    replayed_counters = counters_of(replayed.as_dict())
    if fleet_metrics is not None and canonical(
        replayed_counters
    ) != canonical(counters_of(fleet_metrics)):
        failures.append(
            "replayed flight counters != live merged registry "
            "counters: %s vs %s"
            % (canonical(replayed_counters),
               canonical(counters_of(fleet_metrics)))
        )

    if timeline_out is not None:
        from repro.obs.fleet import load_flights, render_timeline

        all_paths = sorted(
            glob.glob(os.path.join(flight_dir, "flight-*.jsonl"))
        )
        with open(timeline_out, "w", encoding="utf-8") as handle:
            handle.write(render_timeline(load_flights(all_paths)))

    fleet_view = {
        key: value
        for key, value in sorted(parallel.fleet.items())
        if key != "metrics"
    }
    print("fleet: %s" % json.dumps(fleet_view, sort_keys=True))
    print(
        "counters: %s (sequential == merged == live == replayed: %s)"
        % (canonical(merged_counters), not failures)
    )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.parallel_gate",
        description=(
            "Gate: a multi-worker enumeration with flight recording "
            "must replay to the exact single-process counters."
        ),
    )
    parser.add_argument(
        "--workload",
        default=DEFAULT_WORKLOAD,
        choices=tuple(w["name"] for w in WORKLOADS),
        help="workload spec to enumerate (default: %(default)s)",
    )
    parser.add_argument(
        "--parts", type=int, default=2, help="seed chunks (default: 2)"
    )
    parser.add_argument(
        "--processes", type=int, default=2,
        help="pool size (default: 2)",
    )
    parser.add_argument(
        "--obs",
        choices=("light", "metrics", "full"),
        default="light",
        help="per-worker observation level (default: light)",
    )
    parser.add_argument(
        "--flight-dir",
        default="obs-artifacts",
        metavar="DIR",
        help="directory for the flight logs (default: %(default)s)",
    )
    parser.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="also write the per-worker Chrome trace to PATH",
    )
    args = parser.parse_args(argv)
    if args.parts < 2:
        parser.error("--parts must be at least 2 (the gate is about fan-out)")
    failures = run_gate(
        workload=args.workload,
        parts=args.parts,
        processes=args.processes,
        obs=args.obs,
        flight_dir=args.flight_dir,
        timeline_out=args.timeline_out,
    )
    for failure in failures:
        print("GATE FAILURE: %s" % failure)
    if failures:
        return 1
    print("parallel obs gate ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

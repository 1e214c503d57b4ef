"""Dict-vs-kernel backend speedup benchmark (perf trajectory artifact).

Produces the ``BENCH_pr<N>.json`` trajectory artifacts (currently
``BENCH_pr6.json``): wall-clock comparisons of the two
:class:`~repro.core.config.PivotConfig` backends on fixed synthetic
workloads, in a stable schema future PRs can extend with further
trajectory points.  Each record stamps the compiled recursion
``variants`` both backends executed (see
:func:`repro.engine.driver.variant_id`), so downstream tooling can
refuse cross-variant comparisons.

Measurement protocol — the numbers are CPU-noise-hardened:

* ``time.process_time`` (CPU time, immune to scheduler gaps);
* garbage collection disabled around each timed run;
* a streaming no-op sink so clique storage never enters the timing;
* backends run in **interleaved rounds with alternating order**, so
  drifting machine load hits both backends symmetrically;
* per-round **paired ratios** plus best-of-N per backend, since a
  single noisy round should not define the trajectory.

Every workload is also parity-checked (identical clique sets and
identical :class:`~repro.core.stats.SearchStats`) in an untimed pass,
so a recorded speedup can never come from diverging search trees.

Usage::

    PYTHONPATH=src python -m repro.bench.kernel_speedup --out BENCH_pr6.json
    PYTHONPATH=src python -m repro.bench.kernel_speedup --quick   # CI smoke
    PYTHONPATH=src python -m repro.bench.kernel_speedup \
        --workload communities-1000 --rounds 3   # one tier only
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import format_table
from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.pmuc import PivotEnumerator
from repro.datasets.random_graphs import planted_communities_weighted
from repro.datasets.registry import uncertain_from_weights
from repro.uncertain.graph import UncertainGraph

SCHEMA_VERSION = 1
SPEEDUP_TARGET = 2.0

#: Fixed workloads.  ``params`` feed ``planted_communities_weighted``
#: verbatim, so the graphs are reproducible from the JSON alone.
WORKLOADS = (
    {
        "name": "communities-300",
        "params": {
            "n": 300,
            "communities": 18,
            "community_size": 24,
            "overlap": 8,
            "p_in": 0.92,
            "p_out_edges": 500,
            "seed": 7,
        },
        "k": 8,
        "eta": 0.05,
    },
    {
        "name": "communities-1000",
        "params": {
            "n": 1000,
            "communities": 50,
            "community_size": 24,
            "overlap": 8,
            "p_in": 0.9,
            "p_out_edges": 1200,
            "seed": 11,
        },
        "k": 8,
        "eta": 0.05,
    },
    {
        "name": "blob-130",
        "params": {
            "n": 130,
            "communities": 1,
            "community_size": 130,
            "overlap": 0,
            "p_in": 0.55,
            "p_out_edges": 0,
            "seed": 3,
        },
        "k": 5,
        "eta": 0.3,
    },
    {
        "name": "communities-150",
        "params": {
            "n": 150,
            "communities": 9,
            "community_size": 24,
            "overlap": 8,
            "p_in": 0.92,
            "p_out_edges": 250,
            "seed": 7,
        },
        "k": 8,
        "eta": 0.05,
    },
    {
        "name": "communities-100",
        "params": {
            "n": 100,
            "communities": 6,
            "community_size": 20,
            "overlap": 6,
            "p_in": 0.9,
            "p_out_edges": 150,
            "seed": 7,
        },
        "k": 7,
        "eta": 0.05,
    },
)

#: The quick (CI smoke) subset must finish well under a minute.
QUICK_NAMES = ("communities-100",)


def build_graph(params: Dict[str, object]) -> UncertainGraph:
    """Materialise a workload graph from its generator parameters."""
    weights = planted_communities_weighted(**params)  # type: ignore[arg-type]
    return uncertain_from_weights(weights)


def timed_run_with_variant(
    graph: UncertainGraph,
    k: int,
    eta: float,
    backend: str,
    sanitize: str = "off",
    obs: str = "off",
) -> Tuple[float, Optional[str]]:
    """One timed enumeration; returns ``(CPU seconds, variant id)``.

    The variant id (:func:`repro.engine.driver.variant_id`) names the
    compiled recursion closure the timed run actually executed — it is
    stamped into every run record so ``repro.obs diff`` can refuse
    comparing e.g. a hooked variant's clock against the production
    closure's.
    """
    config = replace(
        PMUC_PLUS_CONFIG, backend=backend, sanitize=sanitize, obs=obs
    )
    enumerator = PivotEnumerator(
        graph, k=k, eta=eta, config=config, on_clique=lambda _c: None
    )
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        enumerator.run()
        return time.process_time() - start, enumerator.variant_used
    finally:
        gc.enable()


def timed_run(
    graph: UncertainGraph,
    k: int,
    eta: float,
    backend: str,
    sanitize: str = "off",
    obs: str = "off",
) -> float:
    """One timed enumeration; returns CPU seconds."""
    return timed_run_with_variant(graph, k, eta, backend, sanitize, obs)[0]


def parity_check(
    graph: UncertainGraph, k: int, eta: float
) -> Dict[str, object]:
    """Untimed dict-vs-kernel run recording clique/stats equality.

    The full per-backend :class:`~repro.core.stats.EnumerationResult`
    objects ride along under ``"results"`` (not JSON-safe — stripped
    before the record is serialized) so the store persistence path can
    publish the parity runs without enumerating a third time.
    """
    results = {}
    for backend in ("dict", "kernel"):
        config = replace(PMUC_PLUS_CONFIG, backend=backend)
        results[backend] = PivotEnumerator(
            graph, k=k, eta=eta, config=config
        ).run()
    return {
        "cliques_equal": set(results["dict"].cliques)
        == set(results["kernel"].cliques),
        "stats_equal": results["dict"].stats.__dict__
        == results["kernel"].stats.__dict__,
        "outputs": results["dict"].stats.outputs,
        "results": results,
    }


def _persist_parity(
    store, graph, spec, parity, times
) -> Dict[str, str]:
    """Publish both backends' parity runs under their canonical keys.

    Benchmarks never *serve* timings from the store — the stored
    ``seconds`` is this invocation's best-of-rounds for the backend,
    published so cache-hitting consumers (sessions, the service) can
    reuse the verified clique set and counters.
    """
    from repro.store.key import graph_fingerprint, run_key_for
    from repro.store.records import stamped_record

    digests: Dict[str, str] = {}
    fingerprint = graph_fingerprint(graph)
    for backend, result in parity["results"].items():
        config = replace(PMUC_PLUS_CONFIG, backend=backend)
        key = run_key_for(
            graph, spec["k"], spec["eta"], config,
            dataset_fingerprint=fingerprint,
        )
        record = stamped_record(
            "speedup:%s" % spec["name"],
            min(times[backend]),
            len(result.cliques),
            result.stats.as_dict(),
            extra={
                "k": spec["k"],
                "eta": repr(spec["eta"]),
                "workload": spec["name"],
                "estimator": "best-of-rounds (process_time)",
            },
            backend=backend,
        )
        digests[backend] = store.put_run(
            key, record, cliques=result.cliques
        )
    return digests


def bench_workload(
    spec: Dict[str, object],
    rounds: int,
    sanitize: str = "off",
    obs: str = "off",
    store=None,
) -> Dict[str, object]:
    """Benchmark one workload spec; returns its JSON record."""
    graph = build_graph(spec["params"])  # type: ignore[index]
    k = spec["k"]
    eta = spec["eta"]
    times: Dict[str, List[float]] = {"dict": [], "kernel": []}
    variants: Dict[str, Optional[str]] = {"dict": None, "kernel": None}
    for rnd in range(rounds):
        order = ("dict", "kernel") if rnd % 2 == 0 else ("kernel", "dict")
        for backend in order:
            seconds, variant = timed_run_with_variant(
                graph, k, eta, backend, sanitize, obs
            )
            times[backend].append(seconds)
            variants[backend] = variant
    paired = sorted(
        d / kt for d, kt in zip(times["dict"], times["kernel"])
    )
    parity = parity_check(graph, k, eta)
    record: Dict[str, object] = {
        "name": spec["name"],
        "generator": "planted_communities_weighted",
        "params": spec["params"],
        "k": k,
        "eta": eta,
        "outputs": parity["outputs"],
        "variants": variants,
        "rounds_s": {
            backend: [round(s, 4) for s in series]
            for backend, series in times.items()
        },
        "best_s": {b: round(min(s), 4) for b, s in times.items()},
        "median_s": {
            b: round(statistics.median(s), 4) for b, s in times.items()
        },
        "paired_ratios": [round(r, 3) for r in paired],
        "speedup_best": round(
            min(times["dict"]) / min(times["kernel"]), 3
        ),
        "speedup_median": round(statistics.median(paired), 3),
        "speedup_max": round(paired[-1], 3),
        "parity": {
            "cliques_equal": parity["cliques_equal"],
            "stats_equal": parity["stats_equal"],
        },
    }
    if store is not None and parity["cliques_equal"]:
        record["store"] = _persist_parity(store, graph, spec, parity, times)
    return record


def run_benchmark(
    quick: bool = False,
    rounds: Optional[int] = None,
    sanitize: str = "off",
    obs: str = "off",
    workloads: Optional[Sequence[str]] = None,
    store=None,
) -> Dict[str, object]:
    """Run the full (or quick) suite; returns the JSON document.

    ``workloads`` restricts the run to the named subset (executed in
    registry order).  An explicit selection replaces the quick-mode
    name subset but keeps quick's round default.  ``store`` (a
    :class:`~repro.store.store.RunStore`) persists each parity-clean
    workload's verified runs under their canonical keys.
    """
    if rounds is None:
        rounds = 2 if quick else 7
    names = QUICK_NAMES if quick else tuple(w["name"] for w in WORKLOADS)
    if workloads is not None:
        known = {w["name"] for w in WORKLOADS}
        unknown = [n for n in workloads if n not in known]
        if unknown:
            raise ValueError(
                "unknown workload(s) %s; choose from %s"
                % (", ".join(unknown), ", ".join(sorted(known)))
            )
        names = tuple(set(workloads))
    records = [
        bench_workload(spec, rounds, sanitize, obs, store=store)
        for spec in WORKLOADS
        if spec["name"] in names
    ]
    # Headline estimator: best-of-N per backend (timeit-style min —
    # system noise only ever adds time, so min is the noise-robust
    # lower-bound estimate of true cost for both backends alike).
    best = max(r["speedup_best"] for r in records)
    best_median = max(r["speedup_median"] for r in records)
    from repro.store.records import document_stamp

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "kernel-backend-speedup",
        "pr": 6,
        "env": document_stamp(),
        "algorithm": "pmuc+",
        "backends": ["dict", "kernel"],
        "protocol": {
            "timer": "process_time",
            "rounds": rounds,
            "interleaved_alternating": True,
            "gc_disabled": True,
            "sink": "streaming-noop",
            "quick": quick,
            "sanitize": sanitize,
            "obs": obs,
        },
        "workloads": records,
        "summary": {
            "speedup_target": SPEEDUP_TARGET,
            "estimator": "best-of-rounds per backend (timeit-style min)",
            "best_speedup": best,
            "best_median_speedup": best_median,
            "target_met": best >= SPEEDUP_TARGET,
            "parity_ok": all(
                r["parity"]["cliques_equal"] and r["parity"]["stats_equal"]
                for r in records
            ),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.kernel_speedup",
        description="Benchmark the dict vs kernel enumeration backends.",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="write JSON to PATH"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smallest workload, 2 rounds, <60s",
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help="override round count"
    )
    parser.add_argument(
        "--workload",
        action="append",
        dest="workloads",
        metavar="NAME",
        default=None,
        choices=tuple(w["name"] for w in WORKLOADS),
        help=(
            "run only this workload (repeatable); replaces the "
            "quick-mode subset when combined with --quick"
        ),
    )
    parser.add_argument(
        "--require",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless best speedup >= X",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "persist each parity-clean workload's verified runs (clique "
            "set + counters, best-of-rounds seconds) into the run store "
            "at DIR; with --out, the JSON document registers as an "
            "artifact of every stored run"
        ),
    )
    parser.add_argument(
        "--sanitize",
        choices=("off", "light", "full"),
        default="off",
        help=(
            "run the timed enumerations with the runtime sanitizer at "
            "this level (default: off); violations abort the benchmark"
        ),
    )
    parser.add_argument(
        "--obs",
        choices=("off", "light", "metrics", "full"),
        default="off",
        help=(
            "run the timed enumerations with the observability layer "
            "at this level (default: off); overhead counts toward the "
            "measured time, which is how observer cost is quantified"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print a live progress/ETA line to stderr while the timed "
            "enumerations run; implies --obs light unless --obs was "
            "given (light is lifecycle-only: the timed search keeps "
            "the production recursion variant, and only the per-root "
            "progress ticks add to the measured time)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "collect Chrome-trace JSONL across all observed runs into "
            "PATH (plus PATH.folded stacks and PATH.metrics.json); "
            "implies --obs full unless --obs was given"
        ),
    )
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    store = None
    if args.store is not None:
        from repro.store.store import RunStore

        store = RunStore(args.store)
    if args.trace_out and args.obs == "off":
        args.obs = "full"
    if args.progress and args.obs == "off":
        args.obs = "light"
    if args.obs != "off":
        import sys

        from repro.obs.session import observe

        progress = None
        if args.progress:
            from repro.obs.progress import ProgressTracker

            progress = ProgressTracker(
                stream=sys.stderr, label="kernel_speedup"
            )
        with observe(
            trace_path=args.trace_out,
            folded_path=(
                f"{args.trace_out}.folded" if args.trace_out else None
            ),
            metrics_path=(
                f"{args.trace_out}.metrics.json" if args.trace_out else None
            ),
            progress=progress,
        ):
            document = run_benchmark(
                quick=args.quick,
                rounds=args.rounds,
                sanitize=args.sanitize,
                obs=args.obs,
                workloads=args.workloads,
                store=store,
            )
        if args.trace_out:
            print(
                f"wrote trace to {args.trace_out} (summarize with "
                f"'python -m repro.obs report {args.trace_out}')"
            )
    else:
        document = run_benchmark(
            quick=args.quick,
            rounds=args.rounds,
            sanitize=args.sanitize,
            workloads=args.workloads,
            store=store,
        )
    rows = [
        {
            "workload": r["name"],
            "k": r["k"],
            "eta": r["eta"],
            "cliques": r["outputs"],
            "dict_best_s": r["best_s"]["dict"],
            "kernel_best_s": r["best_s"]["kernel"],
            "kernel_variant": r["variants"]["kernel"],
            "speedup_median": r["speedup_median"],
            "speedup_max": r["speedup_max"],
            "parity": "ok"
            if r["parity"]["cliques_equal"] and r["parity"]["stats_equal"]
            else "MISMATCH",
        }
        for r in document["workloads"]
    ]
    print(format_table(rows, title="dict vs kernel backend (pmuc+)"))
    summary = document["summary"]
    print(
        f"best speedup: {summary['best_speedup']}x best-of-rounds "
        f"({summary['best_median_speedup']}x median; "
        f"target {summary['speedup_target']}x, "
        f"met={summary['target_met']})"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=False)
            fh.write("\n")
        print(f"wrote {args.out}")
    if store is not None:
        digests = sorted(
            {
                digest
                for r in document["workloads"]
                for digest in r.get("store", {}).values()
            }
        )
        if args.out:
            for digest in digests:
                store.register_artifact(digest, args.out, args.out)
        print(
            "stored %d runs in %s: %s"
            % (
                len(digests),
                args.store,
                " ".join(d[:12] for d in digests),
            )
        )
    if not summary["parity_ok"]:
        print("PARITY MISMATCH between backends")
        return 1
    if (
        args.require is not None
        and summary["best_speedup"] < args.require
    ):
        print(f"speedup below required {args.require}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

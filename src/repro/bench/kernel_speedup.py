"""Kernel-over-dict floor gate: the bitset backend keeps its constant factor.

``python -m repro.bench.kernel_speedup`` takes no arguments.  It times
PMUC+ on the ``communities-100`` workload (k=7, η=0.05) on both
:class:`~repro.core.config.PivotConfig` backends and exits 1 unless

* both backends return the same clique set and the same
  :class:`~repro.core.stats.SearchStats` (an untimed pass);
* the best-of-rounds dict/kernel ratio is at least :data:`FLOOR`;
* each backend's best is within :data:`TIME_THRESHOLD` × its
  recorded best (:data:`BASELINE_S`).

The floor sits below the 2× the bitset closures reach on a quiet
machine because CI runners are noisy and this is the smallest
workload; a ratio under it means the specialized bitset variant lost
its constant factor.  The time bound is generous for the same reason.

Measurement protocol: ``time.process_time`` (CPU time, immune to
scheduler gaps), garbage collection disabled around each timed run, a
no-op sink so clique storage never enters the timing, and
:data:`ROUNDS` interleaved rounds with alternating backend order, so
drifting machine load hits both backends alike.

The :data:`WORKLOADS` specs also define the graphs of the sanitizer
sweep (``python -m repro.sanitize``) and of the tier-1 counter and
parallel flight tests.
"""

from __future__ import annotations

import argparse
import gc
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.harness import format_table
from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.pmuc import PivotEnumerator
from repro.datasets.random_graphs import planted_communities_weighted
from repro.datasets.registry import uncertain_from_weights
from repro.uncertain.graph import UncertainGraph

#: Fixed workloads.  ``params`` feed ``planted_communities_weighted``
#: verbatim, so each graph is reproducible from its spec alone.
WORKLOADS: Tuple[Dict[str, Any], ...] = (
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

GATE_WORKLOAD = "communities-100"
BACKENDS = ("dict", "kernel")
ROUNDS = 3
FLOOR = 1.5
TIME_THRESHOLD = 6.0

#: Best-of seconds per backend on ``communities-100`` recorded in
#: ``BENCH_pr6.json``.  ``BENCH_pr4.json`` recorded 0.279 s and
#: 0.148 s; the lower pair gives the tighter bound.
BASELINE_S = {"dict": 0.168, "kernel": 0.0763}


def build_graph(params: Dict[str, object]) -> UncertainGraph:
    """Materialise a workload graph from its generator parameters."""
    weights = planted_communities_weighted(**params)  # type: ignore[arg-type]
    return uncertain_from_weights(weights)


def timed_run(
    graph: UncertainGraph, k: int, eta: float, backend: str
) -> float:
    """CPU seconds of one PMUC+ enumeration on ``backend``."""
    config = replace(PMUC_PLUS_CONFIG, backend=backend)
    enumerator = PivotEnumerator(
        graph, k=k, eta=eta, config=config, on_clique=lambda _c: None
    )
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        enumerator.run()
        return time.process_time() - start
    finally:
        gc.enable()


def parity_check(
    graph: UncertainGraph, k: int, eta: float
) -> Tuple[bool, int]:
    """Untimed runs on both backends: ``(cliques+stats equal, outputs)``."""
    dict_run, kernel_run = (
        PivotEnumerator(
            graph, k=k, eta=eta,
            config=replace(PMUC_PLUS_CONFIG, backend=backend),
        ).run()
        for backend in BACKENDS
    )
    equal = (
        set(dict_run.cliques) == set(kernel_run.cliques)
        and dict_run.stats.__dict__ == kernel_run.stats.__dict__
    )
    return equal, dict_run.stats.outputs


def gate_failures(best_s: Dict[str, float], parity: bool) -> List[str]:
    """Every bound the measured bests and the parity pass break."""
    failures = []
    if not parity:
        failures.append("PARITY MISMATCH between backends")
    ratio = best_s["dict"] / best_s["kernel"]
    if ratio < FLOOR:
        failures.append(
            "best-of ratio %.3fx is below the %.1fx floor" % (ratio, FLOOR)
        )
    for backend in BACKENDS:
        limit = BASELINE_S[backend] * TIME_THRESHOLD
        if best_s[backend] > limit:
            failures.append(
                "%s best %.4fs exceeds %.1fx its recorded %.4fs"
                % (backend, best_s[backend], TIME_THRESHOLD,
                   BASELINE_S[backend])
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro.bench.kernel_speedup",
        description="Gate the kernel-over-dict ratio on communities-100.",
    ).parse_args(argv)
    spec = next(w for w in WORKLOADS if w["name"] == GATE_WORKLOAD)
    graph = build_graph(spec["params"])
    k, eta = spec["k"], spec["eta"]
    times: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    for rnd in range(ROUNDS):
        for backend in BACKENDS if rnd % 2 == 0 else BACKENDS[::-1]:
            times[backend].append(timed_run(graph, k, eta, backend))
    best = {backend: min(series) for backend, series in times.items()}
    parity, outputs = parity_check(graph, k, eta)
    row = {
        "workload": GATE_WORKLOAD,
        "k": k,
        "eta": eta,
        "cliques": outputs,
        "dict_best_s": best["dict"],
        "kernel_best_s": best["kernel"],
        "speedup_best": best["dict"] / best["kernel"],
        "parity": "ok" if parity else "MISMATCH",
    }
    print(format_table([row], title="dict vs kernel backend (pmuc+)"))
    failures = gate_failures(best, parity)
    for failure in failures:
        print("GATE FAILURE: %s" % failure)
    if failures:
        return 1
    print("kernel floor gate ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

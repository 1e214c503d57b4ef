"""Partitioned and parallel maximal-clique enumeration.

Algorithm 3's outer loop decomposes the problem by seed vertex: the
recursion rooted at ``v`` emits exactly the maximal cliques whose
minimum-ordered member is ``v``.  The work units are therefore
embarrassingly parallel, and this module exploits that:

* :func:`seed_partitions` — split the ordering into balanced chunks
  (round-robin, so each chunk gets a mix of early/dense and late/sparse
  seeds);
* :func:`enumerate_partitioned` — run the chunks sequentially but
  independently (useful for incremental/checkpointed jobs, and the
  correctness reference for the parallel path);
* :func:`enumerate_parallel` — fan the chunks out to a
  ``multiprocessing`` pool.

The reduction and the vertex ordering are computed **once** in the
parent and shipped to every worker along with its chunk: workers no
longer repeat that preprocessing, and — just as importantly — every
worker provably uses the *same* ordering.  (Before this, each worker
recomputed both; any ordering divergence between spawn workers would
break the one-emitting-seed-per-clique invariant.)

Both drivers keep the *per-shard* view alongside the merged counters:
each chunk contributes one breakdown dict (its own
:class:`~repro.core.stats.SearchStats`, wall seconds, pid, peak RSS,
and — when the config enables observation — the worker's full metrics
snapshot) to ``EnumerationResult.shards``, and
``EnumerationResult.fleet`` carries the imbalance/utilization summary.
With ``flight_dir`` set, every process additionally appends a
crash-safe flight log (:mod:`repro.obs.flight`): the parent records
the dispatch fan-out, each worker records its run, and the logs replay
into the same merged registry the parent computed live.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.core.config import PMUC_PLUS_CONFIG, PivotConfig
from repro.core.pmuc import PivotEnumerator, reduce_graph
from repro.core.stats import EnumerationResult
from repro.reduction.ordering import vertex_ordering
from repro.uncertain.graph import UncertainGraph, Vertex


def seed_partitions(
    graph: UncertainGraph,
    parts: int,
    eta,
    config: PivotConfig = PMUC_PLUS_CONFIG,
) -> List[List[Vertex]]:
    """Split the enumeration seeds into ``parts`` balanced chunks."""
    if parts < 1:
        raise ParameterError(f"parts must be positive, got {parts}")
    order = vertex_ordering(graph, config.ordering, eta)
    chunks: List[List[Vertex]] = [[] for _ in range(parts)]
    for i, v in enumerate(order):
        chunks[i % parts].append(v)
    return [c for c in chunks if c]


def _prepare_jobs(
    graph: UncertainGraph,
    k: int,
    eta,
    parts: int,
    config: PivotConfig,
) -> Tuple[UncertainGraph, List[Vertex], List[List[Vertex]]]:
    """Reduce and order once; chunk the ordering round-robin.

    Chunking the *reduced* ordering (rather than the full-graph
    ordering of :func:`seed_partitions`) skips seeds the reduction
    already eliminated, so no worker burns a slot on a root with no
    surviving candidates.
    """
    if parts < 1:
        raise ParameterError(f"parts must be positive, got {parts}")
    reduced = reduce_graph(graph, k, eta, config)
    order = vertex_ordering(reduced, config.ordering, eta)
    chunks: List[List[Vertex]] = [[] for _ in range(parts)]
    for i, v in enumerate(order):
        chunks[i % parts].append(v)
    return reduced, list(order), [c for c in chunks if c]


def enumerate_partitioned(
    graph: UncertainGraph,
    k: int,
    eta,
    parts: int = 4,
    config: PivotConfig = PMUC_PLUS_CONFIG,
) -> EnumerationResult:
    """Enumerate by running each seed chunk as an independent job.

    The merged clique set and ``outputs`` counter equal a single full
    run (each clique has one emitting seed).  The *effort* counters
    (``calls``, ``mpivot_skips``, ...) are deterministic for a given
    chunking but not invariant across chunkings: the M-pivot warm
    state carries across roots within one chunk, so splitting the seed
    order re-partitions that reuse.  ``parts=1`` reproduces the
    monolithic counters exactly; for any fixed ``parts`` this function
    is the sequential counter-reference for :func:`enumerate_parallel`.
    The per-chunk breakdown survives in ``result.shards`` (all chunks
    share this process's pid).
    """
    reduced, order, chunks = _prepare_jobs(graph, k, eta, parts, config)
    outcomes = [
        _run_chunk((reduced, k, eta, config, chunk, order, index, None))
        for index, chunk in enumerate(chunks)
    ]
    return _merge_outcomes(outcomes)


def enumerate_parallel(
    graph: UncertainGraph,
    k: int,
    eta,
    parts: int = 4,
    processes: Optional[int] = None,
    config: PivotConfig = PMUC_PLUS_CONFIG,
    flight_dir: Optional[str] = None,
    store=None,
) -> EnumerationResult:
    """Enumerate with a multiprocessing pool (one task per seed chunk).

    The parent reduces the graph and fixes the vertex ordering; each
    worker receives the reduced graph, the shared ordering and its
    chunk, so per-worker preprocessing is limited to unpickling.

    ``flight_dir`` enables flight recording: the parent writes
    ``flight-parent.jsonl`` (run start, one ``dispatch`` per shard,
    the merged finish) and each worker writes
    ``flight-worker<NN>.jsonl`` into the same directory.  Replaying
    the worker logs (:func:`repro.obs.flight.merge_flight_registries`)
    reproduces ``result.fleet["metrics"]`` byte for byte when the
    config observes at least at ``obs="light"``.

    ``store`` (a :class:`~repro.store.store.RunStore`) enables
    store-backed reuse: the run is keyed under procedure
    ``peel/parts=N`` — parallel effort counters depend on the chunking
    (M-pivot warm state is per chunk), so a 2-way run never answers a
    4-way query — and a repeated key returns the stored cliques,
    counters and shard breakdown without spawning a single worker.
    Flight logs register as artifacts of the stored run.
    """
    import multiprocessing

    key = None
    if store is not None:
        from repro.store.key import run_key_for

        key = run_key_for(
            graph, k, eta, config, procedure="peel/parts=%d" % parts
        )
        stored = store.get_run(key)
        if stored is not None and stored.cliques is not None:
            result = stored.result()
            result.shards = list(stored.record.extra.get("shards") or [])
            result.fleet = dict(stored.record.extra.get("fleet") or {})
            return result

    reduced, order, chunks = _prepare_jobs(graph, k, eta, parts, config)
    recorder = None
    paths: List[Optional[str]] = [None] * len(chunks)
    if flight_dir is not None:
        from repro.obs.flight import FlightRecorder

        os.makedirs(flight_dir, exist_ok=True)
        paths = [
            os.path.join(flight_dir, "flight-worker%02d.jsonl" % index)
            for index in range(len(chunks))
        ]
        recorder = FlightRecorder(
            os.path.join(flight_dir, "flight-parent.jsonl"), role="parent"
        )
    jobs = [
        (reduced, k, eta, config, chunk, order, index, paths[index])
        for index, chunk in enumerate(chunks)
    ]
    start = time.perf_counter()
    try:
        if recorder is not None:
            recorder.run_start(
                k=k,
                eta=eta,
                backend=config.backend,
                obs=config.obs,
                workers=len(chunks),
                vertices=reduced.num_vertices,
            )
            for index, chunk in enumerate(chunks):
                recorder.dispatch(
                    shard=index, seeds=len(chunk), path=paths[index]
                )
        if len(chunks) <= 1:
            # Degenerate fan-out: run in-process, same code path as a
            # worker so the shard breakdown and flight log still exist.
            outcomes = [_run_chunk(job) for job in jobs]
        else:
            with multiprocessing.get_context("spawn").Pool(
                processes=processes
                or min(len(chunks), multiprocessing.cpu_count())
            ) as pool:
                outcomes = pool.map(_run_chunk, jobs)
        merged = _merge_outcomes(outcomes)
        wall = time.perf_counter() - start
        if recorder is not None:
            recorder.finish(
                stats=merged.stats.as_dict(),
                wall_s=round(wall, 6),
                outputs=merged.stats.outputs,
                fleet={
                    name: value
                    for name, value in sorted(merged.fleet.items())
                    if name != "metrics"
                },
            )
    finally:
        if recorder is not None:
            recorder.close()
    if store is not None:
        from repro.store.records import stamped_record

        record = stamped_record(
            "parallel",
            wall,
            len(merged.cliques),
            merged.stats.as_dict(),
            extra={
                "k": k,
                "eta": repr(eta),
                "parts": parts,
                "shards": merged.shards,
                "fleet": {
                    name: value
                    for name, value in sorted(merged.fleet.items())
                    if name != "metrics"
                },
            },
            backend=key.backend,
        )
        digest = store.put_run(key, record, cliques=merged.cliques)
        if flight_dir is not None:
            for path in [
                os.path.join(flight_dir, "flight-parent.jsonl")
            ] + [p for p in paths if p is not None]:
                store.register_artifact(
                    digest, os.path.basename(path), path
                )
    return merged


def _run_chunk(job) -> Tuple[EnumerationResult, Dict[str, object]]:
    """One shard, in whatever process it landed in.

    Returns the chunk's own :class:`EnumerationResult` plus its
    breakdown dict; everything is built locally and *returned* — spawn
    workers share nothing with the parent (REP006/REP014).
    """
    reduced, k, eta, config, chunk, order, shard, flight_path = job
    recorder = None
    if flight_path is not None:
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(flight_path, role="worker", worker=shard)
        recorder.run_start(
            shard=shard,
            seeds=len(chunk),
            k=k,
            eta=eta,
            backend=config.backend,
            obs=config.obs,
        )
    enumerator = PivotEnumerator(reduced, k, eta, config)
    start = time.perf_counter()
    try:
        if recorder is not None:
            from repro.obs.session import observe

            # A worker-local session with no artifact paths: its only
            # job is handing the flight recorder to the observer the
            # run builds, so per-root heartbeats (every level) and
            # emission milestones (``metrics``/``full`` only — they
            # ride the per-node ``on_emit`` hook) land in this
            # worker's log.
            with observe(flight=recorder):
                result = enumerator.run(
                    seeds=chunk, reduced_graph=reduced, order=order
                )
        else:
            result = enumerator.run(
                seeds=chunk, reduced_graph=reduced, order=order
            )
    except Exception as error:
        if recorder is not None:
            recorder.violation(type(error).__name__, str(error))
            recorder.close()
        raise
    wall = time.perf_counter() - start
    from repro.obs.runtime import peak_rss_bytes

    obs = enumerator.obs
    metrics = obs.metrics.as_dict() if obs is not None else None
    info: Dict[str, object] = {
        "shard": shard,
        "seeds": len(chunk),
        "pid": os.getpid(),
        "wall_s": round(wall, 6),
        "outputs": result.stats.outputs,
        "calls": result.stats.calls,
        "peak_rss_bytes": peak_rss_bytes(),
        "backend": enumerator.backend_used,
        "variant": enumerator.variant_used,
        "metrics": metrics,
        "flight": flight_path,
    }
    if recorder is not None:
        for name, seconds in result.phases.items():
            recorder.phase(name, seconds)
        recorder.finish(
            stats=result.stats.as_dict(),
            metrics=metrics,
            wall_s=round(wall, 6),
            outputs=result.stats.outputs,
        )
        recorder.close()
    return result, info


def _merge_outcomes(
    outcomes: Sequence[Tuple[EnumerationResult, Dict[str, object]]]
) -> EnumerationResult:
    """Fold per-chunk outcomes into one result with a fleet view."""
    from repro.obs.fleet import fleet_summary

    merged = EnumerationResult()
    for result, info in outcomes:
        merged.cliques.extend(result.cliques)
        _accumulate(merged, result)
        merged.shards.append(info)
    merged.fleet = fleet_summary(merged.shards)
    return merged


def _accumulate(merged: EnumerationResult, part: EnumerationResult) -> None:
    stats = merged.stats
    other = part.stats
    stats.calls += other.calls
    stats.expansions += other.expansions
    stats.outputs += other.outputs
    stats.mpivot_skips += other.mpivot_skips
    stats.kpivot_stops += other.kpivot_stops
    stats.size_prunes += other.size_prunes
    stats.max_depth = max(stats.max_depth, other.max_depth)
    phases = merged.phases
    for name, seconds in part.phases.items():
        phases[name] = phases.get(name, 0.0) + seconds

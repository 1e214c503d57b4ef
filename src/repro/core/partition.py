"""Partitioned and parallel maximal-clique enumeration.

Algorithm 3's outer loop decomposes the problem by seed vertex: the
recursion rooted at ``v`` emits exactly the maximal cliques whose
minimum-ordered member is ``v``.  The work units are therefore
embarrassingly parallel, and :func:`enumerate_parallel` exploits that.

The parent reduces the graph and fixes the vertex ordering **once**,
and :func:`_prepare_jobs` splits that ordering round-robin into chunks
(so each chunk gets a mix of early/dense and late/sparse seeds).
Every chunk runs the parent's reduced graph with the reduction
switched off, the way :class:`~repro.core.session.CliqueQuerySession`
runs its slices, on the parent's ordering: no chunk repeats the
preprocessing, and every chunk provably uses the *same* ordering,
which the one-emitting-seed-per-clique invariant needs.

With at most one worker (``processes=1``, one chunk or none, or one
CPU) the chunks run one after another in this process and no pool
starts; that call is the sequential counter reference for any pool
with the same ``parts``.  More workers fan the chunks out to a
spawn-context process pool.

Each chunk contributes one breakdown dict (its counters, wall seconds,
pid, peak RSS, and — when the config enables observation — its full
metrics snapshot) to ``EnumerationResult.shards``, and
``EnumerationResult.fleet`` carries the imbalance/utilization summary.
With ``flight_dir`` set, every chunk additionally appends a crash-safe
flight log (:mod:`repro.obs.flight`) whose ``finish`` record is that
breakdown plus the chunk's flat stats: the parent records the dispatch
fan-out, each chunk records its run, and the logs replay into the
same merged registry the parent computed live.
"""

from __future__ import annotations

import fnmatch
import os
import shutil
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.core.config import PMUC_PLUS_CONFIG, PivotConfig
from repro.core.pmuc import PivotEnumerator, reduce_graph
from repro.core.stats import EnumerationResult
from repro.reduction.ordering import vertex_ordering
from repro.uncertain.graph import UncertainGraph, Vertex


def _prepare_jobs(
    graph: UncertainGraph,
    k: int,
    eta,
    parts: int,
    config: PivotConfig,
) -> Tuple[UncertainGraph, List[Vertex], List[List[Vertex]]]:
    """Reduce and order once; chunk the ordering round-robin.

    Chunking the *reduced* ordering skips seeds the reduction already
    eliminated, so no chunk spends a slot on a root with no surviving
    candidates; a graph the reduction empties has no chunks.
    """
    if parts < 1:
        raise ParameterError(f"parts must be positive, got {parts}")
    reduced = reduce_graph(graph, k, eta, config)
    order = vertex_ordering(reduced, config.ordering, eta)
    chunks: List[List[Vertex]] = [[] for _ in range(parts)]
    for i, v in enumerate(order):
        chunks[i % parts].append(v)
    return reduced, list(order), [c for c in chunks if c]


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
    """Enumerate by seed chunk, on a process pool of two or more workers.

    The parent reduces the graph and fixes the vertex ordering; each
    chunk receives the reduced graph, the shared ordering and its
    seeds, so per-chunk preprocessing is limited to unpickling.  The
    pool has ``processes`` workers (default: one per CPU), never more
    than there are chunks.  With at most one worker the chunks run in
    this process and no pool starts: the merged counters are then the
    sequential reference for every pool with the same ``parts``.

    The merged clique set and ``outputs`` counter equal a single full
    run (each clique has one emitting seed).  The *effort* counters
    (``calls``, ``mpivot_skips``, ...) are deterministic for a given
    ``parts`` but not invariant across chunkings: the M-pivot warm
    state carries across roots within one chunk, so splitting the seed
    order re-partitions that reuse.  ``parts=1`` reproduces the
    monolithic counters exactly.

    ``flight_dir`` enables flight recording: the parent writes
    ``flight-parent.jsonl`` (run start, one ``dispatch`` per shard,
    the merged finish) and each worker writes
    ``flight-worker<NN>.jsonl`` into the same directory, after
    removing the flight logs an earlier call left there.  Replaying
    the worker logs (:func:`repro.obs.flight.merge_flight_registries`)
    reproduces ``result.fleet["metrics"]`` byte for byte when the
    config observes at least at ``obs="light"``.  The directory ends
    holding exactly the logs of the run whose result is returned: a
    store hit copies in the logs stored with that run, if any.

    ``store`` (a :class:`~repro.store.store.RunStore`) enables
    store-backed reuse: the run is keyed under procedure
    ``peel/parts=N`` — parallel effort counters depend on the chunking
    (M-pivot warm state is per chunk), so a 2-way run never answers a
    4-way query — and a repeated key replays the stored cliques,
    counters, phases, shards and fleet summary through
    :func:`~repro.store.records.replay_or_run` without spawning a
    single worker.  A miss stores its flight logs as artifacts of the
    run, in the same entry.

    A worker that dies mid-chunk (killed, out of memory) makes the
    call raise ``BrokenProcessPool`` and cancels the chunks not yet
    started; a chunk that raises propagates its own exception.  With
    ``flight_dir`` set, the parent log then ends with a ``violation``
    record.
    """
    if flight_dir is not None:
        # Recorders append, and a hit records nothing: an earlier
        # call's logs (and its extra shards' logs) would otherwise
        # replay as this run.
        os.makedirs(flight_dir, exist_ok=True)
        for name in _flight_logs(flight_dir):
            os.remove(os.path.join(flight_dir, name))
    if store is None:
        return _fan_out(graph, k, eta, parts, processes, config, flight_dir)[0]
    from repro.store.key import run_key_for
    from repro.store.records import replay_or_run, result_record

    key = run_key_for(
        graph, k, eta, config, procedure="peel/parts=%d" % parts
    )

    def produce():
        merged, wall = _fan_out(
            graph, k, eta, parts, processes, config, flight_dir
        )
        return merged, result_record(
            "parallel", wall, merged, k, eta,
            extra={"parts": parts},
            backend=key.backend,
            variant=key.variant,
        )

    def flight_logs():
        return {
            name: os.path.join(flight_dir, name)
            for name in _flight_logs(flight_dir)
        }

    result, _record, stored = replay_or_run(
        store, key, produce,
        artifacts=flight_logs if flight_dir is not None else None,
    )
    if stored is not None and flight_dir is not None:
        for name, path in sorted(stored.artifacts.items()):
            shutil.copyfile(path, os.path.join(flight_dir, name))
    return result


def _flight_logs(flight_dir: str) -> List[str]:
    """The parent's and the workers' flight log names in ``flight_dir``."""
    return [
        name
        for name in sorted(os.listdir(flight_dir))
        if name == "flight-parent.jsonl"
        or fnmatch.fnmatch(name, "flight-worker*.jsonl")
    ]


def _fan_out(
    graph: UncertainGraph,
    k: int,
    eta,
    parts: int,
    processes: Optional[int],
    config: PivotConfig,
    flight_dir: Optional[str],
) -> Tuple[EnumerationResult, float]:
    """Reduce, order and run every chunk: the merged result and the
    wall seconds of the dispatch, from the first chunk to the merge."""
    reduced, order, chunks = _prepare_jobs(graph, k, eta, parts, config)
    recorder = None
    paths: List[Optional[str]] = [None] * len(chunks)
    if flight_dir is not None:
        from repro.obs.flight import FlightRecorder

        paths = [
            os.path.join(flight_dir, "flight-worker%02d.jsonl" % index)
            for index in range(len(chunks))
        ]
        recorder = FlightRecorder(
            os.path.join(flight_dir, "flight-parent.jsonl"), role="parent"
        )
    # Chunks run the reduced graph with the reduction off, as the
    # session runs its slices: the parent already reduced it.
    chunk_config = replace(config, reduction="off")
    jobs = [
        (reduced, k, eta, chunk_config, chunk, order, index, paths[index])
        for index, chunk in enumerate(chunks)
    ]
    workers = min(len(chunks), processes or os.cpu_count() or 1)
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
        if workers <= 1:
            # At most one worker: run every chunk here, through the
            # worker's own code path, and start no pool.
            outcomes = [_run_chunk(job) for job in jobs]
        else:
            # An executor, not a multiprocessing Pool: a worker that
            # dies mid-chunk breaks the executor, which raises
            # BrokenProcessPool, where Pool.map would wait forever.
            # Imported here: a module-level import would load
            # multiprocessing for every ``import repro.core``.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
            try:
                outcomes = list(pool.map(_run_chunk, jobs))
            finally:
                pool.shutdown(cancel_futures=True)
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
    except Exception as error:
        if recorder is not None:
            recorder.violation(type(error).__name__, str(error))
        raise
    finally:
        if recorder is not None:
            recorder.close()
    return merged, wall


def _run_chunk(job) -> Tuple[EnumerationResult, Dict[str, object]]:
    """One shard, in whatever process it landed in.

    Returns the chunk's own :class:`EnumerationResult` plus its
    breakdown dict, which is also the ``finish`` record of the chunk's
    flight log (with the flat stats added); everything is built
    locally and *returned* — spawn workers share nothing with the
    parent (REP014).  On the kernel the result's cliques are still id
    rows over the shared ordering, so they cross the pipe as small int
    tuples.
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
                result = enumerator.run(seeds=chunk, order=order)
        else:
            result = enumerator.run(seeds=chunk, order=order)
    except Exception as error:
        if recorder is not None:
            recorder.violation(type(error).__name__, str(error))
            recorder.close()
        raise
    wall = time.perf_counter() - start
    from repro.obs.runtime import peak_rss_bytes

    obs = enumerator.obs
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
        "metrics": obs.metrics.as_dict() if obs is not None else None,
        "flight": flight_path,
    }
    if recorder is not None:
        for name, seconds in result.phases.items():
            recorder.phase(name, seconds)
        recorder.finish(stats=result.stats.as_dict(), **info)
        recorder.close()
    return result, info


def _merge_outcomes(
    outcomes: Sequence[Tuple[EnumerationResult, Dict[str, object]]]
) -> EnumerationResult:
    """Fold per-chunk outcomes into one result with a fleet view.

    Every chunk relabels the same reduced graph in the same shipped
    order, so kernel chunks share one label table and their id rows
    concatenate without building a set.
    """
    from repro.obs.fleet import fleet_summary

    merged = EnumerationResult()
    for result, info in outcomes:
        merged.cliques.extend(result.cliques)
        _accumulate(merged, result)
        merged.shards.append(info)
    merged.fleet = fleet_summary(merged.shards)
    return merged


def _accumulate(merged: EnumerationResult, part: EnumerationResult) -> None:
    """Add ``part``'s counters and phase seconds into ``merged``: every
    counter sums, and ``max_depth`` keeps the deeper shard's."""
    stats = merged.stats
    for name, value in part.stats.as_dict().items():
        if name == "max_depth":
            value = max(stats.max_depth, value)
        else:
            value += getattr(stats, name)
        setattr(stats, name, value)
    phases = merged.phases
    for name, seconds in part.phases.items():
        phases[name] = phases.get(name, 0.0) + seconds

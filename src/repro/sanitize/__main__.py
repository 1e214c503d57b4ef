"""Acceptance driver: sanitized runs over the standard workloads.

``python -m repro.sanitize`` runs the Figure-1 graph and (unless
``--quick``) the ``repro.bench.kernel_speedup`` workloads on **both**
backends with the sanitizer at the requested level, reporting per-run
check counts.  Exit status 1 on the first violation (the serialized
report is printed for replay), 0 when everything passes.

With ``--store DIR`` every run persists into the run store at ``DIR``
under its canonical :class:`~repro.store.key.RunKey`: a clean run
stores its clique set and the record of
:func:`~repro.store.records.run_stamped` (counters and phase seconds),
so a service request for the same key replays it; a violating run
stores the serialized :class:`~repro.sanitize.report.ViolationReport`
and no clique set, which ``get_run`` treats as a miss and
``repro-store query show`` prints (replayable via
``repro.sanitize.replay``).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from repro.bench.kernel_speedup import WORKLOADS, build_graph
from repro.core.config import PMUC_PLUS_CONFIG, SANITIZE_CHOICES
from repro.core.pmuc import PivotEnumerator
from repro.datasets.figure1 import figure1_graph
from repro.exceptions import SanitizerViolation
from repro.store.key import run_key_for
from repro.store.records import run_stamped, stamped_record


def _run(name, graph, k, eta, backend, level, store=None) -> bool:
    config = replace(PMUC_PLUS_CONFIG, backend=backend, sanitize=level)
    enumerator = PivotEnumerator(graph, k, eta, config)
    label = "sanitize:%s" % name
    start = time.perf_counter()
    try:
        result, record = run_stamped(
            label, enumerator, k, eta, extra={"sanitize": level}
        )
    except SanitizerViolation as violation:
        seconds = time.perf_counter() - start
        print(f"FAIL {name} [{backend}]: {violation}")
        if violation.report is not None:
            print(violation.report.to_json())
        if store is not None:
            report = (
                violation.report.as_dict()
                if violation.report is not None
                else {"message": str(violation)}
            )
            digest = store.put_run(
                run_key_for(graph, k, eta, config),
                stamped_record(
                    label,
                    seconds,
                    0,
                    extra={"k": k, "eta": repr(eta), "violation": report},
                    backend=enumerator.backend_used,
                    variant=enumerator.variant_used,
                ),
                violation=report,
            )
            print(f"     stored violation report as {digest[:12]}")
        return False
    print(
        f"ok   {name} [{backend}]: {result.stats.outputs} cliques, "
        f"{record.seconds:.2f}s"
    )
    if store is not None:
        store.put_run(
            run_key_for(graph, k, eta, config), record, cliques=result.cliques
        )
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize", description=__doc__
    )
    parser.add_argument(
        "--sanitize",
        choices=[c for c in SANITIZE_CHOICES if c != "off"],
        default="full",
        help="sanitizer level for every run (default: full)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="Figure-1 graph only (skip the benchmark workloads)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist every run (and any violation report) to the run "
        "store at DIR",
    )
    args = parser.parse_args(argv)
    store = None
    if args.store is not None:
        from repro.store.store import RunStore

        store = RunStore(args.store)

    jobs = [("figure1", figure1_graph(), 3, 0.1)]
    if not args.quick:
        for spec in WORKLOADS:
            graph = build_graph(spec["params"])
            jobs.append((spec["name"], graph, spec["k"], spec["eta"]))

    ok = True
    for name, graph, k, eta in jobs:
        for backend in ("dict", "kernel"):
            ok = _run(name, graph, k, eta, backend, args.sanitize, store) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

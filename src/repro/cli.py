"""Command-line entry point: run any paper experiment and print its table.

Usage::

    repro-bench table1
    repro-bench fig3 --datasets enron soflow --ks 6 8 --quick
    repro-bench all --quick

``--quick`` shrinks the parameter grids so every experiment finishes in
seconds (useful for CI and for a first look); without it the default
scaled grids are used.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.bench import (
    experiment_ablation,
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6_fig7,
    experiment_fig8,
    experiment_fig9,
    experiment_fig10,
    experiment_fig11,
    experiment_table1,
    experiment_table2,
    experiment_table3,
    print_table,
)

_QUICK_KS = (4, 6)
_QUICK_ETAS = (0.05, 0.1)
_QUICK_DATASETS = ("enron", "soflow")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the tables and figures of the SIGMOD'22 "
        "pivot-based uncertain-clique paper on synthetic stand-ins.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment to run (table/figure id) or 'all'",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument(
        "--quick", action="store_true", help="use a reduced parameter grid"
    )
    parser.add_argument(
        "--datasets", nargs="*", default=None, help="dataset names (fig3 only)"
    )
    parser.add_argument("--ks", nargs="*", type=int, default=None, help="k grid")
    parser.add_argument(
        "--etas", nargs="*", type=float, default=None, help="eta grid"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write all result rows to PATH as JSON",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="also write a rendered markdown report to PATH",
    )
    parser.add_argument(
        "--backend",
        choices=("dict", "kernel"),
        default=None,
        help=(
            "force the enumeration backend for every config that does "
            "not pin one explicitly (see docs/architecture.md); the "
            "default honors the REPRO_BACKEND environment variable"
        ),
    )
    parser.add_argument(
        "--sanitize",
        choices=("off", "light", "full"),
        default="off",
        help=(
            "enable the runtime invariant sanitizer for every "
            "enumeration in the experiment (see docs/analysis.md); a "
            "violation aborts with a replayable report"
        ),
    )
    parser.add_argument(
        "--obs",
        choices=("off", "light", "metrics", "full"),
        default="off",
        help=(
            "enable the observability layer for every enumeration in "
            "the experiment (see docs/observability.md); 'light' keeps "
            "counters, gauges and phase timers on the production "
            "recursion, 'metrics' adds per-depth histograms through "
            "the hooked recursion, 'full' adds trace spans and sampled "
            "stacks on top of metrics"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print a live progress/ETA line to stderr while each "
            "enumeration runs; implies --obs light unless --obs was "
            "given (light is lifecycle-only, so the enumeration keeps "
            "its production recursion variant)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write the combined Chrome-trace JSONL to PATH (plus the "
            "folded stacks to PATH.folded and the metrics document to "
            "PATH.metrics.json); implies --obs full unless --obs was "
            "given"
        ),
    )
    args = parser.parse_args(argv)
    if args.backend is not None:
        # PivotConfig reads REPRO_BACKEND at construction time, so the
        # override reaches every config the experiments build that does
        # not pin a backend explicitly.
        os.environ["REPRO_BACKEND"] = args.backend
    if args.sanitize != "off":
        # Experiments build their PivotConfigs internally; the
        # environment override reaches them all without threading a
        # parameter through every experiment signature.
        os.environ["REPRO_SANITIZE"] = args.sanitize
    if args.trace_out and args.obs == "off":
        args.obs = "full"
    if args.progress and args.obs == "off":
        args.obs = "light"
    if args.obs != "off":
        # Same mechanism as --sanitize: the environment override
        # reaches every internally-built PivotConfig.
        os.environ["REPRO_OBS"] = args.obs
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    collected = {}
    session = None
    from contextlib import ExitStack

    with ExitStack() as stack:
        if args.obs != "off":
            from repro.obs.session import observe

            progress = None
            if args.progress:
                from repro.obs.progress import ProgressTracker

                progress = ProgressTracker(
                    stream=sys.stderr, label="repro-bench"
                )
            session = stack.enter_context(observe(
                trace_path=args.trace_out,
                folded_path=(
                    f"{args.trace_out}.folded" if args.trace_out else None
                ),
                metrics_path=(
                    f"{args.trace_out}.metrics.json"
                    if args.trace_out
                    else None
                ),
                progress=progress,
            ))
        for name in names:
            title, runner = EXPERIMENTS[name]
            rows = runner(args)
            collected[name] = {"title": title, "rows": rows}
            print_table(rows, title=f"== {title} ==")
            print()
    if session is not None and args.trace_out:
        print(
            f"wrote trace to {args.trace_out} "
            f"({len(session.observers)} observed runs; summarize with "
            f"'python -m repro.obs report {args.trace_out}')"
        )
    if args.json:
        from repro.bench.report import to_json

        with open(args.json, "w", encoding="utf-8") as f:
            f.write(to_json(collected))
        print(f"wrote JSON results to {args.json}")
    if args.markdown:
        from repro.bench.report import render_report

        with open(args.markdown, "w", encoding="utf-8") as f:
            f.write(
                render_report(
                    collected,
                    title="Reproduction report",
                    preamble=f"Generated by `repro-bench` (seed {args.seed}).",
                )
            )
        print(f"wrote markdown report to {args.markdown}")
    return 0


def _simple(runner: Callable[..., list]) -> Callable:
    def run(args) -> list:
        return runner(seed=args.seed)

    return run


def _grid(runner: Callable[..., list], quick_datasets=("cahepph", "soflow")) -> Callable:
    def run(args) -> list:
        kwargs: Dict[str, object] = {"seed": args.seed}
        if args.quick:
            kwargs.update(datasets=quick_datasets, ks=_QUICK_KS, etas=_QUICK_ETAS)
        if args.datasets:
            kwargs["datasets"] = tuple(args.datasets)
        if args.ks:
            kwargs["ks"] = tuple(args.ks)
        if args.etas:
            kwargs["etas"] = tuple(args.etas)
        return runner(**kwargs)

    return run


def _fig8(args) -> list:
    kwargs: Dict[str, object] = {"seed": args.seed}
    if args.quick:
        kwargs.update(ks=_QUICK_KS)
    if args.datasets:
        kwargs["datasets"] = tuple(args.datasets)
    if args.ks:
        kwargs["ks"] = tuple(args.ks)
    return experiment_fig8(**kwargs)


def _fig9(args) -> list:
    kwargs: Dict[str, object] = {"seed": args.seed}
    if args.quick:
        kwargs["fractions"] = (0.4, 1.0)
    return experiment_fig9(**kwargs)


def _fig10(args) -> list:
    kwargs: Dict[str, object] = {"seed": args.seed}
    if args.quick:
        kwargs["datasets"] = _QUICK_DATASETS
    if args.datasets:
        kwargs["datasets"] = tuple(args.datasets)
    return experiment_fig10(**kwargs)


def _ablation(args) -> list:
    kwargs: Dict[str, object] = {"seed": args.seed}
    if args.datasets:
        kwargs["datasets"] = tuple(args.datasets)
    return experiment_ablation(**kwargs)


EXPERIMENTS: Dict[str, tuple] = {
    "table1": ("Table 1: dataset statistics", _simple(experiment_table1)),
    "fig3": ("Fig. 3: runtime of MUC / PMUC / PMUC+", _grid(experiment_fig3, _QUICK_DATASETS)),
    "fig4": ("Fig. 4: vertex orderings", _grid(experiment_fig4)),
    "fig5": ("Fig. 5: pivot selection strategies", _grid(experiment_fig5)),
    "fig6-7": ("Figs. 6-7: graph reduction techniques", _grid(experiment_fig6_fig7)),
    "fig8": ("Fig. 8: probability distributions", _fig8),
    "fig9": ("Fig. 9: scalability", _fig9),
    "fig10": ("Fig. 10: memory overhead", _fig10),
    "table2": ("Table 2: PPI clustering precision", _simple(experiment_table2)),
    "fig11": ("Fig. 11: community search", _simple(experiment_fig11)),
    "table3": ("Table 3: task-driven team formation", _simple(experiment_table3)),
    "ablation": ("Ablation: pruning layers of PMUC+", _ablation),
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

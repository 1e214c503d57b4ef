"""``python -m repro.obs`` — report, diff, and fleet-view artifacts."""

from __future__ import annotations

import argparse
import sys

from repro.obs.diff import (
    DEFAULT_COUNTER_THRESHOLD,
    DEFAULT_TIME_THRESHOLD,
    diff_paths,
)
from repro.obs.report import render_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report",
        help="summarize a trace (JSONL), session metrics document, or "
        "flight log",
    )
    report.add_argument("path", help="artifact file to summarize")

    diff = sub.add_parser(
        "diff",
        help="compare two runs; exit 1 on regression beyond threshold",
    )
    diff.add_argument("baseline", help="baseline session metrics document")
    diff.add_argument("current", help="current session metrics document")
    diff.add_argument(
        "--time-threshold",
        type=float,
        default=DEFAULT_TIME_THRESHOLD,
        help="allowed seconds growth ratio (default: %(default)s — "
        "generous, wall clock crosses machines)",
    )
    diff.add_argument(
        "--counter-threshold",
        type=float,
        default=DEFAULT_COUNTER_THRESHOLD,
        help="allowed search-counter growth ratio (default: %(default)s "
        "— tight, counters are deterministic)",
    )
    diff.add_argument(
        "--only-common",
        action="store_true",
        help="compare only runs present in both documents (gate a "
        "partial re-run against a full baseline); an empty "
        "intersection still fails",
    )

    tail = sub.add_parser(
        "tail",
        help="render one flight log (repro.obs/flight-v1 JSONL) as a "
        "human-readable event listing",
    )
    tail.add_argument("path", help="flight log to render")
    tail.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N events",
    )

    timeline = sub.add_parser(
        "timeline",
        help="turn flight logs into a per-worker Chrome-trace Gantt "
        "(open in chrome://tracing or Perfetto)",
    )
    timeline.add_argument(
        "paths", nargs="+", help="flight logs (parent and/or workers)"
    )
    timeline.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the trace JSONL to PATH (default: stdout)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="per-worker utilization table plus imbalance summary "
        "over flight logs",
    )
    fleet.add_argument(
        "paths", nargs="+", help="flight logs (parent and/or workers)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        try:
            sys.stdout.write(render_path(args.path))
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0
    if args.command == "tail":
        from repro.obs.fleet import render_tail
        from repro.obs.flight import replay_flight

        try:
            log = replay_flight(args.path)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        sys.stdout.write(render_tail(log, last=args.last))
        return 0
    if args.command == "timeline":
        from repro.obs.fleet import load_flights, render_timeline

        try:
            text = render_timeline(load_flights(args.paths))
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    if args.command == "fleet":
        from repro.obs.fleet import load_flights, render_fleet

        try:
            sys.stdout.write(render_fleet(load_flights(args.paths)))
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0
    # diff
    try:
        lines, regressions = diff_paths(
            args.baseline,
            args.current,
            time_threshold=args.time_threshold,
            counter_threshold=args.counter_threshold,
            only_common=args.only_common,
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for regression in regressions:
        print(f"REGRESSION {regression}")
    if regressions:
        print(f"{len(regressions)} regression(s) beyond threshold")
        return 1
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

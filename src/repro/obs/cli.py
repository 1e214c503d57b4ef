"""``python -m repro.obs`` — report and fleet views of artifacts."""

from __future__ import annotations

import argparse
import sys

from repro.obs.fleet import load_flights, render_fleet
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
    try:
        if args.command == "report":
            text = render_path(args.path)
        else:
            text = render_fleet(load_flights(args.paths))
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro.analysis [options] paths…``.

Exit codes: 0 — clean (modulo suppressions); 1 — findings; 2 — usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.registry import all_rules
from repro.analysis.runner import AnalysisReport, analyze


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro-lint: AST-based determinism / numeric-safety / "
            "engine-conformance analysis for the repro codebase"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github", "sarif"),
        default="text",
        help=(
            "output format (default: text); 'github' emits GitHub "
            "Actions ::error annotations so findings surface inline "
            "on pull requests; 'sarif' emits a SARIF 2.1.0 document "
            "for code-scanning upload"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes (default: 1); each file is parsed, "
            "checked and its inline suppressions applied and checked "
            "in a worker; output is identical for every N"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _summary_line(report: AnalysisReport) -> str:
    return (
        f"{len(report.findings)} finding(s) "
        f"({len(report.suppressed)} suppressed) "
        f"in {report.files_scanned} file(s)"
    )


def _print_text(report: AnalysisReport, out) -> None:
    for finding in report.findings:
        print(finding.format_text(), file=out)
    print(_summary_line(report), file=out)


def _gh_escape_data(value: str) -> str:
    """Escape a GitHub Actions workflow-command message payload."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _gh_escape_prop(value: str) -> str:
    """Escape a GitHub Actions workflow-command property value."""
    return (
        _gh_escape_data(value).replace(":", "%3A").replace(",", "%2C")
    )


def _print_github(report: AnalysisReport, out) -> None:
    """GitHub Actions annotations: findings inline on the PR diff."""
    for finding in report.findings:
        print(
            f"::error file={_gh_escape_prop(finding.path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={_gh_escape_prop(finding.rule)}::"
            f"{_gh_escape_data(finding.message)}",
            file=out,
        )
    print(_summary_line(report), file=out)


def _print_json(report: AnalysisReport, out) -> None:
    payload = {
        "findings": [f.as_dict() for f in report.findings],
        "suppressed": [f.as_dict() for f in report.suppressed],
        "files_scanned": report.files_scanned,
        "ok": report.ok,
    }
    json.dump(payload, out, indent=2)
    out.write("\n")


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(
                f"{rule.id}  {rule.severity}  "
                f"{rule.name}: {rule.description}",
                file=out,
            )
        return 0
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        report = analyze(args.paths, jobs=args.jobs)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _print_json(report, out)
    elif args.format == "github":
        _print_github(report, out)
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif

        out.write(render_sarif(report))
    else:
        _print_text(report, out)
    return 0 if report.ok else 1

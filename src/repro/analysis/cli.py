"""Command-line interface: ``python -m repro.analysis [options] paths…``.

Exit codes: 0 — clean (modulo suppressions and baseline); 1 — new
findings; 2 — usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.registry import all_rules
from repro.analysis.runner import AnalysisReport, analyze

#: Sentinel for "--baseline given without a path" (use the default).
_AUTO = "<auto>"


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
            "checked and its inline suppressions applied in a worker, "
            "the baseline in the calling process; output is identical "
            "for every N"
        ),
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=_AUTO,
        default=_AUTO,
        metavar="PATH",
        help=(
            "baseline file of grandfathered findings; without a PATH "
            "(and by default) the nearest repro-lint.baseline.json "
            "above the working directory is used when present"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report every finding as new)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help=(
            "write the current findings to PATH as a baseline skeleton "
            "(justifications must then be filled in by hand) and exit 0"
        ),
    )
    parser.add_argument(
        "--prune-stale",
        action="store_true",
        help=(
            "rewrite the baseline file without its stale entries "
            "(entries matching no current finding); requires a "
            "baseline file"
        ),
    )
    parser.add_argument(
        "--fail-on-stale",
        action="store_true",
        help=(
            "exit 1 when the baseline carries stale entries (entries "
            "matching no current finding); CI uses this so retired "
            "findings cannot linger grandfathered forever"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _load_baseline(args):
    """The (baseline, source path) pair selected by the arguments."""
    if args.no_baseline:
        return None, ""
    if args.baseline == _AUTO:
        found = Baseline.find_default()
        return (Baseline.load(found), found) if found else (None, "")
    return Baseline.load(args.baseline), args.baseline


def _summary_line(report: AnalysisReport) -> str:
    stale = len(report.unused_baseline)
    stale_note = (
        ""
        if not stale
        else (
            f"; {stale} stale baseline "
            f"entr{'y' if stale == 1 else 'ies'} (--prune-stale drops "
            "them)"
        )
    )
    return (
        f"{len(report.findings)} finding(s) "
        f"({len(report.grandfathered)} baselined, "
        f"{len(report.suppressed)} suppressed) "
        f"in {report.files_scanned} file(s)" + stale_note
    )


def _print_text(report: AnalysisReport, out) -> None:
    for finding in report.findings:
        print(finding.format_text(), file=out)
    for entry in report.unused_baseline:
        print(
            f"note: unused baseline entry {entry.rule} for {entry.path} "
            f"({entry.line_text!r}) — the finding is gone; drop the entry",
            file=out,
        )
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
    for entry in report.unused_baseline:
        print(
            f"::notice file={_gh_escape_prop(entry.path)},"
            f"line={entry.line},"
            f"title={_gh_escape_prop(entry.rule + ' stale baseline')}::"
            + _gh_escape_data(
                f"stale baseline entry ({entry.line_text!r}) — the "
                "finding is gone; run --prune-stale"
            ),
            file=out,
        )
    print(_summary_line(report), file=out)


def _print_json(report: AnalysisReport, out) -> None:
    payload = {
        "findings": [f.as_dict() for f in report.findings],
        "grandfathered": [f.as_dict() for f in report.grandfathered],
        "suppressed": [f.as_dict() for f in report.suppressed],
        "unused_baseline": [
            {
                "rule": e.rule,
                "path": e.path,
                "line_text": e.line_text,
                "justification": e.justification,
            }
            for e in report.unused_baseline
        ],
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
    try:
        baseline, baseline_path = _load_baseline(args)
    except (BaselineError, OSError) as exc:
        print(f"error: cannot load baseline: {exc}", file=sys.stderr)
        return 2
    if args.prune_stale and baseline is None:
        print(
            "error: --prune-stale requires a baseline file "
            "(none found or --no-baseline given)",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        report = analyze(args.paths, baseline=baseline, jobs=args.jobs)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.prune_stale:
        stale = set(report.unused_baseline)
        kept = [e for e in baseline.entries if e not in stale]
        with open(baseline_path, "w", encoding="utf-8") as handle:
            handle.write(Baseline.render_entries(kept))
        print(
            f"pruned {len(stale)} stale entr"
            f"{'y' if len(stale) == 1 else 'ies'} from {baseline_path} "
            f"({len(kept)} kept)",
            file=out,
        )
        # The rewritten file no longer has stale entries; report the
        # state the user now has on disk.
        report = AnalysisReport(
            findings=report.findings,
            suppressed=report.suppressed,
            grandfathered=report.grandfathered,
            unused_baseline=[],
            files_scanned=report.files_scanned,
        )
    if args.write_baseline:
        # Keep grandfathered findings in the regenerated file — with
        # their existing justifications — or the documented regeneration
        # workflow would silently drop every committed entry.
        kept = report.findings + report.grandfathered
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(
                Baseline.render(
                    kept,
                    justification="TODO: justify or fix",
                    baseline=baseline,
                )
            )
        print(
            f"wrote {len(kept)} finding(s) to "
            f"{args.write_baseline}",
            file=out,
        )
        return 0
    if args.format == "json":
        _print_json(report, out)
    elif args.format == "github":
        _print_github(report, out)
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif

        out.write(render_sarif(report))
    else:
        _print_text(report, out)
    if not report.ok:
        return 1
    if args.fail_on_stale and report.unused_baseline:
        print(
            "error: baseline has stale entries (--fail-on-stale); run "
            "--prune-stale and commit the result",
            file=sys.stderr,
        )
        return 1
    return 0

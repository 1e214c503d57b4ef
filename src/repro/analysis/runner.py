"""The repro-lint analysis driver.

Collects python files and maps :func:`check_file` over them: it reads
and parses one file, runs every rule on it, applies that file's inline
suppressions and checks the suppressions themselves.  With ``jobs > 1``
the map runs over a process pool, so each file is parsed once, in the
process that checks it; the calling process parses nothing and
concatenates the per-file results in :func:`collect_files` order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules
from repro.analysis.source import SourceFile


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        """True when no unsuppressed findings exist."""
        return not self.findings

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen = []
    for path in paths:
        if os.path.isfile(path):
            seen.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [
                    d for d in dirnames
                    if d not in ("__pycache__", ".git")
                ]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        seen.append(os.path.join(dirpath, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return seen


def run_rules(
    files: List[SourceFile], rules: Optional[List[Rule]] = None
) -> "Tuple[List[Finding], List[Finding]]":
    """Raw ``(kept, suppressed)`` findings of ``rules`` (default: all)."""
    if rules is None:
        rules = all_rules()
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for src in files:
        for rule in rules:
            for finding in rule.run(src):
                if src.suppression_for(finding.rule, finding.line) is None:
                    kept.append(finding)
                else:
                    suppressed.append(finding)
    return sorted(kept), sorted(suppressed)


def suppression_findings(
    src: SourceFile, suppressed: List[Finding]
) -> List[Finding]:
    """One SUPPRESS finding per suppression comment of ``src`` that
    names no rule id, gives no reason, or names an id that silenced
    none of ``suppressed`` (every rule's suppressed findings)."""
    used = {
        (src.suppression_for(f.rule, f.line), f.rule) for f in suppressed
    }
    out: List[Finding] = []
    for line, entry in src.suppressions.items():
        problems = []
        if not entry.ids:
            problems.append("names no rule id")
        elif not entry.reason:
            problems.append("gives no reason")
        idle = sorted(i for i in entry.ids if (line, i) not in used)
        if idle:
            problems.append(f"silenced no {', '.join(idle)} finding")
        if problems:
            out.append(
                Finding(
                    path=src.path,
                    line=line,
                    col=entry.col,
                    rule="SUPPRESS",
                    severity=Severity.ERROR,
                    message=(
                        "suppression comment " + "; ".join(problems)
                        + ": name each silenced rule id and the reason, "
                        "or delete the comment"
                    ),
                    line_text=src.line_text(line),
                )
            )
    return out


def check_file(path: str) -> "Tuple[List[Finding], List[Finding]]":
    """Read, parse and check one file: its ``(kept, suppressed)``.

    Every rule runs, so a suppression comment that silenced nothing is
    known here, and it is kept as a SUPPRESS finding.  A syntax error
    becomes the file's one kept PARSE finding, so an unparseable file
    cannot abort the rest of the scan.  Takes a path and returns
    picklable findings, so it runs unchanged in a pool worker.
    """
    try:
        src = SourceFile.read(path)
    except SyntaxError as exc:
        parse = Finding(
            path=path,
            line=exc.lineno or 0,
            col=exc.offset or 0,
            rule="PARSE",
            severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
            line_text=(exc.text or "").strip(),
        )
        return [parse], []
    kept, suppressed = run_rules([src])
    return kept + suppression_findings(src, suppressed), suppressed


def analyze(paths: Sequence[str], jobs: int = 1) -> AnalysisReport:
    """Run the full analysis over ``paths`` (files and/or directories).

    ``jobs`` worker processes run :func:`check_file` (1 = in-process);
    the output is identical for every value.
    """
    file_paths = collect_files(paths)
    if jobs > 1 and len(file_paths) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(check_file, file_paths, chunksize=1)
    else:
        results = [check_file(path) for path in file_paths]
    report = AnalysisReport(files_scanned=len(file_paths))
    for kept, suppressed in results:
        report.findings.extend(kept)
        report.suppressed.extend(suppressed)
    report.findings.sort()
    return report

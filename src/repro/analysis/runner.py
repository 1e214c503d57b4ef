"""The repro-lint analysis driver.

Collects python files and maps :func:`check_file` over them: it reads
and parses one file, runs every rule on it and applies that file's
inline suppressions.  With ``jobs > 1`` the map runs over a process
pool, so each file is parsed once, in the process that checks it; the
calling process parses nothing, concatenates the per-file results in
:func:`collect_files` order and applies the baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules
from repro.analysis.source import SourceFile


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    grandfathered: List[Finding] = field(default_factory=list)
    unused_baseline: List[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        """True when no new (unsuppressed, unbaselined) findings exist."""
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
    """Raw ``(kept, suppressed)`` findings (baseline not yet applied)."""
    if rules is None:
        rules = all_rules()
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for src in files:
        for rule in rules:
            for finding in rule.run(src):
                if src.is_suppressed(finding.rule, finding.line):
                    suppressed.append(finding)
                else:
                    kept.append(finding)
    return sorted(kept), sorted(suppressed)


def check_file(path: str) -> "Tuple[List[Finding], List[Finding]]":
    """Read, parse and check one file: its ``(kept, suppressed)``.

    A syntax error becomes the file's one kept PARSE finding, so an
    unparseable file cannot abort the rest of the scan.  Takes a path
    and returns picklable findings, so it runs unchanged in a pool
    worker.
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
    return run_rules([src])


def analyze(
    paths: Sequence[str],
    baseline: Optional[Baseline] = None,
    jobs: int = 1,
) -> AnalysisReport:
    """Run the full analysis over ``paths``.

    Parameters
    ----------
    paths:
        Files and/or directories to scan.
    baseline:
        Optional committed baseline; matching findings are reported as
        grandfathered instead of new.
    jobs:
        Worker processes that run :func:`check_file` (1 = in-process).
        Output is identical for every value.
    """
    file_paths = collect_files(paths)
    if jobs > 1 and len(file_paths) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(check_file, file_paths, chunksize=1)
    else:
        results = [check_file(path) for path in file_paths]
    report = AnalysisReport(files_scanned=len(file_paths))
    findings: List[Finding] = []
    for kept, suppressed in results:
        findings.extend(kept)
        report.suppressed.extend(suppressed)
    findings.sort()
    if baseline is not None:
        new, grandfathered, unused = baseline.split(findings)
        report.findings = new
        report.grandfathered = grandfathered
        report.unused_baseline = unused
    else:
        report.findings = findings
    return report

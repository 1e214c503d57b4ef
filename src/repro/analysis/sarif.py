"""SARIF 2.1.0 rendering for repro-lint reports.

SARIF (Static Analysis Results Interchange Format) is the exchange
format GitHub code scanning ingests; ``--format=sarif`` lets CI upload
findings so they surface in the Security tab and as PR annotations
without bespoke glue.  Only the small subset of the schema GitHub
actually reads is emitted:

* ``tool.driver.rules`` — the full rule catalog with descriptions, so
  rule metadata renders even for runs with zero results;
* one ``result`` per finding, and one per suppressed finding marked
  as suppressed ``inSource`` (by an inline comment);
* a ``codeFlow`` per flow finding, translating the finding's trace
  (source → hops → sink) into ``threadFlowLocations`` so the code
  scanning UI shows the provenance chain inline.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import all_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _location(path: str, line: int, col: int, text: str = "") -> dict:
    region: Dict[str, object] = {
        # SARIF columns are 1-based; findings carry 0-based AST cols.
        "startLine": max(line, 1),
        "startColumn": col + 1,
    }
    if text:
        region["snippet"] = {"text": text}
    return {
        "physicalLocation": {
            # Relative URI: code-scanning resolves it against the
            # checkout root, which is exactly where CI runs the lint.
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": region,
        }
    }


def _code_flow(finding: Finding) -> dict:
    locations = []
    for step in finding.trace:
        loc = _location(
            finding.path,
            int(step.get("line", finding.line)),
            int(step.get("col", 0)),
            str(step.get("text", "")),
        )
        loc["message"] = {"text": str(step.get("note", ""))}
        locations.append({"location": loc})
    return {"threadFlows": [{"locations": locations}]}


def _result(finding: Finding, suppressed_kind: str = "") -> dict:
    result: Dict[str, object] = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [
            _location(
                finding.path, finding.line, finding.col, finding.line_text
            )
        ],
    }
    if finding.fingerprint:
        # partialFingerprints is the field GitHub uses to track a
        # result's identity across commits — exactly what the flow
        # fingerprint was built for.
        result["partialFingerprints"] = {
            "reproFlowFingerprint/v1": finding.fingerprint
        }
    if finding.trace:
        result["codeFlows"] = [_code_flow(finding)]
    if suppressed_kind:
        result["suppressions"] = [{"kind": suppressed_kind}]
    return result


def _ruleset_version() -> str:
    from repro.analysis.rules import RULESET_VERSION

    return RULESET_VERSION


def _driver_rules() -> List[dict]:
    rules = []
    for rule in all_rules():
        rules.append(
            {
                "id": rule.id,
                "name": rule.name,
                "shortDescription": {"text": rule.name},
                "fullDescription": {"text": rule.description},
                "defaultConfiguration": {
                    "level": _LEVELS.get(rule.severity, "warning")
                },
            }
        )
    return rules


def render_sarif(report) -> str:
    """One SARIF 2.1.0 document for an :class:`AnalysisReport`."""
    results = [_result(f) for f in report.findings]
    results += [_result(f, "inSource") for f in report.suppressed]
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": _ruleset_version(),
                        "rules": _driver_rules(),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2) + "\n"

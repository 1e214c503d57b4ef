"""Finding and severity objects shared by every repro-lint rule.

A :class:`Finding` is one diagnosed violation: a rule id, a severity,
a source location and a human-readable message.  Findings are plain
frozen dataclasses so they can be sorted, hashed and serialized to
JSON without any rule-specific logic.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break reproducibility or backend parity
    outright; ``WARNING`` findings are numeric-hygiene smells that a
    reviewer must either fix or explicitly justify.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    #: The stripped source line the finding points at.
    line_text: str = field(compare=False, default="")
    #: Dataflow trace (flow rules only): a tuple of step dicts with
    #: ``line``/``col``/``text``/``note`` keys, oldest (the source)
    #: first and the sink last.  Empty for single-point rules.
    trace: Tuple[Dict[str, object], ...] = field(compare=False, default=())
    #: Structural fingerprint (flow rules only): hashes the source and
    #: sink *text*, never line numbers, so a result keeps its identity
    #: across unrelated edits (SARIF ``partialFingerprints``).  Empty
    #: for single-point rules.
    fingerprint: str = field(compare=False, default="")

    def format_text(self) -> str:
        """Render in the classic ``path:line:col: RULE sev: msg`` shape."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (used by ``--format=json``)."""
        out = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "line_text": self.line_text,
        }
        if self.trace:
            out["trace"] = list(self.trace)
        if self.fingerprint:
            out["fingerprint"] = self.fingerprint
        return out


def flow_fingerprint(rule: str, source_text: str, sink_text: str) -> str:
    """Stable fingerprint for a flow finding's source/sink pair.

    Deliberately excludes line numbers and intermediate hops: the
    fingerprint survives any edit that keeps the source and sink lines
    textually intact.
    """
    digest = hashlib.sha256(
        "\x1f".join((rule, source_text.strip(), sink_text.strip())).encode()
    )
    return digest.hexdigest()[:16]

"""The repro-lint rule registry.

Rules self-register at import time through the :func:`rule` decorator;
the runner asks the registry for the active set.  Every checker is
called once per parsed :class:`~repro.analysis.source.SourceFile` and
diagnoses that file in isolation, which is what lets the runner check
each file in whichever process parsed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import SourceFile

Checker = Callable[[SourceFile], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """Metadata plus checker for one registered rule."""

    id: str
    name: str
    severity: Severity
    description: str
    checker: Checker

    def run(self, src: SourceFile) -> List[Finding]:
        """Run the checker and materialize its findings."""
        return list(self.checker(src))


_REGISTRY: Dict[str, Rule] = {}


def rule(
    id: str,
    name: str,
    severity: Severity,
    description: str,
):
    """Decorator registering a checker function under ``id``."""

    def decorate(checker: Checker) -> Checker:
        if id in _REGISTRY:
            raise ValueError(f"rule {id} registered twice")
        _REGISTRY[id] = Rule(
            id=id,
            name=name,
            severity=severity,
            description=description,
            checker=checker,
        )
        return checker

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id (imports rule modules)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Optional[Rule]:
    """Look up one rule by id (None when unknown)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return _REGISTRY.get(rule_id)

"""repro-san: runtime invariant sanitizer for the enumeration stack.

Activate with ``PivotConfig(sanitize="light"|"full")``, the
``--sanitize`` flag of the CLI / benchmarks, or the ``REPRO_SANITIZE``
environment variable (which applies when the config leaves the level at
``"off"``).  See :mod:`repro.sanitize.sanitizer` for the check
catalogue and ``docs/analysis.md`` for the workflow.
"""

from repro.exceptions import SanitizerViolation
from repro.sanitize.checks import (
    CHECK_GUARD,
    DRIFT_TOL,
    exact_clique_probability,
    find_extension,
    is_eta_clique_checked,
    reference_probability,
)
from repro.sanitize.dedup import AddOutcome, CliqueStreamIndex, clique_key
from repro.sanitize.report import CHECK_NAMES, ViolationReport
from repro.sanitize.sanitizer import (
    IdSanitizer,
    Sanitizer,
    build_sanitizer,
    replay,
)

__all__ = [
    "AddOutcome",
    "CHECK_GUARD",
    "CHECK_NAMES",
    "CliqueStreamIndex",
    "DRIFT_TOL",
    "IdSanitizer",
    "Sanitizer",
    "SanitizerViolation",
    "ViolationReport",
    "build_sanitizer",
    "clique_key",
    "exact_clique_probability",
    "find_extension",
    "is_eta_clique_checked",
    "reference_probability",
    "replay",
]

"""The repro-lint rule catalog.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  Rules live one concern per module:

* :mod:`~repro.analysis.rules.determinism` — REP001, REP002
* :mod:`~repro.analysis.rules.numeric` — REP003, REP004
* :mod:`~repro.analysis.rules.conformance` — REP005
* :mod:`~repro.analysis.rules.flow_domains` — REP010, REP011
* :mod:`~repro.analysis.rules.flow_state` — REP012
* :mod:`~repro.analysis.rules.translation` — REP013, REP014
* :mod:`~repro.analysis.rules.store` — REP015

REP006, REP007, REP008 and REP009 are retired and their ids are not
reused: REP014 holds cross-process mutation, REP013 holds hook
coverage and variant parity.
"""

from repro.analysis.rules import (
    conformance,
    determinism,
    flow_domains,
    flow_state,
    numeric,
    store,
    translation,
)

#: The ``version`` of the SARIF ``tool.driver`` record
#: (:mod:`repro.analysis.sarif`); bump it when rule semantics change so
#: code-scanning consumers can tell the rule sets apart.
RULESET_VERSION = "2026.10-comment-only-suppressions"

__all__ = [
    "conformance",
    "determinism",
    "flow_domains",
    "flow_state",
    "numeric",
    "store",
    "translation",
    "RULESET_VERSION",
]

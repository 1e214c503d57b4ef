"""The repro-lint rule catalog.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  Rules live one concern per module:

* :mod:`~repro.analysis.rules.determinism` — REP001, REP002
* :mod:`~repro.analysis.rules.numeric` — REP003, REP004
* :mod:`~repro.analysis.rules.conformance` — REP005
* :mod:`~repro.analysis.rules.parallel` — REP006
* :mod:`~repro.analysis.rules.sanitizer` — REP007
* :mod:`~repro.analysis.rules.obs` — REP008
* :mod:`~repro.analysis.rules.flow_domains` — REP010, REP011
* :mod:`~repro.analysis.rules.flow_state` — REP012
* :mod:`~repro.analysis.rules.translation` — REP013, REP014
* :mod:`~repro.analysis.rules.store` — REP015
"""

from repro.analysis.rules import (
    conformance,
    determinism,
    flow_domains,
    flow_state,
    numeric,
    obs,
    parallel,
    sanitizer,
    store,
    translation,
)

#: Bumped whenever rule semantics change in a way that invalidates
#: cached per-file results (see :mod:`repro.analysis.cache`).  The
#: cache key also folds in the analysis package sources, so this is a
#: human-readable escape hatch, not the only invalidation mechanism.
RULESET_VERSION = "2026.10-variants-6"

__all__ = [
    "conformance",
    "determinism",
    "flow_domains",
    "flow_state",
    "numeric",
    "obs",
    "parallel",
    "sanitizer",
    "store",
    "translation",
    "RULESET_VERSION",
]

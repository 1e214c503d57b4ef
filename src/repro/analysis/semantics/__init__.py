"""Translation validation and escape analysis for the search engine.

Two subsystems live here, both built on the :mod:`repro.analysis.flow`
core and consumed by the REP013/REP014 rules:

* :mod:`~repro.analysis.semantics.ir` /
  :mod:`~repro.analysis.semantics.validate` — a translation validator
  that proves every AST-folded recursion variant is a sound
  specialization of the shared template (same emission sites, same
  recursion structure, hook sites exactly when ``HOOKS`` is on,
  bitset-domain closure on the bitset path), and checks that the
  engine still calls every sanitizer/observer hook;
* :mod:`~repro.analysis.semantics.escape` — interprocedural
  effect/escape summaries over worker dispatches and ``StateOps``
  frontier surfaces (serializability + cross-process mutation).

The validator runs as REP013 in every ``python -m repro.analysis``
scan; a clean scan proves the full variant matrix.
"""

from repro.analysis.semantics.ir import (
    Effect,
    FlagEnv,
    display,
    emissions_of,
    fold_guard,
    guards_equivalent,
    hook_labels_of,
    iter_effects,
    normalize_function,
    recursions_of,
)
from repro.analysis.semantics.validate import (
    Difference,
    flag_summary,
    validate_template_source,
    validate_variant,
)
from repro.analysis.semantics.escape import (
    DispatchSite,
    Mutation,
    PayloadEscape,
    PickleTaint,
    dispatch_sites,
    frontier_returns,
    module_worker_summaries,
    payload_escapes,
    worker_mutations,
    worker_names,
)

__all__ = [
    "Difference",
    "DispatchSite",
    "Effect",
    "FlagEnv",
    "Mutation",
    "PayloadEscape",
    "PickleTaint",
    "dispatch_sites",
    "display",
    "emissions_of",
    "flag_summary",
    "fold_guard",
    "frontier_returns",
    "guards_equivalent",
    "hook_labels_of",
    "iter_effects",
    "module_worker_summaries",
    "normalize_function",
    "payload_escapes",
    "recursions_of",
    "validate_template_source",
    "validate_variant",
    "worker_mutations",
    "worker_names",
]

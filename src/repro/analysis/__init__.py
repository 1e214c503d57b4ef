"""repro-lint — AST correctness analysis for the repro codebase.

The package enforces, statically and on every commit, the invariant
classes this reproduction lives by:

* **determinism** — emission order must be a function of the abstract
  graph, never of ``PYTHONHASHSEED`` or construction history (REP001,
  REP002);
* **numeric safety** — probability/threshold floats are never compared
  with ``==`` unguarded, APIs avoid the classic mutable-default /
  bare-except traps (REP003, REP004);
* **engine conformance** — backend ``StateOps`` classes implement the
  full search-engine protocol and the engine recursion is never copied
  outside :mod:`repro.engine` (REP005); every folded recursion variant
  is a proven specialization of the shared template, and the engine
  keeps every sanitizer and observer hook wired (REP013);
* **flow safety** — log and linear probabilities never mix, bitsets
  stay in the bit domain, and process-wide state is restored on every
  raising path (REP010–REP012);
* **process isolation** — state crossing a worker boundary pickles,
  and multiprocessing workers never mutate state the parent is
  expected to see (REP014);
* **store keys** — run-store key and salt content is deterministic
  (REP015).

Run it with ``python -m repro.analysis [paths…]``; see
``docs/analysis.md`` for the rule catalog and the suppression syntax.
"""

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules, get_rule, rule
from repro.analysis.runner import AnalysisReport, analyze

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "analyze",
    "get_rule",
    "rule",
]

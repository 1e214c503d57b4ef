"""Flow-sensitive analysis core for repro-lint.

Layers (bottom up):

* :mod:`repro.analysis.flow.cfg` — per-function control-flow graphs
  over Python AST, with exception edges and ``finally`` tagging, and
  the expressions each node evaluates (:meth:`Node.exprs`).
* :mod:`repro.analysis.flow.engine` — the worklist fixpoint.
* :mod:`repro.analysis.flow.domains` — origin-chained taint
  environments and the :class:`TaintAnalysis` skeleton rules subclass.
* :mod:`repro.analysis.flow.summaries` — module-local return-tag
  summaries so helper calls propagate taint.

The concrete rules live in :mod:`repro.analysis.rules.flow_domains`
(the one flow-domain pass behind REP010, REP011 and REP003's flow
half), :mod:`repro.analysis.rules.flow_state` (REP012), and the flow
rewrite of REP001 in its original module.
"""

from .cfg import CFG, Node, build_cfg, cfgs_for  # noqa: F401
from .domains import (  # noqa: F401
    Origin,
    TaintAnalysis,
    Tags,
    merge_tags,
    origin_for,
    trace_of,
)
from .engine import fixpoint  # noqa: F401
from .summaries import ModuleSummaries  # noqa: F401

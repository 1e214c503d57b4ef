"""Lightweight module-local call summaries.

Full interprocedural analysis is out of scope, but the engine/kernel
modules constantly route domain values through small local helpers
(``def _nl(p): return -log(p)`` and friends).  A summary here is just
the tag set a function's return value carries when its parameters are
untainted; call sites then merge the summary into the call result in
addition to the usual argument pass-through.

Summaries are computed over two rounds so helper-calls-helper chains
one level deep resolve; deeper chains degrade gracefully to
argument-only propagation (a *may* analysis never loses soundness
here, only recall).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Optional, Set, Tuple

from .cfg import cfgs_for
from .domains import Env, Tags, merge_tags

#: How many rounds of summary refinement to run.
ROUNDS = 2


class ModuleSummaries:
    """``{function_name: Tags}`` for one module's top-level functions
    and methods (methods keyed by bare name — collisions union)."""

    def __init__(self) -> None:
        self.returns: Dict[str, Tags] = {}
        #: Every function name defined in the module — including ones
        #: whose return carries no tags.  Call sites use this to tell
        #: "summarized as clean" apart from "unknown external".
        self.local_names: set = set()
        #: ``id(function) -> before-states`` of its last run when no
        #: summary that run read has changed since: the states a run
        #: under the final summaries computes.
        self.settled: Dict[int, Dict[int, Env]] = {}
        #: Summary names the current run reads (None outside compute).
        self._reads: Optional[Set[str]] = None

    def return_tags(self, name: str) -> Tags:
        if self._reads is not None:
            self._reads.add(name)
        return self.returns.get(name, {})

    def is_local(self, name: str) -> bool:
        return name in self.local_names

    def compute(
        self,
        src,
        make_analysis: Callable[["ModuleSummaries"], object],
    ) -> "ModuleSummaries":
        """Iterate ``make_analysis(self)`` over every function CFG,
        harvesting the tags of ``return`` expressions.

        A function is run again only when a summary its last run read
        has changed since that run began; any other rerun would repeat
        the last one exactly.
        """
        entries = [
            (func, cfg)
            for func, cfg in cfgs_for(src).values()
            if func is not None
        ]
        self.local_names.update(func.name for func, _cfg in entries)
        version = 0  # summary changes so far
        changed_at: Dict[str, int] = {}
        # id(function) -> (version at its last run, names read, states)
        runs: Dict[int, Tuple[int, Set[str], Dict[int, Env]]] = {}

        def stale(func) -> bool:
            run = runs.get(id(func))
            return run is None or any(
                changed_at.get(name, -1) >= run[0] for name in run[1]
            )

        for _ in range(ROUNDS):
            changed = False
            for func, cfg in entries:
                if not stale(func):
                    continue
                analysis = make_analysis(self)
                # Analyses that distinguish recursive self-calls read
                # this to avoid argument-passthrough on them.
                setattr(analysis, "func_name", func.name)
                self._reads = set()
                before = analysis.run(cfg)
                tags = self._harvest(cfg, before, analysis)
                runs[id(func)] = (version, self._reads, before)
                self._reads = None
                old = self.returns.get(func.name, {})
                merged = merge_tags(dict(old), tags)
                if merged != old:
                    self.returns[func.name] = merged
                    changed_at[func.name] = version
                    version += 1
                    changed = True
            if not changed:
                break
        self.settled = {
            id(func): runs[id(func)][2]
            for func, _cfg in entries
            if not stale(func)
        }
        return self

    @staticmethod
    def _harvest(cfg, before, analysis) -> Tags:
        tags: Tags = {}
        for node in cfg.nodes:
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Return)
                and stmt.value is not None
                and node.index in before
            ):
                merge_tags(
                    tags, analysis.expr_tags(stmt.value, before[node.index])
                )
        return tags

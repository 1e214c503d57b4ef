"""REP013 (variant miscompile) and REP014 (frontier-state escape).

**REP013 — translation validation of the folded recursion variants.**
In any file defining ``_search_template`` the rule folds the template
with the production specializer for every legal variant key and runs
the full proof obligations of
:mod:`repro.analysis.semantics.validate`: identical guarded-command
skeletons, emission/recursion parity, hook sites exactly when ``HOOKS``
is on, and bitset-domain closure (the name/call surface; bitset
escapes inside the folded body are REP011's).  Each difference carries
a source-to-sink trace from the template site through the enclosing
structure to the variant site; differences are de-duplicated across
keys so one broken fold reports once, naming the first variant it
breaks.  In a file that also defines ``SearchEngine.run`` (the engine
driver) the rule requires every sanitizer and observer hook label on
the ``search`` closure and on ``run`` (hook coverage).

Fixture/corpus mode: a module that declares ``VARIANT_ENVS = {"name":
{"HOOKS": False, ...}}`` has each named function validated against the
module's template under the declared flags — this is how the seeded
miscompile corpus in ``tests/fixtures/variant_mutants/`` produces real
REP013 findings through the normal rule pipeline.

**REP014 — unserializable or cross-process-mutated frontier state.**
The precondition for the roadmap's sharded work-queue engine: anything
that reaches a worker boundary must pickle, and workers must not
mutate state they received.  Three sinks, all on the
:mod:`repro.analysis.semantics.escape` summaries:

* a dispatch payload (``Pool.map`` family, ``Process(args=...)``)
  carrying unpicklable provenance — lambdas, nested-function closures,
  generator expressions, file/lock handles, or the engine's
  ``search_ops()``/``fast_ops()`` closure bundles;
* a dispatched worker whose interprocedural summary mutates
  parent-owned state — one finding per write, reported at the
  boundary with the write in the trace;
* a ``StateOps`` implementation whose ``root_state`` returns frontier
  state with unpicklable components.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.findings import Finding, Severity, flow_fingerprint
from repro.analysis.registry import rule
from repro.analysis.semantics.escape import (
    dispatch_sites,
    frontier_returns,
    module_worker_summaries,
    payload_escapes,
)
from repro.analysis.semantics.validate import (
    hook_coverage,
    template_def,
    validate_template_source,
    validate_variant,
)
from repro.analysis.source import SourceFile

_ENVS_NAME = "VARIANT_ENVS"


def _declared_envs(tree: ast.AST) -> Dict[str, Dict[str, bool]]:
    """The fixture-mode ``VARIANT_ENVS`` literal, if the module has one."""
    for node in getattr(tree, "body", []):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == _ENVS_NAME
        ):
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, SyntaxError):
                return {}
            if isinstance(value, dict):
                return {
                    str(name): dict(env)
                    for name, env in value.items()
                    if isinstance(env, dict)
                }
    return {}


def _difference_finding(src: SourceFile, diff) -> Finding:
    source_text = src.line_text(diff.spec_line)
    sink_text = src.line_text(diff.line)
    return Finding(
        path=src.path,
        line=diff.line or 1,
        col=0,
        rule="REP013",
        severity=Severity.ERROR,
        message=diff.message,
        line_text=sink_text,
        trace=diff.trace,
        fingerprint=flow_fingerprint(
            "REP013", f"{diff.kind}:{source_text}", sink_text
        ),
    )


@rule(
    "REP013",
    "variant-miscompile",
    Severity.ERROR,
    "every AST-folded recursion variant must be a proven-sound "
    "specialization of the shared template: same emission sites and "
    "recursion structure, hook sites exactly when HOOKS is on, "
    "bitset-domain closure on the bitset path, and every sanitizer and "
    "observer hook wired in the engine",
)
def check_variant_translation(src: SourceFile) -> Iterator[Finding]:
    template = template_def(src.tree)
    if template is None:
        return
    seen: Set[Tuple] = set()
    # Production mode: fold this file's own template with the engine's
    # specializer for every legal key and validate each fold, then
    # check the engine's hook coverage.
    diffs = [d for _key, d in validate_template_source(src.tree, src.lines)]
    diffs.extend(hook_coverage(src.tree, src.lines))
    for diff in diffs:
        anchor = (diff.kind, diff.line, diff.spec_line)
        if anchor in seen:
            continue
        seen.add(anchor)
        yield _difference_finding(src, diff)
    # Corpus mode: validate explicitly declared (function, flags)
    # pairs — the seeded-mutant fixtures ship pre-folded variants.
    envs = _declared_envs(src.tree)
    if not envs:
        return
    defs = {
        node.name: node
        for node in src.tree.body
        if isinstance(node, ast.FunctionDef)
    }
    for name in sorted(envs):
        func = defs.get(name)
        if func is None:
            yield Finding(
                path=src.path,
                line=1,
                col=0,
                rule="REP013",
                severity=Severity.ERROR,
                message=(
                    f"{_ENVS_NAME} declares variant '{name}' but the "
                    "module does not define it"
                ),
                line_text=src.line_text(1),
            )
            continue
        env = {flag: bool(value) for flag, value in envs[name].items()}
        for diff in validate_variant(
            template, func, env, src.lines, name
        ):
            anchor = (diff.kind, diff.line, diff.spec_line)
            if anchor in seen:
                continue
            seen.add(anchor)
            yield _difference_finding(src, diff)


# ----------------------------------------------------------------------
# REP014
# ----------------------------------------------------------------------
def _escape_trace(origin, sink_line: int, sink_text: str,
                  sink_note: str) -> Tuple:
    steps: List[Dict[str, object]] = []
    seen = set()
    for step in origin.steps():
        key = (step["line"], step["col"], step["note"])
        if key not in seen:
            seen.add(key)
            steps.append(step)
    steps.append(
        {"line": sink_line, "col": 0, "text": sink_text,
         "note": sink_note}
    )
    return tuple(steps)


@rule(
    "REP014",
    "frontier-state-escape",
    Severity.ERROR,
    "state crossing a worker/process boundary must be serializable "
    "and must not be mutated on the far side — dispatch payloads, "
    "worker summaries, and StateOps root_state frontiers are checked",
)
def check_frontier_escape(src: SourceFile) -> Iterator[Finding]:
    reported: Set[Tuple[int, str]] = set()

    def emit(line: int, message: str, trace: Tuple,
             source_text: str) -> Iterator[Finding]:
        anchor = (line, message)
        if anchor in reported:
            return
        reported.add(anchor)
        sink_text = src.line_text(line)
        yield Finding(
            path=src.path,
            line=line,
            col=0,
            rule="REP014",
            severity=Severity.ERROR,
            message=message,
            line_text=sink_text,
            trace=trace,
            fingerprint=flow_fingerprint(
                "REP014", source_text, sink_text
            ),
        )

    # 1. Unserializable dispatch payloads.
    for escape in payload_escapes(src):
        root = escape.origin.root()
        line = escape.site.line
        yield from emit(
            line,
            (
                f"dispatch payload for {escape.site.describe()} carries "
                f"unserializable state (from {root.note}, line "
                f"{root.line}); it cannot cross the process boundary"
            ),
            _escape_trace(
                escape.origin,
                line,
                src.line_text(line),
                "reaches the process boundary here",
            ),
            root.text,
        )

    # 2. Workers whose summaries mutate parent-owned state: one finding
    #    per write, reported at the boundary (the dispatch is what makes
    #    the write a bug) with the write itself in the trace.
    summaries = module_worker_summaries(src)
    if summaries:
        boundary_of: Dict[str, int] = {}
        for site in dispatch_sites(src.tree):
            if isinstance(site.worker, ast.Name):
                boundary_of.setdefault(site.worker.id, site.line)
        for name, mutations in summaries.items():
            for mutation in mutations:
                line = boundary_of.get(name, mutation.line)
                steps: List[Dict[str, object]] = []
                if mutation.origin is not None:
                    steps.extend(mutation.origin.steps())
                steps.append(
                    {
                        "line": mutation.line,
                        "col": mutation.node.col_offset,
                        "text": src.line_text(mutation.line),
                        "note": f"worker '{name}' {mutation.what}",
                    }
                )
                steps.append(
                    {
                        "line": line,
                        "col": 0,
                        "text": src.line_text(line),
                        "note": "worker crosses the process boundary here",
                    }
                )
                yield from emit(
                    line,
                    (
                        f"worker '{name}' mutates state it received "
                        f"across the process boundary ({mutation.what}, "
                        f"line {mutation.line}); the write never reaches "
                        "the parent"
                    ),
                    tuple(steps),
                    src.line_text(mutation.line),
                )

    # 3. StateOps frontier surfaces.
    for ret, origin in frontier_returns(src):
        root = origin.root()
        yield from emit(
            ret.lineno,
            (
                "frontier state returned by root_state carries "
                f"unserializable components (from {root.note}, line "
                f"{root.line}); it cannot be shipped to a worker"
            ),
            _escape_trace(
                origin,
                ret.lineno,
                src.line_text(ret.lineno),
                "frontier state leaves root_state here",
            ),
            root.text,
        )

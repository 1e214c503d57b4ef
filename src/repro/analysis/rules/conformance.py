"""REP005 — engine/StateOps conformance.

The backend-agnostic search engine (:mod:`repro.engine`) replaced the
old dict/kernel mirror: there is exactly one recursion, in
:mod:`repro.engine.driver`, and backends plug in through the
``StateOps`` protocol.  Two structural regressions remain possible and
this rule pins both down on every lint run:

* a backend class subclasses ``StateOps`` without implementing the
  full protocol surface, or without exactly one hot path
  (``search_ops`` for the generic recursion shape, ``fast_ops`` for
  the bitset shape — a backend that carried both would keep a second
  state algebra that only some runs execute).  ``validate_state_ops``
  catches that at run time, but only on the first run of that
  backend — the lint catches it on every scan, before any test
  selects the backend;
* someone reintroduces a private copy of the engine recursion outside
  ``src/repro/engine`` — recognized as a self-recursive function that
  carries *both* an M-pivot marker (the ``mpivot_skips`` counter or a
  ``periphery`` rebinding) *and* a K-pivot/size marker
  (``kpivot_stops`` / ``size_prunes``).  Requiring both families keeps
  the hereditary framework (Algorithm 2 — the deliberately general
  periphery search, which has no size accounting) exempt by
  construction while any copy of the engine's combined search trips
  the rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule
from repro.analysis.source import SourceFile, terminal_name, walk_functions
from repro.engine.protocol import HOT_PATHS, PROTOCOL_ATTRS, PROTOCOL_METHODS

#: The protocol base class backends subclass.
_BASE = "StateOps"
#: Path component that marks the engine package: the one place the
#: recursion (and its markers) may live.
_ENGINE_COMPONENT = "engine"

_MPIVOT_COUNTERS = ("mpivot_skips",)
_KPIVOT_COUNTERS = ("kpivot_stops", "size_prunes")


def _is_stateops_subclass(cls: ast.ClassDef) -> bool:
    if cls.name == _BASE:
        return False  # the protocol base itself defines the surface
    return any(terminal_name(base) == _BASE for base in cls.bases)


def _class_surface(cls: ast.ClassDef) -> Tuple[set, set]:
    """``(method names, class-attribute names)`` defined in the body."""
    methods = set()
    attrs = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                name = terminal_name(target)
                if name:
                    attrs.add(name)
        elif isinstance(stmt, ast.AnnAssign):
            name = terminal_name(stmt.target)
            if name:
                attrs.add(name)
    return methods, attrs


def _in_engine_package(path: str) -> bool:
    return _ENGINE_COMPONENT in re.split(r"[\\/]", path)


def _is_self_recursive(func: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and terminal_name(node.func) == func.name
        for node in ast.walk(func)
    )


def _search_markers(func: ast.AST) -> Tuple[bool, bool]:
    """``(mpivot, kpivot)`` marker presence inside ``func``."""
    mpivot = kpivot = False
    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign):
            name = terminal_name(node.target)
            if name in _MPIVOT_COUNTERS:
                mpivot = True
            elif name in _KPIVOT_COUNTERS:
                kpivot = True
        elif isinstance(node, ast.Assign):
            if any(
                terminal_name(t) == "periphery" for t in node.targets
            ):
                mpivot = True
    return mpivot, kpivot


@rule(
    "REP005",
    "engine-conformance",
    Severity.ERROR,
    "backend StateOps classes must implement the full engine protocol "
    "with exactly one hot path, and the engine recursion must not be "
    "copied outside repro.engine",
)
def check_engine_conformance(src: SourceFile) -> Iterator[Finding]:
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_stateops_subclass(node):
            continue
        methods, attrs = _class_surface(node)
        missing = [m for m in PROTOCOL_METHODS if m not in methods]
        missing += [a for a in PROTOCOL_ATTRS if a not in attrs]
        hot = [m for m in HOT_PATHS if m in methods]
        problems = []
        if missing:
            problems.append(f"does not define {', '.join(missing)}")
        if len(hot) != 1:
            problems.append(
                "defines both hot paths (search_ops and fast_ops)"
                if hot
                else "defines no hot path (search_ops or fast_ops)"
            )
        if problems:
            yield Finding(
                path=src.path,
                line=node.lineno,
                col=node.col_offset,
                rule="REP005",
                severity=Severity.ERROR,
                message=(
                    f"class {node.name} subclasses StateOps but "
                    f"{' and '.join(problems)} — a backend must "
                    "implement the complete engine protocol with "
                    "exactly one hot path (see docs/architecture.md "
                    "for the recipe)"
                ),
                line_text=src.line_text(node.lineno),
            )
    if _in_engine_package(src.path):
        return
    for func, _stack in walk_functions(src.tree):
        if not _is_self_recursive(func):
            continue
        mpivot, kpivot = _search_markers(func)
        if mpivot and kpivot:
            yield Finding(
                path=src.path,
                line=func.lineno,
                col=func.col_offset,
                rule="REP005",
                severity=Severity.ERROR,
                message=(
                    f"function {func.name} is a self-recursive search "
                    "carrying both M-pivot and K-pivot/size markers — "
                    "a private copy of the engine recursion.  The "
                    "search tree driver lives exactly once, in "
                    "repro.engine.driver; add a StateOps backend "
                    "instead of a second recursion (see "
                    "docs/architecture.md)"
                ),
                line_text=src.line_text(func.lineno),
            )

"""Determinism rules.

REP001 — nondeterministic iteration.  Iterating a ``set`` /
``frozenset`` (hash order; varies with ``PYTHONHASHSEED`` for strings)
or a ``Graph.neighbors(...)`` mapping (insertion order; varies with
construction history) is only reproducible when the consumer is
order-insensitive.  The rule flags the three shapes that have actually
produced irreproducible output in this repo's history:

* an ordered comprehension (``[x for x in some_set]``) whose result is
  not immediately re-sorted or re-hashed;
* a ``for`` loop over an unordered iterable whose body feeds an
  *ordered* sink (``.append`` / ``.extend`` / ``.insert`` / ``yield``);
* a ``for`` loop over an unordered iterable containing a ``break`` —
  first-match selection, where *which* element wins depends on hash
  order.

REP002 — module-level randomness.  ``random.random()`` and friends
mutate interpreter-global state; any run-order change reshuffles every
downstream draw.  All randomness must flow through an injected
``random.Random(seed)`` (or numpy ``Generator``) instance.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.findings import Finding, Severity, flow_fingerprint
from repro.analysis.registry import rule
from repro.analysis.source import SourceFile, call_name, walk_own

#: Callables whose result does not depend on the iteration order of
#: their argument: feeding them an unordered comprehension is fine.
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted",
    "set",
    "frozenset",
    "sum",
    "min",
    "max",
    "len",
    "any",
    "all",
    "Counter",
    "dict",
    "update",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
}

#: Set-valued methods: ``s.union(t)`` is set-typed when ``s`` is.
_SET_METHODS = {
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
    "copy",
}

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)

#: Ordered sinks: calling one of these inside a loop over an unordered
#: iterable bakes hash order into an ordered collection.
_ORDERED_SINKS = {"append", "extend", "insert"}


class _SetTypes:
    """Per-scope best-effort inference of set-typed local names."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        #: Names of containers whose *items* are sets (``similar[v]``
        #: is unordered when ``similar`` maps to sets).
        self.set_containers: Set[str] = set()

    def observe(self, stmt: ast.stmt) -> None:
        """Update the environment from one assignment statement."""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self._observe_one(stmt.targets[0], stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._observe_one(stmt.target, stmt.value)

    def _observe_one(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if self.is_unordered(value, include_neighbors=False):
                self.names.add(target.id)
            else:
                self.names.discard(target.id)
            # dict/list displays and comprehensions with set values
            # make the assigned name a set container.
            if _container_of_sets(value, self):
                self.set_containers.add(target.id)
        elif isinstance(target, ast.Subscript):
            root = target.value
            if isinstance(root, ast.Name) and self.is_unordered(
                value, include_neighbors=False
            ):
                self.set_containers.add(root.id)

    def is_unordered(self, node: ast.AST, include_neighbors: bool = True) -> bool:
        """True when ``node`` evaluates to an unordered iterable."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_METHODS and self.is_unordered(func.value):
                    return True
                if include_neighbors and func.attr == "neighbors":
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_unordered(node.left) or self.is_unordered(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Subscript):
            root = node.value
            return isinstance(root, ast.Name) and root.id in self.set_containers
        return False


def _container_of_sets(value: ast.AST, env: "_SetTypes") -> bool:
    """Does ``value`` build a dict/list whose items are sets?"""
    if isinstance(value, ast.Dict):
        return any(
            v is not None and env.is_unordered(v, include_neighbors=False)
            for v in value.values
        )
    if isinstance(value, ast.List):
        return any(
            env.is_unordered(v, include_neighbors=False) for v in value.elts
        )
    if isinstance(value, ast.DictComp):
        return env.is_unordered(value.value, include_neighbors=False)
    if isinstance(value, ast.ListComp):
        return env.is_unordered(value.elt, include_neighbors=False)
    return False


def _loop_has_ordered_sink(loop: ast.For) -> bool:
    """Does the loop body feed an ordered collection or a yield?"""
    for node in walk_own(loop.body + loop.orelse):
        if isinstance(node, ast.Call):
            if call_name(node) in _ORDERED_SINKS:
                return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _loop_has_toplevel_break(loop: ast.For) -> bool:
    """A ``break`` belonging to this loop (not to a nested one)."""

    def scan(stmts: List[ast.stmt]) -> bool:
        for stmt in stmts:
            if isinstance(stmt, ast.Break):
                return True
            if isinstance(stmt, (ast.For, ast.While)):
                continue  # break inside belongs to the inner loop
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if inner and scan(inner):
                    return True
            handlers = getattr(stmt, "handlers", None)
            if handlers:
                for handler in handlers:
                    if scan(handler.body):
                        return True
        return False

    return scan(loop.body)


def _describe(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expression>"


# ----------------------------------------------------------------------
# REP001 as a flow analysis
# ----------------------------------------------------------------------
# The dataflow state maps ``("s", name)`` (name is set-typed) and
# ``("c", name)`` (name is a container of sets) to the (line, col) of
# the assignment that established the fact.  Strong updates kill the
# "s" entries (``x = []`` after ``x = set()`` un-taints ``x`` exactly
# like the old linear walk did); container facts persist, matching the
# old ``_SetTypes`` semantics.  The join at control-flow merges is a
# union (*may* be unordered), which is what the old document-order
# walk could not see: a set assigned on one branch stays tracked after
# the merge, and order-taint survives loops and try/except paths.
_FlowState = dict


def _set_view(state: _FlowState) -> _SetTypes:
    env = _SetTypes()
    env.names = {name for kind, name in state if kind == "s"}
    env.set_containers = {name for kind, name in state if kind == "c"}
    return env


def _order_transfer(node, state: _FlowState) -> _FlowState:
    stmt = node.stmt
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return state
    env = _set_view(state)
    out = dict(state)
    where = (stmt.lineno, stmt.col_offset)
    targets = (
        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    )
    if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
        return state
    value = stmt.value
    for target in targets:
        if isinstance(target, ast.Name):
            if env.is_unordered(value, include_neighbors=False):
                out[("s", target.id)] = where
            else:
                out.pop(("s", target.id), None)
            if _container_of_sets(value, env):
                out[("c", target.id)] = where
        elif isinstance(target, ast.Subscript):
            root = target.value
            if isinstance(root, ast.Name) and env.is_unordered(
                value, include_neighbors=False
            ):
                out[("c", root.id)] = where
    return out if out != state else state


def _order_join(a: _FlowState, b: _FlowState) -> _FlowState:
    if a == b:
        return a
    out = dict(a)
    for key, where in b.items():
        if key not in out or where < out[key]:
            out[key] = where
    return out


def _order_source(
    src: SourceFile, state: _FlowState, iterable: ast.AST
) -> Optional[Dict[str, object]]:
    """The trace step for the assignment that made ``iterable``
    unordered, when it flowed through a tracked name."""
    name = None
    if isinstance(iterable, ast.Name):
        name = ("s", iterable.id)
    elif isinstance(iterable, ast.Subscript) and isinstance(
        iterable.value, ast.Name
    ):
        name = ("c", iterable.value.id)
    where = state.get(name) if name is not None else None
    if where is None:
        return None
    return {
        "line": where[0],
        "col": where[1],
        "text": src.line_text(where[0]),
        "note": "unordered iterable assigned here",
    }


def _with_flow_meta(
    finding: Finding, src: SourceFile, state: _FlowState, iterable: ast.AST
) -> Finding:
    """Attach the dataflow trace + source/sink fingerprint."""
    source = _order_source(src, state, iterable)
    sink = {
        "line": finding.line,
        "col": finding.col,
        "text": finding.line_text,
        "note": "hash order leaks into ordered output",
    }
    steps = (source, sink) if source is not None else (sink,)
    source_text = source["text"] if source is not None else finding.line_text
    return replace(
        finding,
        trace=steps,
        fingerprint=flow_fingerprint(
            finding.rule, str(source_text), finding.line_text
        ),
    )


@rule(
    "REP001",
    "nondeterministic-iteration",
    Severity.ERROR,
    "iteration order of a set/frozenset/neighbors() result leaks into "
    "an ordered output",
)
def check_nondeterministic_iteration(src: SourceFile) -> Iterator[Finding]:
    from repro.analysis.flow import cfgs_for, fixpoint

    for _func, cfg in cfgs_for(src).values():
        before = fixpoint(cfg, {}, _order_transfer, _order_join)
        for node in cfg.nodes:
            state = before.get(node.index)
            if state is None or node.stmt is None:
                continue
            env = _set_view(state)
            if node.kind == "iter" and isinstance(node.stmt, ast.For):
                for finding in _check_for_loop(src, node.stmt, env):
                    yield _with_flow_meta(finding, src, state, node.stmt.iter)
                continue
            for sub in node.exprs():
                if isinstance(sub, (ast.ListComp, ast.GeneratorExp)):
                    for finding in _check_comprehension(src, sub, env):
                        yield _with_flow_meta(
                            finding, src, state, sub.generators[0].iter
                        )


def _check_comprehension(
    src: SourceFile, node: ast.AST, env: _SetTypes
) -> Iterator[Finding]:
    first = node.generators[0]
    if not env.is_unordered(first.iter):
        return
    parent = src.parent(node)
    if isinstance(parent, ast.Call) and call_name(parent) in (
        _ORDER_INSENSITIVE_CONSUMERS
    ):
        return
    kind = "generator" if isinstance(node, ast.GeneratorExp) else "list"
    yield Finding(
        path=src.path,
        line=node.lineno,
        col=node.col_offset,
        rule="REP001",
        severity=Severity.ERROR,
        message=(
            f"{kind} comprehension over unordered iterable "
            f"'{_describe(first.iter)}' produces a hash-order-dependent "
            "sequence; wrap the iterable in sorted(...) or feed an "
            "order-insensitive consumer"
        ),
        line_text=src.line_text(node.lineno),
    )


def _check_for_loop(
    src: SourceFile, node: ast.For, env: _SetTypes
) -> Iterator[Finding]:
    if not env.is_unordered(node.iter):
        return
    reasons = []
    if _loop_has_ordered_sink(node):
        reasons.append("feeds an ordered sink (append/extend/insert/yield)")
    if _loop_has_toplevel_break(node):
        reasons.append("selects a first match via break")
    if not reasons:
        return
    yield Finding(
        path=src.path,
        line=node.lineno,
        col=node.col_offset,
        rule="REP001",
        severity=Severity.ERROR,
        message=(
            f"loop over unordered iterable '{_describe(node.iter)}' "
            + " and ".join(reasons)
            + "; iterate sorted(...) instead or justify with a suppression"
        ),
        line_text=src.line_text(node.lineno),
    )


# ----------------------------------------------------------------------
# REP002 — unseeded / module-level randomness
# ----------------------------------------------------------------------
#: Module-level ``random`` functions that read/write the hidden global
#: Mersenne state.
_GLOBAL_RANDOM_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
    "getrandbits",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "triangular",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "lognormvariate",
}

#: ``np.random`` members that *construct* an explicit generator and are
#: therefore fine; everything else on ``np.random`` is legacy global
#: state.
_NP_RANDOM_OK = {"Generator", "default_rng", "RandomState", "SeedSequence"}


@rule(
    "REP002",
    "module-level-randomness",
    Severity.ERROR,
    "randomness must come from an injected random.Random / numpy "
    "Generator, never the module-level global state",
)
def check_module_randomness(src: SourceFile) -> Iterator[Finding]:
    for node in src.nodes(ast.Call, ast.ImportFrom):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == "random"
                and func.attr in _GLOBAL_RANDOM_FUNCS
            ):
                yield _random_finding(
                    src, node, f"random.{func.attr}() uses the interpreter-"
                    "global RNG state"
                )
            elif (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in ("np", "numpy")
                and func.attr not in _NP_RANDOM_OK
            ):
                yield _random_finding(
                    src, node, f"{base.value.id}.random.{func.attr}() uses "
                    "numpy's legacy global RNG state"
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = sorted(
                alias.name
                for alias in node.names
                if alias.name in _GLOBAL_RANDOM_FUNCS
            )
            if bad:
                yield _random_finding(
                    src,
                    node,
                    "importing module-level RNG functions "
                    f"({', '.join(bad)}) from random",
                )


def _random_finding(src: SourceFile, node: ast.AST, what: str) -> Finding:
    return Finding(
        path=src.path,
        line=node.lineno,
        col=node.col_offset,
        rule="REP002",
        severity=Severity.ERROR,
        message=(
            f"{what}; thread an explicit seeded random.Random / "
            "numpy Generator through the call instead"
        ),
        line_text=src.line_text(node.lineno),
    )

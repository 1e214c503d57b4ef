"""Abstract domains and the reusable taint-analysis skeleton.

The flow rules are *taint* analyses: a small set of tags
(``"log"``/``"lin"``/``"bits"`` for the flow-domain pass behind REP003,
REP010 and REP011, ``"unpicklable"``/``"parent"`` for REP014) attached
to local variables and propagated through assignments, arithmetic,
tuple unpacking, and container round-trips.  This module provides the
shared machinery:

* :class:`Origin` — a provenance chain recording where a tag was
  introduced and every assignment it flowed through; rendered into the
  dataflow trace attached to findings.
* The environment: ``{var_name: {tag: Origin}}`` with deterministic
  join.
* :class:`TaintAnalysis` — a transfer function over CFG nodes with
  overridable hooks (``source_tags``, ``call_tags``, ``check``…); the
  concrete rules subclass it and override only what differs.
* :func:`trace_of` — origin chains rendered as a finding's trace.

Transfer functions are pure: they copy-on-write the environment.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from .cfg import CFG, Node
from .engine import fixpoint

#: Provenance chains are capped so the fixpoint stays finite and the
#: rendered traces stay readable.
MAX_ORIGIN_DEPTH = 8


class Origin:
    """Where a tag came from, as a linked provenance chain."""

    __slots__ = ("line", "col", "text", "note", "parent", "depth")

    def __init__(
        self,
        line: int,
        col: int,
        text: str,
        note: str,
        parent: Optional["Origin"] = None,
    ):
        self.line = line
        self.col = col
        self.text = text
        self.note = note
        if parent is not None and parent.depth >= MAX_ORIGIN_DEPTH:
            parent = parent.root()
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1

    def root(self) -> "Origin":
        origin = self
        while origin.parent is not None:
            origin = origin.parent
        return origin

    def key(self) -> Tuple:
        return (self.line, self.col, self.note, self.depth)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Origin):
            return NotImplemented
        a: Optional[Origin] = self
        b: Optional[Origin] = other
        while a is not None and b is not None:
            if (a.line, a.col, a.note) != (b.line, b.col, b.note):
                return False
            a, b = a.parent, b.parent
        return a is None and b is None

    def __hash__(self) -> int:
        return hash((self.line, self.col, self.note, self.depth))

    def steps(self) -> List[Dict[str, object]]:
        """The chain oldest-first, as trace-step dicts."""
        chain: List[Origin] = []
        origin: Optional[Origin] = self
        while origin is not None:
            chain.append(origin)
            origin = origin.parent
        chain.reverse()
        return [
            {
                "line": o.line,
                "col": o.col,
                "text": o.text,
                "note": o.note,
            }
            for o in chain
        ]


Tags = Dict[str, Origin]
Env = Dict[str, Tags]


def origin_for(node: ast.AST, lines: List[str], note: str,
               parent: Optional[Origin] = None) -> Origin:
    line = getattr(node, "lineno", 0)
    col = getattr(node, "col_offset", 0)
    text = lines[line - 1].strip() if 0 < line <= len(lines) else ""
    return Origin(line, col, text, note, parent)


def trace_of(*origins: Origin, sink: Dict[str, object]) -> Tuple:
    """The origins' chains oldest first, each step once, then ``sink``."""
    steps: List[Dict[str, object]] = []
    seen = set()
    for origin in origins:
        for step in origin.steps():
            key = (step["line"], step["col"], step["note"])
            if key not in seen:
                seen.add(key)
                steps.append(step)
    steps.append(sink)
    return tuple(steps)


def merge_tags(into: Tags, tags: Tags) -> Tags:
    """Union; on conflict keep the deterministically-smaller origin."""
    for tag, origin in tags.items():
        old = into.get(tag)
        if old is None or (old is not origin and origin.key() < old.key()):
            into[tag] = origin
    return into


def join_env(a: Env, b: Env) -> Env:
    if a is b or a == b:
        return a
    out: Env = {var: dict(tags) for var, tags in a.items()}
    for var, tags in b.items():
        if var in out:
            merge_tags(out[var], tags)
        else:
            out[var] = dict(tags)
    return out


class TaintAnalysis:
    """Skeleton transfer/check over one function CFG.

    Subclasses override :meth:`source_tags` (introduce taint at an
    expression), :meth:`call_tags` (conversions, summaries),
    :meth:`unpack_tags` (tuple unpacking) and :meth:`check` (inspect a
    node with its before-state and record findings).
    """

    def __init__(self, lines: List[str]):
        self.lines = lines

    # -- entry points --------------------------------------------------
    def run(self, cfg: CFG, initial: Optional[Env] = None) -> Dict[int, Env]:
        """The fixpoint: the state before each reached node."""
        return fixpoint(
            cfg,
            initial if initial is not None else {},
            self.transfer,
            join_env,
        )

    def check_all(self, cfg: CFG, before: Dict[int, Env]) -> None:
        """:meth:`check` every reached node with its before-state."""
        for node in cfg.nodes:
            env = before.get(node.index)
            if env is not None and node.stmt is not None:
                self.check(node, env)

    # -- hooks ---------------------------------------------------------
    def source_tags(self, expr: ast.expr, env: Env) -> Tags:
        return {}

    def call_tags(self, call: ast.Call, env: Env) -> Tags:
        tags: Tags = {}
        for arg in call.args:
            merge_tags(tags, self.expr_tags(arg, env))
        for kw in call.keywords:
            merge_tags(tags, self.expr_tags(kw.value, env))
        return tags

    def unpack_tags(
        self, value: ast.expr, tags: Tags, index: int, total: int
    ) -> Tags:
        """Tags assigned to element ``index`` when unpacking ``value``."""
        return tags

    def check(self, node: Node, env: Env) -> None:
        """Record this node's findings (none by default)."""

    # -- expression evaluation ----------------------------------------
    def expr_tags(self, expr: ast.expr, env: Env) -> Tags:
        tags = dict(self.source_tags(expr, env))
        if isinstance(expr, ast.Name):
            merge_tags(tags, env.get(expr.id, {}))
        elif isinstance(expr, ast.BinOp):
            merge_tags(tags, self.expr_tags(expr.left, env))
            merge_tags(tags, self.expr_tags(expr.right, env))
        elif isinstance(expr, ast.UnaryOp):
            merge_tags(tags, self.expr_tags(expr.operand, env))
        elif isinstance(expr, ast.BoolOp):
            for value in expr.values:
                merge_tags(tags, self.expr_tags(value, env))
        elif isinstance(expr, ast.IfExp):
            merge_tags(tags, self.expr_tags(expr.body, env))
            merge_tags(tags, self.expr_tags(expr.orelse, env))
        elif isinstance(expr, ast.Compare):
            pass  # comparisons yield booleans, not domain values
        elif isinstance(expr, ast.Call):
            merge_tags(tags, self.call_tags(expr, env))
        elif isinstance(expr, (ast.Attribute, ast.Subscript)):
            # A load from a container carries the container's taint; the
            # index contributes nothing (``sv[w]`` is log-domain because
            # ``sv`` is, regardless of what ``w`` is).
            merge_tags(tags, self.expr_tags(expr.value, env))
        elif isinstance(expr, ast.Starred):
            merge_tags(tags, self.expr_tags(expr.value, env))
        elif isinstance(expr, ast.NamedExpr):
            merge_tags(tags, self.expr_tags(expr.value, env))
        elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                merge_tags(tags, self.expr_tags(elt, env))
        elif isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    merge_tags(tags, self.expr_tags(value, env))
        elif isinstance(
            expr,
            (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
        ):
            # Approximate: any tagged name referenced inside the
            # comprehension taints the result container.
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name):
                    merge_tags(tags, env.get(sub.id, {}))
        return tags

    # -- transfer ------------------------------------------------------
    def transfer(self, node: Node, env: Env) -> Env:
        stmt = node.stmt
        if stmt is None:
            return env
        out: Optional[Env] = None

        def writable() -> Env:
            nonlocal out
            if out is None:
                out = {var: dict(tags) for var, tags in env.items()}
            return out

        if node.kind == "iter" and isinstance(stmt, (ast.For, ast.AsyncFor)):
            tags = self.expr_tags(stmt.iter, env)
            self._bind(writable(), stmt.target, tags, stmt.iter, stmt)
        elif isinstance(stmt, ast.Assign):
            tags = self.expr_tags(stmt.value, env)
            for target in stmt.targets:
                self._bind(writable(), target, tags, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            tags = self.expr_tags(stmt.value, env)
            self._bind(writable(), stmt.target, tags, stmt.value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            # ``x op= y`` reads its target: evaluate it as a load (tag
            # lookups ignore ``ctx``) so origins keep real locations.
            tags = self.expr_tags(stmt.value, env)
            merge_tags(tags, self.expr_tags(stmt.target, env))
            self._bind(writable(), stmt.target, tags, stmt.value, stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    writable().pop(target.id, None)
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            writable().pop(stmt.name, None)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                writable().pop(name, None)
        elif isinstance(stmt, ast.Expr):
            self._stmt_call_effect(stmt.value, env, writable)
        # Walrus bindings in the node's own expressions take effect too.
        for sub in node.walrus_bindings():
            tags = self.expr_tags(sub.value, env)
            self._bind(writable(), sub.target, tags, sub.value, stmt)
        return env if out is None else out

    def _stmt_call_effect(self, expr: ast.expr, env: Env, writable) -> None:
        """``container.add(x)`` / ``.append(x)`` taints the container."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and isinstance(expr.func.value, ast.Name)
            and expr.func.attr in ("add", "append", "extend", "insert",
                                   "update", "setdefault", "push")
        ):
            return
        tags: Tags = {}
        for arg in expr.args:
            merge_tags(tags, self.expr_tags(arg, env))
        if tags:
            name = expr.func.value.id
            out = writable()
            merge_tags(out.setdefault(name, {}), tags)

    # -- binding -------------------------------------------------------
    def _bind(
        self,
        env: Env,
        target: ast.expr,
        tags: Tags,
        value: ast.expr,
        stmt: ast.AST,
    ) -> None:
        if isinstance(target, ast.Name):
            if tags:
                env[target.id] = {
                    tag: origin_for(
                        stmt, self.lines,
                        "assigned to `%s`" % target.id, parent=origin,
                    )
                    if origin.line != getattr(stmt, "lineno", 0)
                    else origin
                    for tag, origin in tags.items()
                }
            else:
                env.pop(target.id, None)  # strong update kills taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            total = len(target.elts)
            for i, elt in enumerate(target.elts):
                elt_tags = self.unpack_tags(value, tags, i, total)
                self._bind(env, elt, elt_tags, value, stmt)
        elif isinstance(target, ast.Starred):
            self._bind(env, target.value, tags, value, stmt)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # Store into a container/attribute: weak update on the base.
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name) and tags:
                merge_tags(
                    env.setdefault(base.id, {}),
                    {
                        tag: origin_for(
                            stmt, self.lines,
                            "stored into `%s`" % base.id, parent=origin,
                        )
                        for tag, origin in tags.items()
                    },
                )

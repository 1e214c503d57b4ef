"""Per-function control-flow graphs over Python AST.

The flow rules (REP010–REP012 and the flow-sensitive rewrites of
REP001/REP003) need to reason about *paths*: which assignments reach a
use, and whether every path out of a mutation traverses a ``finally``
restore.  This module builds the graph they walk.

Granularity is the **simple statement**: each assignment, expression
statement, ``return``, ``raise`` … becomes one :class:`Node`; compound
statements contribute their header expressions as ``test``/``iter``
nodes and their bodies recursively.  Boolean short-circuit in ``if``
and ``while`` tests is decomposed into one test node per operand, so a
taint picked up by ``a`` in ``if a and f(a):`` is visible on the edge
into ``f(a)``.

Exceptional flow is modeled conservatively for a *may* analysis: every
node that can plausibly raise (what it evaluates itself holds a call,
an attribute or subscript access, arithmetic, or an explicit
``raise``) gets edges to the innermost enclosing handlers and
``finally`` blocks, and from there outward to the synthetic
:attr:`CFG.raise_exit` node.  A ``finally`` body is built once; its
exit fans out to the normal continuation, the outward exceptional
continuation, and the function exit (covering ``return``/``break``
pass-through), which over-approximates but never drops a path —
exactly what the rules need.

Nested function and class definitions are opaque single nodes: each
function gets its own CFG (see :func:`build_cfg` / :func:`cfgs_for`).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.source import walk_own


class Node:
    """One CFG node: a simple statement or a synthetic control point."""

    __slots__ = (
        "index", "kind", "stmt", "succ", "pred", "finally_of", "_exprs",
        "_walrus",
    )

    def __init__(self, index: int, kind: str, stmt: Optional[ast.AST]):
        self.index = index
        self.kind = kind
        #: The AST anchor: a simple statement for ``stmt`` nodes, the
        #: test expression for ``test`` nodes, the ``For`` node for
        #: ``iter`` nodes, the ``ExceptHandler`` for ``handler`` nodes.
        self.stmt = stmt
        self.succ: List["Node"] = []
        self.pred: List["Node"] = []
        #: The ``Try`` statement whose ``finally`` body this node
        #: belongs to (None outside any ``finally``).  REP012 uses this
        #: to recognize restore sites.
        self.finally_of: Optional[ast.Try] = None
        self._exprs: Optional[List[ast.AST]] = None
        self._walrus: Optional[List[ast.NamedExpr]] = None

    def exprs(self) -> List[ast.AST]:
        """Every AST node this CFG node evaluates itself, pre-order
        (:func:`~repro.analysis.source.walk_own`): a compound
        statement's header only (its body has nodes of its own), never
        inside a nested ``def``/``class``/``lambda``, and a ``def`` or
        ``class`` statement is only itself.  Collected once per node,
        as are its :meth:`walrus_bindings`."""
        if self._exprs is None:
            self._exprs = walk_own(_scan_roots(self))
        return self._exprs

    def walrus_bindings(self) -> List[ast.NamedExpr]:
        """The ``name := value`` expressions among :meth:`exprs`."""
        if self._walrus is None:
            self._walrus = [
                sub
                for sub in self.exprs()
                if isinstance(sub, ast.NamedExpr)
                and isinstance(sub.target, ast.Name)
            ]
        return self._walrus

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = type(self.stmt).__name__ if self.stmt is not None else ""
        return f"<{self.kind}#{self.index} {label} L{self.line}>"


class CFG:
    """The control-flow graph of one function (or module) body."""

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        self.entry = self.new("entry", None)
        #: Normal function exit (fall-through and ``return``).
        self.exit = self.new("exit", None)
        #: Exceptional function exit (uncaught exception).
        self.raise_exit = self.new("raise", None)

    def new(self, kind: str, stmt: Optional[ast.AST]) -> Node:
        node = Node(len(self.nodes), kind, stmt)
        self.nodes.append(node)
        return node

    def edge(self, a: Node, b: Node) -> None:
        if b not in a.succ:
            a.succ.append(b)
            b.pred.append(a)


# ----------------------------------------------------------------------
# the expressions one node evaluates
# ----------------------------------------------------------------------
def _scan_roots(node: Node) -> List[ast.AST]:
    """The root expressions of :meth:`Node.exprs`."""
    stmt = node.stmt
    if node.kind == "iter":
        return [stmt.iter]
    if node.kind == "handler":
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    return [] if stmt is None else [stmt]


# ----------------------------------------------------------------------
# can-raise classification
# ----------------------------------------------------------------------
_RAISING_EXPRS = (
    ast.Call,
    ast.Attribute,
    ast.Subscript,
    ast.BinOp,
    ast.UnaryOp,
    ast.Await,
    ast.Raise,
    ast.Assert,
)


def can_raise(node: Node) -> bool:
    """Can evaluating ``node`` (its :meth:`Node.exprs`) plausibly raise?

    Deliberately conservative: calls, attribute/subscript access,
    arithmetic, comparisons other than ``is``/``is not``, and explicit
    ``raise``/``assert`` statements all count.  Pure ``Name`` /
    ``Constant`` traffic does not, and neither does a nested ``def``,
    ``class`` or ``lambda``: its body runs later (decorators and
    defaults could raise, but the extra edge adds nothing the
    conservative model needs).
    """
    for sub in node.exprs():
        if isinstance(sub, _RAISING_EXPRS):
            return True
        if isinstance(sub, ast.Compare) and any(
            not isinstance(op, (ast.Is, ast.IsNot)) for op in sub.ops
        ):
            return True
    return False


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
class _LoopFrame:
    __slots__ = ("break_to", "continue_to")

    def __init__(self, break_to: Node, continue_to: Node):
        self.break_to = break_to
        self.continue_to = continue_to


class _TryFrame:
    __slots__ = ("handlers", "finally_entry")

    def __init__(self, handlers: List[Node], finally_entry: Optional[Node]):
        self.handlers = handlers
        self.finally_entry = finally_entry


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        #: Innermost-last stack of loop/try frames.
        self.frames: List[object] = []
        #: The ``Try`` whose finalbody is currently being built.
        self.current_finally: Optional[ast.Try] = None

    # -- frame helpers -------------------------------------------------
    def raise_targets(self) -> List[Node]:
        """Where an exception raised *here* can go directly."""
        out: List[Node] = []
        for frame in reversed(self.frames):
            if isinstance(frame, _TryFrame):
                out.extend(frame.handlers)
                if frame.finally_entry is not None:
                    out.append(frame.finally_entry)
                    return out
        out.append(self.cfg.raise_exit)
        return out

    def exit_through_finally(self, target: Node, stop_at=None) -> Node:
        """The node a return/break jumps to: the innermost ``finally``
        on the way out, or ``target`` when none intervenes.

        ``stop_at`` bounds the walk for break/continue: frames above
        the loop frame are not exited.
        """
        for frame in reversed(self.frames):
            if frame is stop_at:
                break
            if (
                isinstance(frame, _TryFrame)
                and frame.finally_entry is not None
            ):
                return frame.finally_entry
        return target

    def add_raise_edges(self, node: Node) -> None:
        if can_raise(node):
            for target in self.raise_targets():
                self.cfg.edge(node, target)

    # -- statement sequences -------------------------------------------
    def build_body(
        self, stmts: Sequence[ast.stmt], preds: List[Node]
    ) -> List[Node]:
        """Wire ``stmts`` after ``preds``; returns the fall-out nodes."""
        current = preds
        for stmt in stmts:
            current = self.build_stmt(stmt, current)
        return current

    def link(self, preds: List[Node], node: Node) -> None:
        for pred in preds:
            self.cfg.edge(pred, node)

    # -- one statement -------------------------------------------------
    def build_stmt(
        self, stmt: ast.stmt, preds: List[Node]
    ) -> List[Node]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            body_preds: List[Node] = []
            else_preds: List[Node] = []
            self.build_test(stmt.test, preds, body_preds, else_preds)
            out = self.build_body(stmt.body, body_preds)
            out += self.build_body(stmt.orelse, else_preds)
            return out
        if isinstance(stmt, ast.While):
            head_preds = preds
            body_preds: List[Node] = []
            exit_preds: List[Node] = []
            # The test node(s) are the loop head; back edges re-enter
            # through them.
            head_entry: List[Node] = []
            self.build_test(
                stmt.test, head_preds, body_preds, exit_preds,
                entry_out=head_entry,
            )
            head = head_entry[0]
            after = cfg.new("stmt", None)  # join point placeholder
            frame = _LoopFrame(break_to=after, continue_to=head)
            self.frames.append(frame)
            body_out = self.build_body(stmt.body, body_preds)
            self.frames.pop()
            for node in body_out:
                cfg.edge(node, head)
            exit_preds = self.build_body(stmt.orelse, exit_preds)
            self.link(exit_preds, after)
            return [after]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            head = cfg.new("iter", stmt)
            self.link(preds, head)
            self.add_raise_edges(head)
            after = cfg.new("stmt", None)
            frame = _LoopFrame(break_to=after, continue_to=head)
            self.frames.append(frame)
            body_out = self.build_body(stmt.body, [head])
            self.frames.pop()
            for node in body_out:
                cfg.edge(node, head)
            orelse_out = self.build_body(stmt.orelse, [head])
            self.link(orelse_out, after)
            return [after]
        if isinstance(stmt, ast.Try):
            return self.build_try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = cfg.new("stmt", stmt)
            self.link(preds, node)
            node.finally_of = self.current_finally
            self.add_raise_edges(node)
            return self.build_body(stmt.body, [node])
        # -- simple statements ----------------------------------------
        node = cfg.new("stmt", stmt)
        node.finally_of = self.current_finally
        self.link(preds, node)
        if isinstance(stmt, ast.Return):
            self.add_raise_edges(node)
            cfg.edge(node, self.exit_through_finally(cfg.exit))
            return []
        if isinstance(stmt, ast.Break):
            frame = self._innermost_loop()
            cfg.edge(
                node,
                self.exit_through_finally(frame.break_to, stop_at=frame),
            )
            return []
        if isinstance(stmt, ast.Continue):
            frame = self._innermost_loop()
            cfg.edge(
                node,
                self.exit_through_finally(frame.continue_to, stop_at=frame),
            )
            return []
        if isinstance(stmt, ast.Raise):
            for target in self.raise_targets():
                cfg.edge(node, target)
            return []
        self.add_raise_edges(node)
        return [node]

    def _innermost_loop(self) -> _LoopFrame:
        for frame in reversed(self.frames):
            if isinstance(frame, _LoopFrame):
                return frame
        raise ValueError("break/continue outside a loop")

    # -- short-circuit test decomposition ------------------------------
    def build_test(
        self,
        test: ast.expr,
        preds: List[Node],
        true_out: List[Node],
        false_out: List[Node],
        entry_out: Optional[List[Node]] = None,
    ) -> None:
        """Build test node(s) for ``test``.

        Appends the nodes reached on a true/false outcome to
        ``true_out``/``false_out``; ``entry_out`` (when given) receives
        the first node built, which loop heads use as their back-edge
        target.
        """
        cfg = self.cfg
        if isinstance(test, ast.BoolOp):
            values = test.values
            current = preds
            for i, operand in enumerate(values):
                last = i == len(values) - 1
                sub_true: List[Node] = []
                sub_false: List[Node] = []
                self.build_test(
                    operand, current, sub_true, sub_false,
                    entry_out=entry_out if i == 0 else None,
                )
                if isinstance(test.op, ast.And):
                    false_out.extend(sub_false)
                    if last:
                        true_out.extend(sub_true)
                    current = sub_true
                else:  # Or
                    true_out.extend(sub_true)
                    if last:
                        false_out.extend(sub_false)
                    current = sub_false
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self.build_test(
                test.operand, preds, false_out, true_out,
                entry_out=entry_out,
            )
            return
        node = cfg.new("test", test)
        node.finally_of = self.current_finally
        self.link(preds, node)
        self.add_raise_edges(node)
        if entry_out is not None:
            entry_out.append(node)
        # Constant tests prune dead branches (``while True:`` must not
        # grow a false edge to the after-loop join, or every loop body
        # would appear skippable).
        if isinstance(test, ast.Constant):
            (true_out if test.value else false_out).append(node)
            return
        true_out.append(node)
        false_out.append(node)

    # -- try/except/else/finally ---------------------------------------
    def build_try(self, stmt: ast.Try, preds: List[Node]) -> List[Node]:
        cfg = self.cfg
        handler_entries: List[Node] = []
        for handler in stmt.handlers:
            entry = cfg.new("handler", handler)
            entry.finally_of = self.current_finally
            handler_entries.append(entry)
        finally_entry: Optional[Node] = None
        if stmt.finalbody:
            finally_entry = cfg.new("stmt", None)
            finally_entry.finally_of = self.current_finally
        frame = _TryFrame(handler_entries, finally_entry)
        self.frames.append(frame)
        body_out = self.build_body(stmt.body, preds)
        body_out = self.build_body(stmt.orelse, body_out)
        self.frames.pop()
        # Handler bodies run outside the protection of their own try
        # (a raise inside a handler propagates outward) but inside the
        # finally frame when one exists.
        handler_frame = _TryFrame([], finally_entry)
        self.frames.append(handler_frame)
        handler_out: List[Node] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_out += self.build_body(handler.body, [entry])
        self.frames.pop()
        normal_out = body_out + handler_out
        if finally_entry is None:
            return normal_out
        # The finally body is built once.  Entering it marks the nodes
        # with ``finally_of`` so REP012 can recognize restore sites.
        self.link(normal_out, finally_entry)
        previous = self.current_finally
        self.current_finally = stmt
        finally_entry.finally_of = stmt
        final_out = self.build_body(stmt.finalbody, [finally_entry])
        self.current_finally = previous
        after = cfg.new("stmt", None)
        after.finally_of = self.current_finally
        for node in final_out:
            # Normal continuation, exceptional pass-through, and
            # return/break pass-through, all over-approximated.
            cfg.edge(node, after)
            for target in self.raise_targets():
                cfg.edge(node, target)
            cfg.edge(node, cfg.exit)
        return [after]


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """The CFG of one statement sequence (function or module body)."""
    builder = _Builder()
    out = builder.build_body(list(body), [builder.cfg.entry])
    builder.link(out, builder.cfg.exit)
    return builder.cfg


# ----------------------------------------------------------------------
# per-file helpers
# ----------------------------------------------------------------------
#: Cache key attribute stashed on SourceFile objects.
_CACHE_ATTR = "_flow_cfg_cache"


def cfgs_for(src) -> Dict[int, Tuple[Optional[ast.AST], CFG]]:
    """``id(function) -> (function, cfg)`` for the module body and
    every function of one parsed SourceFile, built once per file.

    The module body comes first, under ``id(None)`` with
    ``function=None``; then every function, nested ones included, in
    ``ast.walk`` order (the file's node index).  Class bodies hold
    methods but do not form scopes of their own.
    """
    cache = getattr(src, _CACHE_ATTR, None)
    if cache is None:
        cache = {id(None): (None, build_cfg(src.tree.body))}
        for func in src.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            cache[id(func)] = (func, build_cfg(func.body))
        setattr(src, _CACHE_ATTR, cache)
    return cache

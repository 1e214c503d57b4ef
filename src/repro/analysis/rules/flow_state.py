"""REP012 — unrestored interpreter/global state.

A mutation of process-wide state — ``sys.setrecursionlimit``, an
``os.environ`` write, or an assignment to a ``global`` — leaks out of
its function whenever an exception can escape before the state is put
back.  PR 6 fixed exactly this bug by hand in the engine driver
(statements between ``sys.setrecursionlimit(needed)`` and the
``try`` could raise and leave the limit raised); this rule makes the
check mechanical.

A mutation belongs to the CFG node that evaluates it
(:meth:`~repro.analysis.flow.cfg.Node.exprs`), so it is reported once,
at its own statement: never again at an enclosing ``for``, ``with``
or ``def`` line.  For every mutation site the rule asks the CFG: *can
execution reach the exceptional exit without first entering the*
``finally`` *body of a try whose* ``finally`` *restores this state?*
Entering the ``finally`` counts as restored even when the restore
inside it is conditional
(``if raised: sys.setrecursionlimit(previous)``) — path sensitivity
inside the finally body is the author's responsibility, the rule
checks the structural guarantee that the finally runs.

Deliberately exempt:

* the restore statements themselves (mutations lexically inside a
  restoring ``finally``);
* the memo idiom ``if _CACHE is None: _CACHE = build()`` — an
  idempotent fill-once global never needs unwinding;
* module-level assignments to module globals (that is initialization,
  not mutation of someone else's state).

Findings carry a two-step dataflow trace — the mutation (source) and
the statement whose exception escapes unrestored (sink) — and a
fingerprint over that source/sink pair.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity, flow_fingerprint
from repro.analysis.flow import cfgs_for
from repro.analysis.flow.cfg import CFG, Node
from repro.analysis.registry import rule
from repro.analysis.source import SCOPE_BARRIERS, SourceFile, terminal_name

#: ``os.environ`` methods that mutate the process environment.
_ENV_MUTATORS = {
    "update", "pop", "setdefault", "clear", "popitem", "__setitem__",
}

#: A mutation key: ``("reclimit", "sys")``, ``("environ", "environ")``
#: or ``("global", <name>)``.
Key = Tuple[str, str]


def _global_names(cfg: CFG) -> Set[str]:
    """Names this function's own statements declare ``global`` (a
    nested function's declarations are its own)."""
    return {
        name
        for node in cfg.nodes
        for sub in node.exprs()
        if isinstance(sub, ast.Global)
        for name in sub.names
    }


def _node_mutations(node: Node, global_names: Set[str]) -> List[Key]:
    """Every state mutation one CFG node performs itself."""
    keys: List[Key] = []
    stmt = node.stmt
    for sub in node.exprs():
        if isinstance(sub, ast.Call):
            callee = terminal_name(sub.func)
            if callee == "setrecursionlimit":
                keys.append(("reclimit", "sys"))
            elif callee == "putenv":
                keys.append(("environ", "environ"))
            elif (
                isinstance(sub.func, ast.Attribute)
                and terminal_name(sub.func.value) == "environ"
                and sub.func.attr in _ENV_MUTATORS
            ):
                keys.append(("environ", "environ"))
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        if (
            isinstance(target, ast.Subscript)
            and terminal_name(target.value) == "environ"
        ):
            keys.append(("environ", "environ"))
        elif isinstance(target, ast.Name) and target.id in global_names:
            keys.append(("global", target.id))
    return keys


def _restoring_trys(cfg: CFG, key: Key) -> Set[int]:
    """``id(Try)`` for every try whose ``finally`` restores ``key``.

    The restore test is "a node of the finally body evaluates a
    compatible mutation of the same state" — which covers
    unconditional restores, conditional ``if raised:`` restores, and
    counter decrements alike.
    """
    kind, name = key
    return {
        id(node.finally_of)
        for node in cfg.nodes
        if node.finally_of is not None
        and any(_restores(sub, kind, name) for sub in node.exprs())
    }


def _restores(node: ast.AST, kind: str, name: str) -> bool:
    if kind == "reclimit":
        return (
            isinstance(node, ast.Call)
            and terminal_name(node.func) == "setrecursionlimit"
        )
    if kind == "environ":
        if isinstance(node, ast.Call):
            callee = terminal_name(node.func)
            if callee in ("putenv", "unsetenv"):
                return True
            return (
                isinstance(node.func, ast.Attribute)
                and terminal_name(node.func.value) == "environ"
                and node.func.attr in _ENV_MUTATORS
            )
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.Delete)):
            targets = (
                [node.target] if isinstance(node, ast.AugAssign)
                else list(node.targets)
            )
        return any(
            isinstance(t, ast.Subscript)
            and terminal_name(t.value) == "environ"
            for t in targets
        )
    # kind == "global"
    if isinstance(node, ast.Assign):
        return any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        )
    if isinstance(node, ast.AugAssign):
        return isinstance(node.target, ast.Name) and node.target.id == name
    return False


def _is_memo_fill(src: SourceFile, stmt: ast.AST, name: str) -> bool:
    """``if NAME is None: NAME = ...`` — fill-once memo, exempt."""
    node: Optional[ast.AST] = stmt
    while node is not None and not isinstance(node, SCOPE_BARRIERS):
        parent = src.parent(node)
        if isinstance(parent, ast.If):
            test = parent.test
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == name
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            ):
                return True
        node = parent
    return False


def _escape_path(
    cfg: CFG, start: Node, blocked_trys: Set[int]
) -> Optional[List[Node]]:
    """A path from ``start`` to the exceptional exit that never enters
    the finally body of a restoring try; None when no such path exists.

    The start node's *own* exception edges do not count: if the
    mutating statement itself raises mid-evaluation, the state was
    never changed.
    """
    parent: Dict[int, Node] = {}
    work = deque([start])
    seen = {start.index}
    first_hop = True
    while work:
        node = work.popleft()
        for succ in node.succ:
            if first_hop and (
                succ is cfg.raise_exit or succ.kind == "handler"
            ):
                continue
            if succ.index in seen:
                continue
            seen.add(succ.index)
            parent[succ.index] = node
            if succ is cfg.raise_exit:
                path = [succ]
                walk = node
                while walk is not start:
                    path.append(walk)
                    walk = parent[walk.index]
                path.append(start)
                path.reverse()
                return path
            if succ is cfg.exit:
                continue
            if (
                succ.finally_of is not None
                and id(succ.finally_of) in blocked_trys
            ):
                continue
            work.append(succ)
        first_hop = False
    return None


_KIND_LABEL = {
    "reclimit": "sys.setrecursionlimit",
    "environ": "os.environ",
}


@rule(
    "REP012",
    "unrestored-global-state",
    Severity.ERROR,
    "interpreter/global state mutated on a path that can raise must "
    "be restored in a finally block",
)
def check_unrestored_state(src: SourceFile) -> Iterator[Finding]:
    for func, cfg in cfgs_for(src).values():
        global_names = _global_names(cfg) if func is not None else set()
        restoring_cache: Dict[Key, Set[int]] = {}
        for node in cfg.nodes:
            stmt = node.stmt
            if stmt is None:
                continue
            for key in _node_mutations(node, global_names):
                kind, name = key
                if kind == "global" and _is_memo_fill(src, stmt, name):
                    continue
                if key not in restoring_cache:
                    restoring_cache[key] = _restoring_trys(cfg, key)
                blocked = restoring_cache[key]
                # The restore itself lives inside a restoring finally.
                if (
                    node.finally_of is not None
                    and id(node.finally_of) in blocked
                ):
                    continue
                path = _escape_path(cfg, node, blocked)
                if path is None:
                    continue
                escape = next(
                    (n for n in reversed(path) if n.stmt is not None),
                    node,
                )
                what = _KIND_LABEL.get(kind, f"global `{name}`")
                source_text = src.line_text(node.line)
                sink_text = src.line_text(escape.line)
                yield Finding(
                    path=src.path,
                    line=node.line,
                    col=getattr(stmt, "col_offset", 0),
                    rule="REP012",
                    severity=Severity.ERROR,
                    message=(
                        f"{what} mutated here but an exception "
                        f"escaping via line {escape.line} leaves it "
                        "unrestored; wrap the mutation in try/finally "
                        "with the restore in the finally body"
                    ),
                    line_text=source_text,
                    trace=(
                        {
                            "line": node.line,
                            "col": getattr(stmt, "col_offset", 0),
                            "text": source_text,
                            "note": f"{what} mutated",
                        },
                        {
                            "line": escape.line,
                            "col": getattr(escape.stmt, "col_offset", 0),
                            "text": sink_text,
                            "note": "exception can escape here with "
                                    "state still mutated",
                        },
                    ),
                    fingerprint=flow_fingerprint(
                        "REP012", source_text, sink_text
                    ),
                )
                break  # one finding per statement is plenty

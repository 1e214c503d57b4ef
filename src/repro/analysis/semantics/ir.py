"""Guarded-command IR for the translation validator.

The specializer in :mod:`repro.engine.driver` turns the shared
recursion template into per-configuration variants by folding the
spec-flag ``if`` statements (``HOOKS``/``BITSET``/...).  To *prove* a
fold sound rather than trust it, this module re-derives — completely
independently of the specializer — what a function means under a flag
assignment, as a **guarded-command skeleton**:

* :class:`Effect` — one observable simple statement (emission, hook
  call, recursive call, state mutation, raise, return, ...), carrying a
  canonical form of the full statement;
* :class:`Branch` / :class:`Loop` / :class:`TryBlock` / :class:`Block`
  — the guarded structure around the effects, with spec flags folded
  out of the guards by :func:`fold_guard`;
* :class:`Nested` — a nested function/class definition with its own
  skeleton (the template's ``search``/``flush`` closures).

Two skeletons derived from the same template — one by normalizing the
template under the flag environment (the *spec* side), one by
normalizing the specializer's folded output under the empty environment
(the *impl* side) — must be identical.  Anything the fold dropped,
duplicated, reordered or rewrote shows up as a skeleton difference;
:mod:`repro.analysis.semantics.validate` turns those into findings.

Guards are compared canonically (:func:`guard_canon`, position-free
``ast.dump``) with a truth-table equivalence fallback
(:func:`guards_equivalent`) so a fold that simplifies a boolean
differently from this module's own folder still validates — the two
folders agreeing on *semantics* is the point, not on syntax.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.source import root_name, terminal_name

#: Callee names that emit a clique into the run's sink.  The template
#: devirtualizes the sink into ``sink_call``; fixtures may use the
#: parameter name ``sink`` directly.
EMIT_CALLEES = frozenset({"sink", "sink_call"})

#: Receiver names whose ``on_*`` attribute calls are runtime hooks:
#: the engine binds the sanitizer to ``san`` and the observer to
#: ``obs`` so the hook stream is statically visible.
HOOK_ROOTS = frozenset({"san", "obs"})

#: Truth-table equivalence is exact up to this many distinct atoms;
#: larger guards fall back to canonical-form equality only.
MAX_GUARD_ATOMS = 8

FlagEnv = Dict[str, bool]

_SCOPE_BARRIERS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
)


# ----------------------------------------------------------------------
# symbolic guard folding
# ----------------------------------------------------------------------
def fold_guard(node: ast.expr, env: FlagEnv):
    """Three-valued fold of an ``if`` test over the flag names.

    Returns ``True``/``False`` when ``env`` decides the test, the
    original node when it does not constrain it at all, or a new AST
    with the decided operands removed.  Folding is by *truthiness* over
    pure operands — the contract of an ``if`` test — so eliminating a
    decided ``BoolOp`` operand is sound regardless of its position.

    This is an independent re-implementation of the specializer's
    ``_fold_test`` on purpose: the validator derives the spec side with
    this folder and checks it against what the production fold
    produced, so a bug in either shows up as a mismatch.
    """
    if isinstance(node, ast.Name):
        if node.id in env:
            return bool(env[node.id])
        return node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        inner = fold_guard(node.operand, env)
        if inner is True:
            return False
        if inner is False:
            return True
        if inner is node.operand:
            return node
        return ast.UnaryOp(op=ast.Not(), operand=inner)
    if isinstance(node, ast.BoolOp):
        is_or = isinstance(node.op, ast.Or)
        residue: List[ast.expr] = []
        for operand in node.values:
            value = fold_guard(operand, env)
            if value is True:
                if is_or:
                    return True
                # ``and``: a true operand is the neutral element.
            elif value is False:
                if not is_or:
                    return False
                # ``or``: a false operand is the neutral element.
            else:
                residue.append(value)
        if not residue:
            return not is_or
        if len(residue) == 1:
            return residue[0]
        if len(residue) == len(node.values) and all(
            a is b for a, b in zip(residue, node.values)
        ):
            return node
        return ast.BoolOp(op=node.op, values=residue)
    return node


def guard_canon(expr: ast.expr) -> str:
    """Position-free canonical form of a guard (or any expression)."""
    return ast.dump(expr)


def display(node: ast.AST, limit: int = 72) -> str:
    """Compact single-line source rendering for messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - malformed synthetic nodes
        text = ast.dump(node)
    text = " ".join(text.split())
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


# ----------------------------------------------------------------------
# guard equivalence (truth table over atoms)
# ----------------------------------------------------------------------
def _bool_tree(expr: ast.expr):
    if isinstance(expr, ast.BoolOp):
        op = "or" if isinstance(expr.op, ast.Or) else "and"
        return (op, [_bool_tree(v) for v in expr.values])
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        return ("not", [_bool_tree(expr.operand)])
    return ("atom", guard_canon(expr))


def _atoms(tree, acc: set) -> None:
    kind, rest = tree
    if kind == "atom":
        acc.add(rest)
    else:
        for child in rest:
            _atoms(child, acc)


def _eval_tree(tree, assign: Dict[str, bool]) -> bool:
    kind, rest = tree
    if kind == "atom":
        return assign[rest]
    if kind == "not":
        return not _eval_tree(rest[0], assign)
    values = [_eval_tree(child, assign) for child in rest]
    return any(values) if kind == "or" else all(values)


def guards_equivalent(a: ast.expr, b: ast.expr) -> bool:
    """True when two guards agree on every assignment of their atoms.

    Atoms are maximal non-boolean subexpressions compared by canonical
    form; with more than :data:`MAX_GUARD_ATOMS` distinct atoms the
    check conservatively returns False (canonical equality was already
    tried by the caller).
    """
    ta, tb = _bool_tree(a), _bool_tree(b)
    atoms: set = set()
    _atoms(ta, atoms)
    _atoms(tb, atoms)
    ordered = sorted(atoms)
    if len(ordered) > MAX_GUARD_ATOMS:
        return False
    for bits in range(1 << len(ordered)):
        assign = {
            atom: bool(bits >> i & 1) for i, atom in enumerate(ordered)
        }
        if _eval_tree(ta, assign) != _eval_tree(tb, assign):
            return False
    return True


# ----------------------------------------------------------------------
# skeleton nodes
# ----------------------------------------------------------------------
class Effect:
    """One observable simple statement."""

    __slots__ = ("kind", "detail", "canon", "line")

    def __init__(self, kind: str, detail: str, canon: str, line: int):
        self.kind = kind
        self.detail = detail
        self.canon = canon
        self.line = line

    def children(self) -> List["Item"]:
        return []

    def describe(self) -> str:
        return f"{self.kind} `{self.detail}`" if self.detail else self.kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} {self.detail!r}@{self.line}>"


class Branch:
    """A residual ``if`` whose guard the flags did not decide."""

    __slots__ = ("guard", "canon", "line", "then", "orelse")

    kind = "branch"

    def __init__(self, guard: ast.expr, line: int,
                 then: List["Item"], orelse: List["Item"]):
        self.guard = guard
        self.canon = "if:" + guard_canon(guard)
        self.line = line
        self.then = then
        self.orelse = orelse

    def children(self) -> List["Item"]:
        return self.then + self.orelse

    def describe(self) -> str:
        return f"branch `if {display(self.guard)}`"


class Loop:
    """A ``while``/``for`` loop with its normalized body."""

    __slots__ = ("kind", "canon", "line", "head", "body", "orelse")

    def __init__(self, kind: str, canon: str, head: str, line: int,
                 body: List["Item"], orelse: List["Item"]):
        self.kind = kind
        self.canon = canon
        self.head = head
        self.line = line
        self.body = body
        self.orelse = orelse

    def children(self) -> List["Item"]:
        return self.body + self.orelse

    def describe(self) -> str:
        return f"loop `{self.head}`"


class TryBlock:
    """A ``try`` with normalized body/handlers/else/finally."""

    __slots__ = ("canon", "line", "body", "handlers", "orelse", "final")

    kind = "try"

    def __init__(self, line: int, body: List["Item"],
                 handlers: List[Tuple[str, List["Item"]]],
                 orelse: List["Item"], final: List["Item"]):
        self.canon = "try:" + ";".join(h for h, _ in handlers)
        self.line = line
        self.body = body
        self.handlers = handlers
        self.orelse = orelse
        self.final = final

    def children(self) -> List["Item"]:
        out = list(self.body)
        for _, handler in self.handlers:
            out.extend(handler)
        out.extend(self.orelse)
        out.extend(self.final)
        return out

    def describe(self) -> str:
        return "try block"


class Block:
    """A ``with`` block (structural; the template has none, fixtures may)."""

    __slots__ = ("canon", "line", "head", "body")

    kind = "with"

    def __init__(self, canon: str, head: str, line: int,
                 body: List["Item"]):
        self.canon = canon
        self.head = head
        self.line = line
        self.body = body

    def children(self) -> List["Item"]:
        return self.body

    def describe(self) -> str:
        return f"with block `{self.head}`"


class Nested:
    """A nested function/class definition with its own skeleton."""

    __slots__ = ("canon", "line", "name", "body")

    kind = "nested"

    def __init__(self, name: str, line: int, body: List["Item"]):
        self.canon = "def:" + name
        self.line = line
        self.name = name
        self.body = body

    def children(self) -> List["Item"]:
        return self.body

    def describe(self) -> str:
        return f"nested definition `{self.name}`"


Item = Union[Effect, Branch, Loop, TryBlock, Block, Nested]


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------
def _walk_own_expr(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested scopes."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPE_BARRIERS):
            continue
        yield from _walk_own_expr(child)


def hook_label(call: ast.Call) -> Optional[str]:
    """``root:hook:on_name[:detail]`` for a hook call, else None.

    A first argument that is a string literal becomes the detail
    (``obs.on_prune("kpivot", ...)`` -> ``obs:hook:on_prune:kpivot``),
    so each prune kind, gauge and phase is a label of its own; the
    receiver prefix keeps sanitizer and observer hooks apart.
    """
    if not isinstance(call.func, ast.Attribute):
        return None
    callee = terminal_name(call.func)
    root = root_name(call.func)
    if (
        callee is None
        or root is None
        or root not in HOOK_ROOTS
        or not callee.startswith("on_")
    ):
        return None
    label = f"{root}:hook:{callee}"
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            label += ":" + first.value
    return label


def _effect_for(stmt: ast.stmt, scope: Optional[str]) -> Effect:
    canon = ast.dump(stmt)
    line = getattr(stmt, "lineno", 0)
    if isinstance(stmt, ast.Raise):
        detail = display(stmt.exc) if stmt.exc is not None else ""
        return Effect("raise", detail, canon, line)
    if isinstance(stmt, ast.Return):
        detail = display(stmt.value) if stmt.value is not None else ""
        return Effect("return", detail, canon, line)
    if isinstance(stmt, ast.Break):
        return Effect("break", "", canon, line)
    if isinstance(stmt, ast.Continue):
        return Effect("continue", "", canon, line)
    if isinstance(stmt, (ast.Global, ast.Nonlocal)):
        kind = "global" if isinstance(stmt, ast.Global) else "nonlocal"
        return Effect("scope", f"{kind} {', '.join(stmt.names)}", canon, line)
    calls = [
        sub for sub in _walk_own_expr(stmt) if isinstance(sub, ast.Call)
    ]
    emits = [
        c for c in calls if terminal_name(c.func) in EMIT_CALLEES
    ]
    hooks = [label for label in map(hook_label, calls) if label is not None]
    recurses = [
        c
        for c in calls
        if isinstance(c.func, ast.Name) and c.func.id == scope
    ]
    if emits:
        return Effect("emit", display(emits[0]), canon, line)
    if hooks:
        return Effect("hook", ",".join(hooks), canon, line)
    if recurses:
        return Effect("recurse", display(recurses[0]), canon, line)
    if isinstance(
        stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
    ):
        return Effect("mutate", display(stmt), canon, line)
    if calls:
        names = []
        for c in calls:
            name = terminal_name(c.func)
            if name and name not in names:
                names.append(name)
        return Effect("call", ",".join(names) or display(stmt), canon, line)
    return Effect("stmt", display(stmt), canon, line)


def _normalize_stmt(
    stmt: ast.stmt, env: FlagEnv, scope: Optional[str]
) -> List[Item]:
    if isinstance(stmt, ast.If):
        guard = fold_guard(stmt.test, env)
        if guard is True:
            return _normalize_block(stmt.body, env, scope)
        if guard is False:
            return _normalize_block(stmt.orelse, env, scope)
        then = _normalize_block(stmt.body, env, scope)
        orelse = _normalize_block(stmt.orelse, env, scope)
        if not then and not orelse:
            return []
        return [Branch(guard, stmt.lineno, then, orelse)]
    if isinstance(stmt, ast.While):
        return [
            Loop(
                "while",
                "while:" + guard_canon(stmt.test),
                f"while {display(stmt.test)}",
                stmt.lineno,
                _normalize_block(stmt.body, env, scope),
                _normalize_block(stmt.orelse, env, scope),
            )
        ]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        canon = (
            "for:" + guard_canon(stmt.target) + ":" + guard_canon(stmt.iter)
        )
        head = f"for {display(stmt.target)} in {display(stmt.iter)}"
        return [
            Loop(
                "for",
                canon,
                head,
                stmt.lineno,
                _normalize_block(stmt.body, env, scope),
                _normalize_block(stmt.orelse, env, scope),
            )
        ]
    if isinstance(stmt, ast.Try):
        handlers = [
            (
                guard_canon(h.type) if h.type is not None else "*",
                _normalize_block(h.body, env, scope),
            )
            for h in stmt.handlers
        ]
        return [
            TryBlock(
                stmt.lineno,
                _normalize_block(stmt.body, env, scope),
                handlers,
                _normalize_block(stmt.orelse, env, scope),
                _normalize_block(stmt.finalbody, env, scope),
            )
        ]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        canon = "with:" + ";".join(
            guard_canon(item.context_expr) for item in stmt.items
        )
        head = ", ".join(display(item.context_expr) for item in stmt.items)
        return [
            Block(
                canon, head, stmt.lineno,
                _normalize_block(stmt.body, env, scope),
            )
        ]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [
            Nested(
                stmt.name,
                stmt.lineno,
                _normalize_block(stmt.body, env, stmt.name),
            )
        ]
    if isinstance(stmt, ast.ClassDef):
        return [
            Nested(
                stmt.name,
                stmt.lineno,
                _normalize_block(stmt.body, env, scope),
            )
        ]
    if isinstance(stmt, ast.Pass):
        return []
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return []  # docstrings / bare constants
    return [_effect_for(stmt, scope)]


def _normalize_block(
    stmts: List[ast.stmt], env: FlagEnv, scope: Optional[str]
) -> List[Item]:
    out: List[Item] = []
    for stmt in stmts:
        out.extend(_normalize_stmt(stmt, env, scope))
    return out


def normalize_function(
    func: ast.AST, env: Optional[FlagEnv] = None
) -> List[Item]:
    """The guarded-command skeleton of one function under ``env``.

    ``env`` maps spec-flag names to booleans; every ``if`` the flags
    decide is folded away, every other statement keeps its structure.
    Pass an empty environment to normalize an already-folded variant.
    """
    return _normalize_block(list(func.body), env or {}, func.name)


def iter_effects(items: List[Item]) -> Iterator[Effect]:
    """Every :class:`Effect` in a skeleton, depth-first."""
    for item in items:
        if isinstance(item, Effect):
            yield item
        else:
            yield from iter_effects(item.children())


def hook_labels_of(items: List[Item]) -> List[str]:
    """All hook labels in a skeleton (one entry per call site)."""
    labels: List[str] = []
    for effect in iter_effects(items):
        if effect.kind == "hook":
            labels.extend(effect.detail.split(","))
    return labels


def emissions_of(items: List[Item]) -> List[Effect]:
    return [e for e in iter_effects(items) if e.kind == "emit"]


def recursions_of(items: List[Item]) -> List[Effect]:
    return [e for e in iter_effects(items) if e.kind == "recurse"]

"""Parsed source files and shared AST helpers for repro-lint rules.

Every rule receives :class:`SourceFile` objects — the parsed module
plus the raw lines — so the expensive work (reading, parsing, parent
links, per-line suppression scanning) happens exactly once per file no
matter how many rules run.  The one walk that builds the parent links
also builds the **node index**: :meth:`SourceFile.nodes` returns the
nodes of the requested AST types in the order ``ast.walk`` yields
them, so a rule that would walk the whole module queries it instead.

:func:`walk_own` is the one definition of "the nodes a statement
evaluates in its own scope": the pre-order walk behind
:meth:`~repro.analysis.flow.cfg.Node.exprs`, which never enters the
body of a nested ``def``, ``class`` or ``lambda``.
"""

from __future__ import annotations

import ast
import heapq
import re
from collections import deque
from typing import (
    Deque, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple,
)

#: Inline suppression syntax: a comment that starts ``repro-lint: ok``,
#: then names the rule ids it silences and gives the reason, on the
#: flagged line or on the line directly above it (see
#: ``docs/analysis.md``).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ok\b\s*((?:REP\d+[\s,]*)*)"
)


class Suppression(NamedTuple):
    """One inline suppression comment."""

    col: int
    #: The rule ids it silences (none: it silences nothing).
    ids: FrozenSet[str]
    reason: str


class SourceFile:
    """One parsed python source file handed to the rules."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: ast.Module = ast.parse(text, filename=path)
        self._parents: Dict[ast.AST, ast.AST] = {}
        #: AST type -> ``(walk position, node)`` in ``ast.walk`` order.
        self._index: Dict[type, List[Tuple[int, ast.AST]]] = {}
        # ``ast.walk``'s own breadth-first loop, visiting each node once.
        todo: Deque[ast.AST] = deque([self.tree])
        position = 0
        while todo:
            node = todo.popleft()
            self._index.setdefault(type(node), []).append((position, node))
            position += 1
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
                todo.append(child)
        #: line number -> the suppression comment on that line.
        self.suppressions: Dict[int, Suppression] = {}
        strings = None
        for lineno, line in enumerate(self.lines, start=1):
            for match in _SUPPRESS_RE.finditer(line):
                if strings is None:
                    strings = self._string_spans()
                # AST columns count UTF-8 bytes.
                at = (lineno, len(line[:match.start()].encode()))
                if any(start <= at < end for start, end in strings):
                    continue  # a marker inside a literal is no comment
                self.suppressions[lineno] = Suppression(
                    match.start(),
                    frozenset(re.findall(r"REP\d+", match.group(1))),
                    line[match.end():].strip(),
                )
                break

    def _string_spans(self) -> List[tuple]:
        """``((line, col), (end_line, end_col))`` of every string,
        bytes and f-string literal, from the node index."""
        spans = []
        for node in self.nodes(ast.Constant, ast.JoinedStr):
            if isinstance(node, ast.Constant) and not isinstance(
                node.value, (str, bytes)
            ):
                continue
            spans.append(
                ((node.lineno, node.col_offset),
                 (node.end_lineno, node.end_col_offset))
            )
        return spans

    @classmethod
    def read(cls, path: str) -> "SourceFile":
        with open(path, encoding="utf-8") as handle:
            return cls(path, handle.read())

    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(node)

    def nodes(self, *types: type) -> List[ast.AST]:
        """Every node of exactly these AST types, in ``ast.walk`` order."""
        merged = heapq.merge(*(self._index.get(t, []) for t in types))
        return [node for _position, node in merged]

    def line_text(self, lineno: int) -> str:
        """The stripped source text of one 1-indexed line."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppression_for(self, rule: str, lineno: int) -> Optional[int]:
        """The line of the comment that silences ``rule`` on ``lineno``
        (that line first, then the one just above), or None.

        The one-line-above lookup lets long flagged statements carry
        the comment on their own line instead of overflowing the
        flagged one.
        """
        for where in (lineno, lineno - 1):
            found = self.suppressions.get(where)
            if found is not None and rule in found.ids:
                return where
        return None


# ----------------------------------------------------------------------
# small AST utilities shared by several rules
# ----------------------------------------------------------------------
def call_name(node: ast.AST) -> Optional[str]:
    """The simple callee name of a Call (``f(...)`` or ``x.f(...)``)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """The first identifier of a Name/Attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


#: Definitions whose bodies run in a scope of their own.
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: ... and a lambda, whose body runs only when it is called.
SCOPE_BARRIERS = _DEFINITIONS + (ast.Lambda,)


def walk_own(
    roots: Iterable[ast.AST], lambdas: bool = False
) -> List[ast.AST]:
    """The nodes ``roots`` evaluate in their own scope, pre-order.

    A nested ``def``, ``class`` or ``lambda`` is skipped with its body,
    and a root of one of those kinds contributes only itself.  With
    ``lambdas`` the walk enters lambda bodies: a lambda has no name of
    its own to be scoped by.
    """
    barriers: Tuple[type, ...] = _DEFINITIONS if lambdas else SCOPE_BARRIERS
    out: List[ast.AST] = []
    stack = list(roots)[::-1]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, barriers):
            continue  # only a root can be one: children are filtered
        stack.extend(
            child
            for child in reversed(list(ast.iter_child_nodes(node)))
            if not isinstance(child, barriers)
        )
    return out

"""Effect/escape summaries for the parallel frontier.

``repro.core.partition.enumerate_parallel`` ships work to a spawn
``multiprocessing`` pool; the roadmap's sharded work-queue engine will
ship *frontier state* (seed chunks, reduced graphs, ``StateOps``
surfaces) the same way.  Two static preconditions make that safe:

1. **Serializability** — everything in a dispatch payload must survive
   pickling.  :class:`PickleTaint` tracks unserializable provenance
   (lambdas, nested-function closures, generator expressions, open
   file handles, locks, and the ``search_ops``/``fast_ops`` closure
   bundles) through the usual taint machinery of
   :mod:`repro.analysis.flow`.
2. **No cross-process mutation** — a worker writing to state it
   received (or to globals / ``os.environ``) is mutating a pickled
   copy; the parent never observes it.  :func:`worker_mutations`
   computes a flow-sensitive per-worker summary: arguments enter
   tainted ``parent`` and writes to still-tainted bases are escapes
   (locally re-created state is rightly silent).

The REP014 rule consumes both.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow import (
    Origin,
    TaintAnalysis,
    Tags,
    cfgs_for,
    origin_for,
)
from repro.analysis.source import SourceFile, root_name, terminal_name
from repro.engine.protocol import HOT_PATHS

#: Pool methods whose first positional argument is a worker function
#: and whose second is the payload iterable.
DISPATCH_METHODS = frozenset(
    {"map", "map_async", "imap", "imap_unordered", "starmap",
     "starmap_async", "apply", "apply_async"}
)

#: Constructors that take ``target=``/``args=`` keywords.
_SPAWN_CALLEES = frozenset({"Process", "Thread"})

#: Calls whose result can never cross a process boundary.
_UNPICKLABLE_CALLS = frozenset(
    {"open", "Lock", "RLock", "Condition", "Event", "Semaphore",
     "BoundedSemaphore", "socket", "connect"}
)

#: The engine's per-run hot-path bundles: bound methods over live
#: backend state, never meant to travel.
_CLOSURE_BUNDLE_CALLS = frozenset(HOT_PATHS)

#: Constructors that consume their iterable argument on the calling
#: side: ``tuple(genexp)`` materializes in the parent, so the stateful
#: generator never crosses a boundary (element picklability is beyond
#: this summary's granularity).
_MATERIALIZERS = frozenset(
    {"tuple", "list", "set", "dict", "frozenset", "sorted"}
)

TAG = "unpicklable"


class DispatchSite:
    """One process-boundary call: worker + payload expressions."""

    __slots__ = ("call", "kind", "worker", "payloads")

    def __init__(self, call: ast.Call, kind: str,
                 worker: Optional[ast.expr],
                 payloads: List[ast.expr]):
        self.call = call
        self.kind = kind
        self.worker = worker
        self.payloads = payloads

    @property
    def line(self) -> int:
        return self.call.lineno

    def describe(self) -> str:
        name = terminal_name(self.call.func) or "<call>"
        return f"`{name}(...)`"


def dispatch_sites(src: SourceFile) -> List[DispatchSite]:
    """Every multiprocessing dispatch in the file, in source order."""
    sites: List[DispatchSite] = []
    for node in src.nodes(ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in DISPATCH_METHODS
        ):
            worker = node.args[0] if node.args else None
            payloads = list(node.args[1:])
            payloads.extend(kw.value for kw in node.keywords)
            sites.append(DispatchSite(node, "pool", worker, payloads))
        elif terminal_name(func) in _SPAWN_CALLEES:
            worker = None
            payloads = []
            for kw in node.keywords:
                if kw.arg == "target":
                    worker = kw.value
                elif kw.arg in ("args", "kwargs"):
                    payloads.append(kw.value)
            if worker is not None or payloads:
                kind = (terminal_name(func) or "process").lower()
                sites.append(DispatchSite(node, kind, worker, payloads))
    sites.sort(key=lambda s: (s.line, s.call.col_offset))
    return sites


# ----------------------------------------------------------------------
# serializability taint
# ----------------------------------------------------------------------
class PickleTaint(TaintAnalysis):
    """Tags values whose provenance cannot cross a process boundary.

    ``local_defs`` holds the names of functions defined *inside* the
    scope under analysis: referencing one as a value captures a closure
    (unpicklable under the spawn start method), where a module-level
    function pickles by qualified name and stays clean.
    """

    def __init__(self, lines: List[str],
                 local_defs: Optional[Set[str]] = None):
        super().__init__(lines)
        self.local_defs = local_defs or set()
        self.findings: List[Tuple] = []

    def source_tags(self, expr: ast.expr, env) -> Tags:
        if isinstance(expr, ast.Lambda):
            return {
                TAG: origin_for(
                    expr, self.lines, "lambda (unpicklable closure)"
                )
            }
        if isinstance(expr, ast.GeneratorExp):
            return {
                TAG: origin_for(
                    expr, self.lines, "generator expression (stateful, "
                    "unpicklable)"
                )
            }
        if (
            isinstance(expr, ast.Name)
            and isinstance(expr.ctx, ast.Load)
            and expr.id in self.local_defs
        ):
            return {
                TAG: origin_for(
                    expr, self.lines,
                    f"nested function `{expr.id}` (closure, "
                    "unpicklable under spawn)",
                )
            }
        return {}

    def call_tags(self, call: ast.Call, env) -> Tags:
        callee = terminal_name(call.func)
        if callee in _MATERIALIZERS and isinstance(
            call.func, ast.Name
        ):
            return {}
        if callee in _UNPICKLABLE_CALLS:
            return {
                TAG: origin_for(
                    call, self.lines,
                    f"`{callee}(...)` handle (unpicklable)",
                )
            }
        if callee in _CLOSURE_BUNDLE_CALLS:
            return {
                TAG: origin_for(
                    call, self.lines,
                    f"`{callee}()` closure bundle (bound to live "
                    "backend state)",
                )
            }
        return super().call_tags(call, env)


def _local_def_names(func: Optional[ast.AST]) -> Set[str]:
    """Names of the functions defined inside ``func``: closures, which
    do not pickle.  At module level (``func`` None) there are none, as
    a module-level function pickles by name."""
    if func is None:
        return set()
    return {
        node.name
        for node in ast.walk(func)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is not func
    }


class PayloadEscape:
    """One unpicklable value reaching a process boundary."""

    __slots__ = ("site", "payload", "origin")

    def __init__(self, site: DispatchSite, payload: ast.expr,
                 origin: Origin):
        self.site = site
        self.payload = payload
        self.origin = origin


def _enclosing_function(src: SourceFile, node: ast.AST) -> Optional[ast.AST]:
    """The innermost function around ``node`` (None at module level)."""
    scope = src.parent(node)
    while scope is not None and not isinstance(
        scope, (ast.FunctionDef, ast.AsyncFunctionDef)
    ):
        scope = src.parent(scope)
    return scope


def payload_escapes(
    src: SourceFile, sites: List[DispatchSite]
) -> List[PayloadEscape]:
    """Unpicklable taint flowing into the file's dispatch payloads."""
    out: List[PayloadEscape] = []
    by_scope: Dict[int, List[DispatchSite]] = {}
    for site in sites:
        scope = _enclosing_function(src, site.call)
        by_scope.setdefault(id(scope), []).append(site)
    cfgs = cfgs_for(src)
    for scope_id, scope_sites in by_scope.items():
        scope, cfg = cfgs[scope_id]
        analysis = PickleTaint(src.lines, _local_def_names(scope))
        before = analysis.run(cfg)
        # Read each dispatch at the one node that evaluates it (inside
        # a lambda or class body, the node that defines it), in that
        # node's entry env.
        evaluated_at = {
            id(sub): node for node in cfg.nodes for sub in node.exprs()
        }
        for site in scope_sites:
            anchor: Optional[ast.AST] = site.call
            while anchor is not None and id(anchor) not in evaluated_at:
                anchor = src.parent(anchor)
            if anchor is None:
                continue
            env = before.get(evaluated_at[id(anchor)].index)
            if env is None:
                continue
            exprs = list(site.payloads)
            if site.worker is not None:
                exprs.append(site.worker)
            for payload in exprs:
                probe = payload
                if site.kind == "pool" and isinstance(
                    payload,
                    (ast.GeneratorExp, ast.ListComp, ast.SetComp),
                ):
                    # The pool iterates the iterable in the parent;
                    # only its *elements* are pickled.
                    probe = payload.elt
                origin = analysis.expr_tags(probe, env).get(TAG)
                if origin is not None:
                    out.append(PayloadEscape(site, payload, origin))
                    break
    return out


# ----------------------------------------------------------------------
# cross-process mutation summaries
# ----------------------------------------------------------------------
_PARENT_TAG = "parent"


class Mutation:
    """One write to parent-owned (or process-shared) state in a worker."""

    __slots__ = ("node", "what", "origin")

    def __init__(self, node: ast.AST, what: str,
                 origin: Optional[Origin]):
        self.node = node
        self.what = what
        self.origin = origin

    @property
    def line(self) -> int:
        return self.node.lineno


def _write_targets(stmt: ast.AST) -> Iterator[ast.expr]:
    if isinstance(stmt, ast.Assign):
        yield from stmt.targets
    elif isinstance(stmt, ast.AugAssign):
        yield stmt.target
    elif isinstance(stmt, ast.AnnAssign):
        yield stmt.target
    elif isinstance(stmt, ast.Delete):
        yield from stmt.targets


def worker_mutations(
    src: SourceFile, func: ast.FunctionDef
) -> List[Mutation]:
    """Flow-sensitive escape summary of one worker function.

    Every parameter enters tainted as parent-owned; an attribute or
    subscript store whose base still carries the taint at the write is
    a cross-process mutation.  ``global`` declarations and
    ``os.environ`` writes are process-shared state and always flagged.
    A base that was re-created locally (``stats = Stats()``) sheds the
    taint — the strong update in the flow core — so workers that build
    and return their own results stay silent.
    """
    params = [
        arg.arg
        for arg in (
            func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        )
    ]
    if func.args.vararg is not None:
        params.append(func.args.vararg.arg)
    if func.args.kwarg is not None:
        params.append(func.args.kwarg.arg)
    analysis = TaintAnalysis(src.lines)
    initial = {
        name: {
            _PARENT_TAG: Origin(
                func.lineno,
                func.col_offset,
                src.line_text(func.lineno),
                f"argument `{name}` received from the parent process",
            )
        }
        for name in params
    }
    _func, cfg = cfgs_for(src)[id(func)]
    before = analysis.run(cfg, initial)
    mutations: List[Mutation] = []
    seen: Set[Tuple[int, int]] = set()

    def record(node: ast.AST, what: str,
               origin: Optional[Origin]) -> None:
        anchor = (node.lineno, node.col_offset)
        if anchor not in seen:
            seen.add(anchor)
            mutations.append(Mutation(node, what, origin))

    for node in cfg.nodes:
        stmt = node.stmt
        if stmt is None:
            continue
        env = before.get(node.index, {})
        if isinstance(stmt, ast.Global):
            record(
                stmt,
                f"declares global {', '.join(stmt.names)}",
                None,
            )
            continue
        for target in _write_targets(stmt):
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            root = root_name(target.value)
            if root == "environ" or (
                isinstance(target.value, ast.Attribute)
                and target.value.attr == "environ"
            ):
                record(target, "writes os.environ", None)
                continue
            if not isinstance(base, ast.Name):
                continue
            origin = env.get(base.id, {}).get(_PARENT_TAG)
            if origin is None:
                continue
            if root == "self" and isinstance(target, ast.Attribute):
                record(target, f"assigns self.{target.attr}", origin)
            elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                record(
                    target,
                    f"mutates attribute '{target.attr}' of argument "
                    f"'{base.id}' (a pickled copy)",
                    origin,
                )
            else:
                record(
                    target,
                    f"writes into '{base.id}', state received from "
                    "the parent process (a pickled copy)",
                    origin,
                )
    mutations.sort(key=lambda m: (m.line, m.node.col_offset))
    return mutations


def module_worker_summaries(
    src: SourceFile, sites: List[DispatchSite]
) -> Dict[str, List[Mutation]]:
    """``{worker_name: mutations}`` for every module-level function
    the file's dispatch ``sites`` send to another process."""
    defs = {
        node.name: node
        for node in src.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    names = {
        site.worker.id for site in sites if isinstance(site.worker, ast.Name)
    }
    out: Dict[str, List[Mutation]] = {}
    for name in sorted(names):
        func = defs.get(name)
        if func is not None:
            out[name] = worker_mutations(src, func)
    return out


# ----------------------------------------------------------------------
# frontier surfaces (StateOps implementations)
# ----------------------------------------------------------------------
def frontier_returns(src: SourceFile) -> List[Tuple[ast.Return, Origin]]:
    """Unpicklable taint returned from ``root_state`` implementations.

    A class implementing the :class:`~repro.engine.protocol.StateOps`
    protocol (identified structurally: it defines ``root_state`` and
    one of the ``HOT_PATHS``, ``search_ops`` or ``fast_ops``) hands
    frontier state to the engine's seed loop;
    once the work-queue engine ships those states across processes,
    anything unserializable inside them is a crash at dispatch.
    """
    out: List[Tuple[ast.Return, Origin]] = []
    cfgs = cfgs_for(src)
    for node in src.nodes(ast.ClassDef):
        methods = {
            sub.name: sub
            for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "root_state" not in methods or not any(
            name in methods for name in HOT_PATHS
        ):
            continue
        func = methods["root_state"]
        analysis = PickleTaint(src.lines, _local_def_names(func))
        _func, cfg = cfgs[id(func)]
        before = analysis.run(cfg)
        for cfg_node in cfg.nodes:
            stmt = cfg_node.stmt
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            env = before.get(cfg_node.index)
            if env is None:
                continue
            origin = analysis.expr_tags(stmt.value, env).get(TAG)
            if origin is not None:
                out.append((stmt, origin))
    return out

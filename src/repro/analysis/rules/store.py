"""Run-store key hygiene.

REP015 — nondeterministic content in a cache key.  The run store
(:mod:`repro.store.key`) addresses every persisted enumeration by a
content hash; a key function that folds in wall-clock time, process
identity, absolute paths, hash-seed-dependent values or
insertion-ordered dict views produces keys that differ across
machines, processes or construction histories — every lookup silently
misses and the store degenerates into a write-only log.

The rule scopes itself by *name*: any function whose name contains
``fingerprint``, ``run_key``, ``key_for``, ``canonical`` or ``salt``
is a key function and gets four checks:

1. **no nondeterministic sources** — clock reads (``time.time``,
   ``datetime.now``, ...), process identity (``os.getpid``),
   randomness (``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets``) and
   interpreter-session values (``id()``, ``hash()`` — string hashes
   vary with ``PYTHONHASHSEED``) may not be called anywhere in a key
   function, whatever they feed;
2. **no machine-local paths in the digest** — ``os.path.abspath`` /
   ``realpath`` / ``expanduser`` / ``os.getcwd`` are flagged only when
   their result feeds ``.encode()`` or a digest sink
   (``digest.update``, a hashlib constructor).  Resolving a path in
   order to *open* it is fine — a salt that hashes file *contents*
   read through an abspath'd ``open`` must stay clean;
3. **no unordered dict-view iteration into a digest** — a ``for`` loop
   over ``.items()`` / ``.keys()`` / ``.values()`` whose body calls
   ``.update(...)`` bakes insertion order (construction history) into
   the key unless the view is wrapped in ``sorted(...)``;
4. **no unsorted JSON serialization** — ``json.dumps`` without
   ``sort_keys=True`` serializes dicts in insertion order; two
   semantically equal keys built in different orders would hash
   differently.

``key`` alone does not match the name pattern, so a method named
``key`` on a deliberately machine-local index (one that may hash an
abspath) stays out of scope.  A key function's scope is its own body
(:func:`~repro.analysis.source.walk_own`): a nested ``def`` or
``class`` is scoped by its own name, while a lambda, which has no name
of its own, stays in the key function's scope.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule
from repro.analysis.source import SourceFile, call_name, root_name, walk_own

#: A function with one of these substrings in its name builds (part
#: of) a content address and is held to key-hygiene rules.
KEY_FUNC_RE = re.compile(r"fingerprint|run_key|key_for|canonical|salt")

#: ``module -> attributes`` whose call reads a per-process /
#: per-moment value.  ``datetime`` covers both ``datetime.now()`` and
#: ``datetime.datetime.now()`` via the terminal attribute.
_NONDET_ATTRS = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time",
        "process_time_ns", "clock_gettime",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
    "os": {"getpid", "getppid", "urandom"},
    "uuid": {"uuid1", "uuid4"},
    "socket": {"gethostname", "getfqdn"},
    "platform": {"node"},
}

#: Every ``secrets.*`` call is randomness by definition.
_NONDET_MODULES = {"secrets"}

#: Bare builtins whose value is an interpreter-session accident:
#: ``id()`` is an address, ``hash()`` of a str/bytes varies with
#: ``PYTHONHASHSEED``.
_NONDET_BUILTINS = {"id", "hash"}

#: Path resolvers: fine for opening files, forbidden as digest input.
_PATH_FUNCS = {"abspath", "realpath", "expanduser", "getcwd"}

#: Callees that consume bytes/str into a content hash.
_DIGEST_SINKS = {"update", "sha256", "sha1", "sha512", "md5", "blake2b"}

_DICT_VIEWS = {"items", "keys", "values"}


def _nondet_call_reason(node: ast.Call) -> str:
    """Why this call is a nondeterministic source ('' when it is not)."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in _NONDET_BUILTINS:
            return (
                "%s() is an interpreter-session value (PYTHONHASHSEED / "
                "object identity)" % func.id
            )
        return ""
    if not isinstance(func, ast.Attribute):
        return ""
    root = root_name(func)
    if root in _NONDET_MODULES:
        return "%s.%s() is randomness" % (root, func.attr)
    # Terminal base name handles both ``time.time()`` and
    # ``datetime.datetime.now()`` (base attr ``datetime``).
    base = func.value
    base_name = base.attr if isinstance(base, ast.Attribute) else (
        base.id if isinstance(base, ast.Name) else None
    )
    if base_name in _NONDET_ATTRS and func.attr in _NONDET_ATTRS[base_name]:
        return "%s.%s() reads per-process/per-moment state" % (
            base_name, func.attr
        )
    return ""


def _path_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call) and call_name(node) in _PATH_FUNCS
    )


def _path_tainted_names(own: List[ast.AST]) -> Set[str]:
    """Names assigned (directly) from a path-resolver call."""
    names: Set[str] = set()
    for node in own:
        if isinstance(node, ast.Assign) and _path_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _path_feed(subtree: ast.AST, tainted: Set[str]) -> bool:
    """Does ``subtree`` contain a path-resolver result?"""
    for node in ast.walk(subtree):
        if _path_call(node):
            return True
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
    return False


@rule(
    "REP015",
    "nondeterministic-key-content",
    Severity.ERROR,
    "cache-key/fingerprint functions must fold only deterministic, "
    "order-canonical content — no clocks, pids, paths, hash() or "
    "unsorted dict views in a content address",
)
def check_key_content(src: SourceFile) -> Iterator[Finding]:
    for node in src.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
        if KEY_FUNC_RE.search(node.name) is not None:
            yield from _check_one(src, node)


def _check_one(src: SourceFile, func: ast.AST) -> Iterator[Finding]:
    own = walk_own(func.body, lambdas=True)
    tainted = _path_tainted_names(own)
    for node in own:
        if isinstance(node, ast.Call):
            reason = _nondet_call_reason(node)
            if reason:
                yield _finding(
                    src, node, func,
                    "%s; a content address must not depend on when, "
                    "where or in which process it was computed" % reason,
                )
                continue
            yield from _check_digest_feed(src, node, func, tainted)
            yield from _check_json_dumps(src, node, func)
        elif isinstance(node, ast.For):
            yield from _check_dict_view_loop(src, node, func)


def _check_digest_feed(
    src: SourceFile, node: ast.Call, func: ast.AST, tainted: Set[str]
) -> Iterator[Finding]:
    name = call_name(node)
    if name == "encode" and isinstance(node.func, ast.Attribute):
        if _path_feed(node.func.value, tainted):
            yield _finding(
                src, node, func,
                "a resolved filesystem path is encoded into key "
                "material; absolute paths are machine-local — hash "
                "file contents or a repo-relative name instead",
            )
        return
    if name in _DIGEST_SINKS:
        for arg in node.args:
            # ``update(x.encode())`` is the encode branch's finding
            # (the walk visits the inner call too); skip it here so
            # one tainted line yields one finding.
            if isinstance(arg, ast.Call) and call_name(arg) == "encode":
                continue
            if _path_feed(arg, tainted):
                yield _finding(
                    src, node, func,
                    "a resolved filesystem path feeds a digest; "
                    "absolute paths are machine-local — hash file "
                    "contents or a repo-relative name instead",
                )
                break


def _check_json_dumps(
    src: SourceFile, node: ast.Call, func: ast.AST
) -> Iterator[Finding]:
    callee = node.func
    is_dumps = (
        isinstance(callee, ast.Attribute)
        and callee.attr == "dumps"
        and root_name(callee) == "json"
    ) or (isinstance(callee, ast.Name) and callee.id == "dumps")
    if not is_dumps:
        return
    for keyword in node.keywords:
        if keyword.arg == "sort_keys":
            value = keyword.value
            if isinstance(value, ast.Constant) and value.value is True:
                return
            break
    yield _finding(
        src, node, func,
        "json.dumps without sort_keys=True serializes dicts in "
        "insertion order; two equal keys built in different orders "
        "would hash differently",
    )


def _check_dict_view_loop(
    src: SourceFile, node: ast.For, func: ast.AST
) -> Iterator[Finding]:
    # ``sorted(d.items())`` never reaches here: its iter is a Call on
    # the *name* ``sorted``, not on an Attribute — only the bare view
    # matches.
    it = node.iter
    if not (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Attribute)
        and it.func.attr in _DICT_VIEWS
        and not it.args
    ):
        return
    body_updates = [
        sub
        for stmt in node.body + node.orelse
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Call) and call_name(sub) in _DIGEST_SINKS
    ]
    if not body_updates:
        return
    yield _finding(
        src, node, func,
        "iterating .%s() in insertion order feeds a digest; wrap the "
        "view in sorted(...) so the key is independent of "
        "construction history" % it.func.attr,
    )


def _finding(
    src: SourceFile, node: ast.AST, func: ast.AST, what: str
) -> Finding:
    return Finding(
        path=src.path,
        line=node.lineno,
        col=node.col_offset,
        rule="REP015",
        severity=Severity.ERROR,
        message="in key function '%s': %s" % (func.name, what),
        line_text=src.line_text(node.lineno),
    )

"""Numeric-safety and API-hygiene rules.

REP003 — float equality.  Probabilities and thresholds in this
codebase are accumulated products (or log-domain sums) of floats;
``==`` / ``!=`` against them is at best an exact-sentinel check and at
worst a latent order-of-evaluation bug.  Every such comparison must be
rewritten with an epsilon / ``math.isclose`` guard or explicitly
recorded with a suppression as an intentional sentinel.

REP004 — mutable default arguments and bare ``except:``.  The two
classic correctness traps: a shared mutable default leaks state across
calls, and a bare except swallows ``KeyboardInterrupt`` /
``SystemExit`` along with the error it meant to catch.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule
from repro.analysis.source import SourceFile, terminal_name

#: Identifiers that (by this repo's conventions) carry probabilities,
#: thresholds or log-domain values.
_PROB_NAME = re.compile(
    r"""(?x)
    ^(
        p | q | eta | gamma | epsilon | eps | weight | threshold
      | similarity | prob | probability | reliability | density
    )\d*$
    | ^(p|q|log|nl)_       # p_e, q_new, log_prob, nl_eta, ...
    | prob                 # prob, probs, clique_prob, probability, ...
    | _(p|eta|weight|threshold|similarity)\d*$
    """
)


def _is_prob_operand(node: ast.AST) -> Optional[str]:
    """A short description when ``node`` looks probability-valued."""
    name = terminal_name(node)
    if name is not None and _PROB_NAME.search(name):
        return f"'{name}'"
    if isinstance(node, ast.Call):
        callee = terminal_name(node.func)
        if callee is not None and _PROB_NAME.search(callee):
            return f"'{callee}(...)'"
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return f"float literal {node.value!r}"
    return None


def _exact_compares(node: ast.Compare):
    """``(op, left, right)`` for the == / != legs of one comparison,
    skipping ``x == None`` style legs (a different lint's job) and
    legs against a ``str``/``bytes`` literal, which cannot compare two
    floats."""
    operands = [node.left] + list(node.comparators)
    for op, left, right in zip(node.ops, operands, operands[1:]):
        if not isinstance(op, (ast.Eq, ast.NotEq)):
            continue
        if any(
            isinstance(side, ast.Constant)
            and (side.value is None or isinstance(side.value, (str, bytes)))
            for side in (left, right)
        ):
            continue
        yield op, left, right


@rule(
    "REP003",
    "float-equality",
    Severity.WARNING,
    "== / != on probability- or threshold-valued floats; use an "
    "epsilon guard or record the exact-sentinel intent",
)
def check_float_equality(src: SourceFile) -> Iterator[Finding]:
    direct_hits = set()
    for node in src.nodes(ast.Compare):
        for op, left, right in _exact_compares(node):
            what = _is_prob_operand(left) or _is_prob_operand(right)
            if what is None:
                continue
            direct_hits.add((node.lineno, node.col_offset))
            sym = "==" if isinstance(op, ast.Eq) else "!="
            yield Finding(
                path=src.path,
                line=node.lineno,
                col=node.col_offset,
                rule="REP003",
                severity=Severity.WARNING,
                message=(
                    f"exact float comparison '{sym}' involving {what}; "
                    "use math.isclose / an inequality, or mark the "
                    "exact-sentinel intent with a suppression"
                ),
                line_text=src.line_text(node.lineno),
            )
    # Flow extension: a probability that moved through assignments into
    # an innocently-named variable is still a probability.  The direct
    # (syntactic) check above keeps its exact messages; the flow half
    # only adds comparisons the name heuristic cannot see, with the
    # provenance chain attached.  Its sinks come from the flow-domain
    # pass REP010 and REP011 share.
    yield from _check_flow_equality(src, direct_hits)


def _check_flow_equality(src: SourceFile, direct_hits) -> Iterator[Finding]:
    from repro.analysis.findings import flow_fingerprint
    from repro.analysis.rules.flow_domains import domain_pass

    for anchor, (expr, origin) in domain_pass(src).by_rule["REP003"].items():
        if anchor in direct_hits:
            continue
        sink_text = src.line_text(expr.lineno)
        root = origin.root()
        yield Finding(
            path=src.path,
            line=expr.lineno,
            col=expr.col_offset,
            rule="REP003",
            severity=Severity.WARNING,
            message=(
                "exact float comparison on a value carrying "
                f"probability taint (from {root.note}, line "
                f"{root.line}); use math.isclose / an inequality, "
                "or record the exact-sentinel intent"
            ),
            line_text=sink_text,
            trace=tuple(origin.steps()) + (
                {
                    "line": expr.lineno,
                    "col": expr.col_offset,
                    "text": sink_text,
                    "note": "compared exactly here",
                },
            ),
            fingerprint=flow_fingerprint("REP003", root.text, sink_text),
        )


# ----------------------------------------------------------------------
# REP004 — mutable defaults and bare except
# ----------------------------------------------------------------------
def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


@rule(
    "REP004",
    "mutable-default-or-bare-except",
    Severity.ERROR,
    "mutable default argument values and bare except: clauses",
)
def check_mutable_defaults(src: SourceFile) -> Iterator[Finding]:
    for node in src.nodes(
        ast.FunctionDef, ast.AsyncFunctionDef, ast.ExceptHandler
    ):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield Finding(
                        path=src.path,
                        line=default.lineno,
                        col=default.col_offset,
                        rule="REP004",
                        severity=Severity.ERROR,
                        message=(
                            f"mutable default argument in '{node.name}'; "
                            "default to None and construct inside the "
                            "function"
                        ),
                        line_text=src.line_text(default.lineno),
                    )
        elif node.type is None:
            yield Finding(
                path=src.path,
                line=node.lineno,
                col=node.col_offset,
                rule="REP004",
                severity=Severity.ERROR,
                message=(
                    "bare 'except:' also catches KeyboardInterrupt/"
                    "SystemExit; catch Exception (or narrower) instead"
                ),
                line_text=src.line_text(node.lineno),
            )

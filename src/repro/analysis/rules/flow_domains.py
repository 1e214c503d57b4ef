"""Flow-sensitive domain rules: REP010 (probability domains) and
REP011 (bitset escape).

Both are taint analyses on the :mod:`repro.analysis.flow` core.

**REP010 — log/linear probability-domain mixing.**  The kernel carries
probabilities as negative-log values (``sv[w] = -log Pr(R∪{w})/Pr(R)``,
``nlq = -log Pr(R)``) while the dict backend and the exact oracle work
in linear probabilities.  A value is *log-tainted* when it originates
from ``-log(p)`` / ``log(p)`` or from a name the kernel reserves for
the log domain (``sv``, ``nlq``, ``nlogr``, ``nl_*``, ``hi_base``…);
it is *linear-tainted* when it originates from a probability-named
value (``p``, ``eta``, ``prob*``…).  Taint flows through assignments,
tuple unpacking, container round-trips and module-local helper calls;
``math.exp`` / ``math.log`` are the blessed conversions and reset the
tag.  The sink is any arithmetic or ordering/equality comparison whose
operands are *definitely* log and *definitely* linear — a domain mix
no rounding argument can save.

**REP011 — bitset-domain escape.**  Bit-parallel candidate sets (big
ints built from ``bit_at`` / ``*_bits`` masks) must stay in
int/popcount operations on the hot path.  Sinks: materializing a
tainted bitset via ``set()``/``list()``/``sorted()``…, per-index
membership scans (``B >> w & 1`` with ``w`` a surrounding
``range()``-loop variable, where the ``while xb: w = xb.bit_length() -
1; xb ^= bit_at[w]`` extraction idiom stays in the domain), string
round-trips via ``bin()``/``format()``, and direct ``for w in B``
iteration.

In the engine-driver file (the module defining ``_search_template``)
the unfolded template is skipped and every distinct AST-folded variant
is analyzed instead — exactly the closures production runs execute —
with findings anchored to the template's real source lines and
de-duplicated across variants.
"""

from __future__ import annotations

import ast
import copy
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity, flow_fingerprint
from repro.analysis.flow import (
    ModuleSummaries,
    Origin,
    TaintAnalysis,
    Tags,
    build_cfg,
    cfgs_for,
    merge_tags,
    origin_for,
)
from repro.analysis.flow.cfg import CFG, Node
from repro.analysis.registry import rule
from repro.analysis.semantics.validate import template_def
from repro.analysis.source import SourceFile, terminal_name

#: Names reserved (by kernel convention) for negative-log values.
_LOG_NAME = re.compile(r"^_?(sv|nlq|nlogr|nlog\w*|nl_\w+|hi_base)$")
#: Names that carry linear probabilities.  Bare ``q`` is deliberately
#: absent: the codebase uses it for both Pr(R) (linear, dict backend)
#: and generic quantities, so it is too ambiguous to be a source.
_LIN_NAME = re.compile(
    r"^_?(p|eta|prob\w*|probability|reliability|r_val|p_[a-z]\w*)$"
)
#: ``log``-family callees.  A *plain* ``log(p)`` is ordinary math
#: (entropy terms, Hoeffding bounds) and stays domain-free; only the
#: negated form ``-log(p)`` — the kernel's nlog encoding — and the
#: ``nlog*``-named helpers produce log-domain values.
_LOG_CALLS = {"log", "log1p", "log2", "log10"}
_NLOG_CALL = re.compile(r"^_?nlog\w*$")
_TO_LIN_CALLS = {"exp", "expm1"}
#: Calls whose result is domain-free (booleans, indices, counts,
#: vertex lists) even when their arguments are tainted.
_NEUTRAL_CALLS = {
    "len", "bool", "int", "range", "popcount", "bit_length", "id",
    "isclose", "exact_accept", "exact_x_member", "label_of",
    "select_pivot", "wide_scan", "normalize_pair", "normalize_edge",
}
#: Callees whose *name* says they return counts, ranks or clique
#: structures: their result is not a probability (or bitset) no matter
#: what domain values went in.  Complements the module-local summary
#: mechanism for helpers imported from sibling modules.
_NEUTRAL_CALL_RE = re.compile(
    r"(^|_)(count|degree|deg|rank|size|len|enumerate|clique)"
)

#: Bit-domain names: the big-int candidate sets and the mask tables
#: they are built from.
_BITS_NAME = re.compile(r"^_?(\w*_)?bits$|^bit_at$|^\w*_mask$|^mask\w*$")
#: Materializing one of these from a bitset leaves the bit domain.
_MATERIALIZERS = {"set", "list", "sorted", "tuple", "frozenset"}
_STRINGIFIERS = {"bin", "format"}

_ARITH_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)
_SCOPE_BARRIERS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
)


def _walk_expr_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function scopes."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPE_BARRIERS):
            continue
        yield from _walk_expr_scope(child)


def _scan_roots(node: Node) -> List[ast.AST]:
    """The expressions a sink check should walk for this CFG node.

    Compound statements contribute only their header expressions —
    their bodies have CFG nodes of their own and would otherwise be
    scanned twice (with the wrong environment).
    """
    stmt = node.stmt
    if node.kind == "iter":
        return [stmt.iter]
    if node.kind == "handler":
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, _SCOPE_BARRIERS):
        return []
    return [stmt]


def _call_terminal(call: ast.Call) -> Optional[str]:
    return terminal_name(call.func)


# ----------------------------------------------------------------------
# shared analysis skeleton for both rules
# ----------------------------------------------------------------------
class _DomainTaint(TaintAnalysis):
    """Common propagation; subclasses define sources and sinks."""

    def __init__(
        self,
        lines: List[str],
        summaries: Optional[ModuleSummaries] = None,
    ):
        super().__init__(lines)
        self.summaries = summaries
        self.findings: List[Tuple] = []
        #: Name of the function under analysis.  Recursive self-calls
        #: use the module summary *instead of* argument passthrough:
        #: blindly forwarding argument taint to the result of a
        #: recursion is a gross over-approximation (the engine's
        #: ``search`` takes bitsets and returns a vertex list).
        self.func_name: Optional[str] = None

    def name_tags(self, name: str, node: ast.AST) -> Tags:
        raise NotImplementedError

    def source_tags(self, expr: ast.expr, env) -> Tags:
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return {}  # a flow binding overrides the name heuristic
            return self.name_tags(expr.id, expr)
        if isinstance(expr, ast.Attribute):
            return self.name_tags(expr.attr, expr)
        return {}

    def call_tags(self, call: ast.Call, env) -> Tags:
        callee = _call_terminal(call)
        if callee is not None and _NEUTRAL_CALL_RE.search(callee):
            return {}
        if callee is not None and callee == self.func_name:
            if self.summaries is not None:
                return dict(self.summaries.return_tags(callee))
            return {}
        if (
            callee is not None
            and self.summaries is not None
            and self.summaries.is_local(callee)
        ):
            # Module-local callee: its summary already states what the
            # return value carries.  Argument passthrough on top would
            # poison count-returning helpers (``_top_degree(tri, p,
            # eta)`` returns an *int*).  Known limitation: a local
            # identity helper (``return p``) summarizes as untainted.
            return dict(self.summaries.return_tags(callee))
        tags = super().call_tags(call, env)
        if callee and self.summaries is not None:
            merge_tags(tags, self.summaries.return_tags(callee))
        return tags

    def unpack_tags(self, value, tags, index, total):
        # ``for k, v in container.items():`` — only the values carry
        # the container's domain; dict *keys* are vertices/indices.
        if (
            total == 2
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "items"
            and index == 0
        ):
            return {}
        return tags


class _ProbTaint(_DomainTaint):
    """REP010: tags ``log`` and ``lin``."""

    def name_tags(self, name: str, node: ast.AST) -> Tags:
        if _LOG_NAME.match(name):
            return {
                "log": origin_for(
                    node, self.lines, "log-domain name `%s`" % name
                )
            }
        if _LIN_NAME.match(name):
            return {
                "lin": origin_for(
                    node, self.lines, "linear-probability name `%s`" % name
                )
            }
        return {}

    def source_tags(self, expr: ast.expr, env) -> Tags:
        # ``-log(p)``: the nlog encoding itself.
        if (
            isinstance(expr, ast.UnaryOp)
            and isinstance(expr.op, ast.USub)
            and isinstance(expr.operand, ast.Call)
            and _call_terminal(expr.operand) in _LOG_CALLS
        ):
            return {
                "log": origin_for(
                    expr, self.lines,
                    "`-%s(...)` nlog encoding"
                    % _call_terminal(expr.operand),
                )
            }
        return super().source_tags(expr, env)

    def call_tags(self, call: ast.Call, env) -> Tags:
        callee = _call_terminal(call)
        if callee in _LOG_CALLS:
            # Plain log() is ordinary math: it consumes the argument's
            # domain and produces a domain-free scalar.  (The *negated*
            # form is tagged in :meth:`source_tags`.)
            return {}
        if callee is not None and _NLOG_CALL.match(callee):
            return {
                "log": origin_for(
                    call, self.lines, "`%s(...)` conversion" % callee
                )
            }
        if callee in _TO_LIN_CALLS:
            return {
                "lin": origin_for(
                    call, self.lines, "`%s(...)` conversion" % callee
                )
            }
        if callee in _NEUTRAL_CALLS:
            return {}
        return super().call_tags(call, env)

    # -- sinks --------------------------------------------------------
    def check(self, node: Node, env) -> None:
        for root in _scan_roots(node):
            for expr in _walk_expr_scope(root):
                if isinstance(expr, ast.BinOp) and isinstance(
                    expr.op, _ARITH_OPS
                ):
                    self._check_pair(
                        expr, expr.left, expr.right, env, "arithmetic"
                    )
                elif isinstance(expr, ast.Compare):
                    operands = [expr.left] + list(expr.comparators)
                    for left, right in zip(operands, operands[1:]):
                        self._check_pair(expr, left, right, env, "comparison")

    def _check_pair(self, where, left, right, env, what: str) -> None:
        lt = self.expr_tags(left, env)
        rt = self.expr_tags(right, env)

        def definite(tags: Tags, tag: str, other: str) -> Optional[Origin]:
            return tags[tag] if tag in tags and other not in tags else None

        for log_side, lin_side in ((lt, rt), (rt, lt)):
            log_origin = definite(log_side, "log", "lin")
            lin_origin = definite(lin_side, "lin", "log")
            if log_origin is not None and lin_origin is not None:
                self.findings.append(
                    (where, what, log_origin, lin_origin)
                )
                return


class _BitsTaint(_DomainTaint):
    """REP011: tag ``bits``."""

    def __init__(self, lines, summaries=None, range_vars=None):
        super().__init__(lines, summaries)
        #: ``id(ast node) -> frozenset of surrounding range()-loop and
        #: range()-comprehension variables`` (see :func:`_range_vars`).
        self.range_vars: Dict[int, frozenset] = range_vars or {}

    def name_tags(self, name: str, node: ast.AST) -> Tags:
        if _BITS_NAME.match(name):
            return {
                "bits": origin_for(
                    node, self.lines, "bit-domain name `%s`" % name
                )
            }
        return {}

    def call_tags(self, call: ast.Call, env) -> Tags:
        callee = _call_terminal(call)
        if callee in _MATERIALIZERS or callee in _NEUTRAL_CALLS:
            return {}
        return super().call_tags(call, env)

    def _bits(self, expr, env) -> Optional[Origin]:
        return self.expr_tags(expr, env).get("bits")

    # -- sinks --------------------------------------------------------
    def check(self, node: Node, env) -> None:
        stmt = node.stmt
        if node.kind == "iter" and isinstance(stmt, (ast.For, ast.AsyncFor)):
            origin = None
            if (
                not isinstance(stmt.iter, ast.Call)
                # Iterating the mask *table* itself is bit-domain setup,
                # not an escape.
                and terminal_name(stmt.iter) != "bit_at"
            ):  # `for w in B` over a raw tainted value
                origin = self._bits(stmt.iter, env)
            if origin is not None:
                self.findings.append(
                    (stmt.iter, "iterated element-by-element", origin)
                )
            return
        for root in _scan_roots(node):
            self._check_exprs(root, env)

    def _check_exprs(self, root: ast.AST, env) -> None:
        for expr in _walk_expr_scope(root):
            if isinstance(expr, ast.Call):
                callee = _call_terminal(expr)
                if callee in _MATERIALIZERS | _STRINGIFIERS:
                    for arg in expr.args:
                        origin = self._bits(arg, env)
                        if origin is not None:
                            verb = (
                                "stringified via `%s(...)`"
                                if callee in _STRINGIFIERS
                                else "materialized via `%s(...)`"
                            ) % callee
                            self.findings.append((expr, verb, origin))
                            break
            elif isinstance(expr, ast.BinOp) and isinstance(
                expr.op, ast.BitAnd
            ):
                self._check_membership(expr, env)

    def _check_membership(self, expr: ast.BinOp, env) -> None:
        """``B >> w & 1`` / ``B & (1 << w)`` / ``B & bit_at[w]`` with
        ``w`` a surrounding ``range()`` loop variable: a per-index scan
        of the whole universe, the exact pattern the bit-parallel
        extraction loop exists to avoid.  Constant indices (flag
        probes) stay silent."""
        loop_vars = self.range_vars.get(id(expr), frozenset())
        if not loop_vars:
            return

        def index_var(node) -> Optional[str]:
            return node.id if isinstance(node, ast.Name) else None

        for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
            # B >> w & 1
            if (
                isinstance(a, ast.BinOp)
                and isinstance(a.op, ast.RShift)
                and index_var(a.right) in loop_vars
            ):
                origin = self._bits(a.left, env)
                if origin is not None:
                    self.findings.append(
                        (expr, "probed per-index with `>> %s & 1`"
                         % index_var(a.right), origin)
                    )
                    return
            # B & (1 << w)  /  B & bit_at[w]
            mask_var = None
            if (
                isinstance(b, ast.BinOp)
                and isinstance(b.op, ast.LShift)
                and index_var(b.right) in loop_vars
            ):
                mask_var = index_var(b.right)
            elif (
                isinstance(b, ast.Subscript)
                and terminal_name(b.value) == "bit_at"
                and index_var(_subscript_index(b)) in loop_vars
            ):
                mask_var = index_var(_subscript_index(b))
            if mask_var is not None:
                origin = self._bits(a, env)
                if origin is not None:
                    self.findings.append(
                        (expr, "probed per-index at `%s`" % mask_var, origin)
                    )
                    return


def _subscript_index(node: ast.Subscript) -> ast.AST:
    index = node.slice
    # py3.8 wraps simple indices in ast.Index; 3.9+ does not.
    return getattr(index, "value", index)


def _range_vars(root: ast.AST) -> Dict[int, frozenset]:
    """``id(node) -> surrounding range()-loop variables`` for every
    node under ``root`` (for-loops over ``range(...)`` and
    comprehension generators over ``range(...)``)."""
    out: Dict[int, frozenset] = {}

    def is_range(expr) -> bool:
        return (
            isinstance(expr, ast.Call) and _call_terminal(expr) == "range"
        )

    def visit(node: ast.AST, vars_: frozenset) -> None:
        extended = vars_
        if (
            isinstance(node, (ast.For, ast.AsyncFor))
            and is_range(node.iter)
            and isinstance(node.target, ast.Name)
        ):
            extended = vars_ | {node.target.id}
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            names = {
                gen.target.id
                for gen in node.generators
                if is_range(gen.iter) and isinstance(gen.target, ast.Name)
            }
            extended = vars_ | names
        out[id(node)] = extended
        for child in ast.iter_child_nodes(node):
            visit(child, extended)

    visit(root, frozenset())
    return out


# ----------------------------------------------------------------------
# per-file orchestration (shared by REP010/REP011)
# ----------------------------------------------------------------------
def _folded_variants(template: ast.FunctionDef) -> List[ast.Module]:
    """Every AST-folded variant of this file's own template.

    Folding the template *from the file's AST* (rather than the
    engine's own copy, parsed from ``inspect.getsource``) keeps the
    original line numbers, so findings anchor to real source lines and
    inline suppressions keep working.
    """
    from repro.engine import driver

    return [
        driver.fold_record(
            key,
            template=ast.Module(
                body=[copy.deepcopy(template)], type_ignores=[]
            ),
        ).module
        for key in driver.legal_variant_keys()
    ]


def _function_units(src: SourceFile) -> List[Tuple[Optional[ast.AST], CFG]]:
    """The (function, cfg) units a domain rule analyzes in this file.

    Ordinary files: the module body and every function.  The driver
    file: the same, minus the unfolded template (and its closures),
    plus every folded variant's functions.
    """
    units = list(cfgs_for(src).values())
    template = template_def(src.tree)
    if template is None:
        return units
    inside_template = {
        id(sub)
        for sub in ast.walk(template)
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    units = [
        (func, cfg)
        for func, cfg in units
        if func is None or id(func) not in inside_template
    ]
    for module in _folded_variants(template):
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units.append((node, build_cfg(node.body)))
    return units


def _trace(*origins: Origin, sink_step: Dict[str, object]) -> Tuple:
    steps: List[Dict[str, object]] = []
    seen = set()
    for origin in origins:
        for step in origin.steps():
            key = (step["line"], step["col"], step["note"])
            if key not in seen:
                seen.add(key)
                steps.append(step)
    steps.append(sink_step)
    return tuple(steps)


@rule(
    "REP010",
    "probability-domain-mixing",
    Severity.ERROR,
    "negative-log and linear probability values must never meet in "
    "arithmetic or comparison except through log/exp conversions",
)
def check_probability_domains(src: SourceFile) -> Iterator[Finding]:
    summaries = ModuleSummaries().compute(
        src, lambda s: _ProbTaint(src.lines, s)
    )
    reported: Set[Tuple[int, int]] = set()
    for func, cfg in _function_units(src):
        analysis = _ProbTaint(src.lines, summaries)
        analysis.func_name = func.name if func is not None else None
        analysis.run(cfg)
        for where, what, log_origin, lin_origin in analysis.findings:
            anchor = (where.lineno, where.col_offset)
            if anchor in reported:
                continue
            reported.add(anchor)
            sink_text = src.line_text(where.lineno)
            source_root = log_origin.root()
            yield Finding(
                path=src.path,
                line=where.lineno,
                col=where.col_offset,
                rule="REP010",
                severity=Severity.ERROR,
                message=(
                    f"log-domain value (from {source_root.note}, line "
                    f"{source_root.line}) meets linear-probability value "
                    f"(from {lin_origin.root().note}, line "
                    f"{lin_origin.root().line}) in {what}; convert with "
                    "exp()/-log() first"
                ),
                line_text=sink_text,
                trace=_trace(
                    log_origin,
                    lin_origin,
                    sink_step={
                        "line": where.lineno,
                        "col": where.col_offset,
                        "text": sink_text,
                        "note": f"domains meet in {what}",
                    },
                ),
                fingerprint=flow_fingerprint(
                    "REP010", source_root.text, sink_text
                ),
            )


@rule(
    "REP011",
    "bitset-domain-escape",
    Severity.ERROR,
    "big-int candidate bitsets must stay in int/popcount operations; "
    "set materialization and per-index membership scans leave the "
    "bit-parallel domain",
)
def check_bitset_escape(src: SourceFile) -> Iterator[Finding]:
    summaries = ModuleSummaries().compute(
        src, lambda s: _BitsTaint(src.lines, s)
    )
    reported: Set[Tuple[int, int]] = set()
    for func, cfg in _function_units(src):
        scope_root = func if func is not None else src.tree
        analysis = _BitsTaint(
            src.lines, summaries, range_vars=_range_vars(scope_root)
        )
        analysis.func_name = func.name if func is not None else None
        analysis.run(cfg)
        for where, what, origin in analysis.findings:
            anchor = (where.lineno, where.col_offset)
            if anchor in reported:
                continue
            reported.add(anchor)
            sink_text = src.line_text(where.lineno)
            source_root = origin.root()
            yield Finding(
                path=src.path,
                line=where.lineno,
                col=where.col_offset,
                rule="REP011",
                severity=Severity.ERROR,
                message=(
                    f"bitset value (from {source_root.note}, line "
                    f"{source_root.line}) {what}; stay in the bit domain "
                    "with the `while bits: w = bits.bit_length() - 1; "
                    "bits ^= bit_at[w]` extraction idiom"
                ),
                line_text=sink_text,
                trace=_trace(
                    origin,
                    sink_step={
                        "line": where.lineno,
                        "col": where.col_offset,
                        "text": sink_text,
                        "note": f"bitset {what}",
                    },
                ),
                fingerprint=flow_fingerprint(
                    "REP011", source_root.text, sink_text
                ),
            )

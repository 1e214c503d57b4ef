"""The flow-domain pass and its two rules: REP010 (probability
domains) and REP011 (bitset escape).  REP003's flow half reads the
same pass.

All three are taint analyses on the :mod:`repro.analysis.flow` core.

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
tag.  The sink is any arithmetic (``x op= y`` included) or
ordering/equality comparison whose operands are *definitely* log and
*definitely* linear — a domain mix no rounding argument can save.

**REP011 — bitset-domain escape.**  Bit-parallel candidate sets (big
ints built from ``bit_at`` / ``*_bits`` masks) must stay in
int/popcount operations on the hot path.  Sinks: materializing a
tainted bitset via ``set()``/``list()``/``sorted()``…, per-index
membership scans (``B >> w & 1`` with ``w`` a surrounding
``range()``-loop variable, where the ``while xb: w = xb.bit_length() -
1; xb ^= bit_at[w]`` extraction idiom stays in the domain), string
round-trips via ``bin()``/``format()``, and direct ``for w in B``
iteration.

**One pass per file.**  :func:`domain_pass` (memoized on the
:class:`SourceFile`, as :func:`cfgs_for` is) computes one
:class:`ModuleSummaries` set and runs one fixpoint per function CFG
over the union of the ``log``/``lin`` tags and the ``bits`` tag.  The
two tag families are disjoint, and each decision that reads the
environment reads only its own family's tags — the flow-binding
override in :meth:`_DomainTaint.source_tags` and the per-family call
rules of :data:`_CALL_RULES` — so the product computes exactly the
separate analyses.  One walk per CFG node then collects the sinks of
REP010, REP011 and REP003's flow half; each rule keeps its own
messages, traces and fingerprints.

In the engine-driver file (the module defining ``_search_template``)
the unfolded template is skipped and every folded variant is analyzed
instead — exactly the closures production runs execute, folded once
per key and shared with REP013
(:func:`~repro.analysis.semantics.validate.template_folds`) — with
findings anchored to the template's real source lines and
de-duplicated across variants.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from types import MappingProxyType
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Tuple,
)

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
    trace_of,
)
from repro.analysis.flow.cfg import CFG, Node
from repro.analysis.registry import rule
from repro.analysis.rules.numeric import _exact_compares, _is_prob_operand
from repro.analysis.semantics.validate import template_def, template_folds
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
_LOG_CALLS = frozenset({"log", "log1p", "log2", "log10"})
_NLOG_CALL = re.compile(r"^_?nlog\w*$")
_TO_LIN_CALLS = frozenset({"exp", "expm1"})
#: Calls whose result is domain-free (booleans, indices, counts,
#: vertex lists) even when their arguments are tainted.
_NEUTRAL_CALLS = frozenset({
    "len", "bool", "int", "range", "popcount", "bit_length", "id",
    "isclose", "exact_accept", "exact_x_member", "label_of",
    "select_pivot", "normalize_pair", "normalize_edge",
})
#: Callees whose *name* says they return counts, ranks, clique
#: structures or the reduction API's vertex and edge structures
#: (``topk_core_vertices``, ``topk_core_decomposition``,
#: ``vertex_ordering``): their result is not a probability (or bitset)
#: no matter what domain values went in.  Complements the module-local
#: summary mechanism for helpers imported from sibling modules.
_NEUTRAL_CALL_RE = re.compile(
    r"(^|_)(count|degree|deg|rank|size|len|enumerate|clique"
    r"|vertices|edges|decomposition|ordering)"
)

#: Bit-domain names: the big-int candidate sets and the mask tables
#: they are built from.
_BITS_NAME = re.compile(r"^_?(\w*_)?bits$|^bit_at$|^\w*_mask$|^mask\w*$")
#: Materializing one of these from a bitset leaves the bit domain.
_MATERIALIZERS = frozenset({"set", "list", "sorted", "tuple", "frozenset"})
_STRINGIFIERS = frozenset({"bin", "format"})

_ARITH_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)

#: Tag -> family.  REP010 (and REP003's flow half) read ``prob``,
#: REP011 reads ``bits``.
_FAMILY = {"log": "prob", "lin": "prob", "bits": "bits"}
_FAMILIES = frozenset(_FAMILY.values())

#: Per-family call rules, first match per family wins:
#: ``(family, callee test, produced tag)``.  A rule producing None kills
#: the family's tags.  A plain ``log()`` consumes its argument's domain
#: (the negated form is a source, see :meth:`_DomainTaint.source_tags`).
#: A family no rule decides takes the shared path
#: (:meth:`_DomainTaint.shared_call_tags`).
_CALL_RULES: Tuple[Tuple[str, Callable[[str], object], Optional[str]], ...] = (
    ("prob", _LOG_CALLS.__contains__, None),
    ("prob", _NLOG_CALL.match, "log"),
    ("prob", _TO_LIN_CALLS.__contains__, "lin"),
    ("prob", _NEUTRAL_CALLS.__contains__, None),
    ("bits", (_MATERIALIZERS | _NEUTRAL_CALLS).__contains__, None),
)


@lru_cache(maxsize=None)
def _call_decisions(callee: str) -> Mapping[str, Optional[str]]:
    """``{family: produced tag or None}`` for the families a call
    rule decides for ``callee`` (read-only: the cache shares it)."""
    decided: Dict[str, Optional[str]] = {}
    for family, matches, produced in _CALL_RULES:
        if family not in decided and matches(callee):
            decided[family] = produced
    return MappingProxyType(decided)


@lru_cache(maxsize=None)
def _name_sources(name: str) -> Tuple[Tuple[str, str], ...]:
    """``(tag, note)`` for every family whose naming convention
    ``name`` follows."""
    out = []
    if _LOG_NAME.match(name):
        out.append(("log", "log-domain name `%s`" % name))
    elif _LIN_NAME.match(name):
        out.append(("lin", "linear-probability name `%s`" % name))
    if _BITS_NAME.match(name):
        out.append(("bits", "bit-domain name `%s`" % name))
    return tuple(out)


class DomainSinks:
    """One file's flow-domain sinks per rule: the first sink at each
    ``(line, col)`` anchor, in unit order (the variants of one template
    line report once).  REP010: ``(node, "arithmetic"|"comparison",
    log origin, lin origin)``; REP011: ``(node, verb, bits origin)``;
    REP003's flow half: ``(compare, probability origin)``."""

    def __init__(self) -> None:
        self.by_rule: Dict[str, Dict[Tuple[int, int], Tuple]] = {
            "REP003": {}, "REP010": {}, "REP011": {},
        }

    def add(self, rule_id: str, *sink) -> None:
        anchor = (sink[0].lineno, sink[0].col_offset)
        self.by_rule[rule_id].setdefault(anchor, sink)


class _DomainTaint(TaintAnalysis):
    """The product analysis over the ``prob`` and ``bits`` families."""

    def __init__(
        self,
        lines: List[str],
        summaries: ModuleSummaries,
        sinks: DomainSinks,
        scope: ast.AST,
    ):
        super().__init__(lines)
        self.summaries = summaries
        self.sinks = sinks
        #: The unit's function (or module) node, and its
        #: :func:`_range_vars`, computed on the first per-index probe.
        self.scope = scope
        self._range_vars: Optional[Dict[int, frozenset]] = None
        #: Name of the function under analysis.  Recursive self-calls
        #: use the module summary *instead of* argument passthrough:
        #: blindly forwarding argument taint to the result of a
        #: recursion is a gross over-approximation (the engine's
        #: ``search`` takes bitsets and returns a vertex list).
        self.func_name: Optional[str] = None
        #: ``id(expr) -> tags`` for the node :meth:`check` is on.
        self._memo: Dict[int, Tags] = {}

    # -- sources -------------------------------------------------------
    def _name_tags(self, name: str, node: ast.AST) -> Tags:
        return {
            tag: origin_for(node, self.lines, note)
            for tag, note in _name_sources(name)
        }

    def source_tags(self, expr: ast.expr, env) -> Tags:
        if isinstance(expr, ast.Name):
            tags = self._name_tags(expr.id, expr)
            bound = env.get(expr.id)
            if tags and bound:
                # A flow binding overrides the name heuristic, family
                # by family.
                families = {_FAMILY[tag] for tag in bound}
                tags = {
                    tag: origin
                    for tag, origin in tags.items()
                    if _FAMILY[tag] not in families
                }
            return tags
        if isinstance(expr, ast.Attribute):
            return self._name_tags(expr.attr, expr)
        if (
            isinstance(expr, ast.UnaryOp)
            and isinstance(expr.op, ast.USub)
            and isinstance(expr.operand, ast.Call)
            and terminal_name(expr.operand.func) in _LOG_CALLS
        ):
            # ``-log(p)``: the nlog encoding itself.
            return {
                "log": origin_for(
                    expr, self.lines,
                    "`-%s(...)` nlog encoding"
                    % terminal_name(expr.operand.func),
                )
            }
        return {}

    # -- calls ---------------------------------------------------------
    def call_tags(self, call: ast.Call, env) -> Tags:
        callee = terminal_name(call.func)
        decided: Mapping[str, Optional[str]] = (
            _call_decisions(callee) if callee is not None else {}
        )
        tags: Tags = {}
        if len(decided) < len(_FAMILIES):
            for tag, origin in self.shared_call_tags(call, callee, env).items():
                if _FAMILY[tag] not in decided:
                    tags[tag] = origin
        for produced in decided.values():
            if produced is not None:
                tags[produced] = origin_for(
                    call, self.lines, "`%s(...)` conversion" % callee
                )
        return tags

    def shared_call_tags(self, call: ast.Call, callee: Optional[str],
                         env) -> Tags:
        """Argument passthrough, self-calls and summaries: the call
        path of every family no call rule decides."""
        if callee is not None:
            if _NEUTRAL_CALL_RE.search(callee):
                return {}
            if callee == self.func_name or self.summaries.is_local(callee):
                # Module-local callee: its summary already states what
                # the return value carries.  Argument passthrough on top
                # would poison count-returning helpers (``_top_degree(
                # tri, p, eta)`` returns an *int*).  Known limitation: a
                # local identity helper (``return p``) summarizes as
                # untainted.
                return self.summaries.return_tags(callee)
        tags = super().call_tags(call, env)
        if callee:
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

    # -- sinks: one walk per node, three rules -------------------------
    def _tags(self, expr: ast.expr, env) -> Tags:
        tags = self._memo.get(id(expr))
        if tags is None:
            tags = self._memo[id(expr)] = self.expr_tags(expr, env)
        return tags

    def check(self, node: Node, env) -> None:
        self._memo = {}
        stmt = node.stmt
        header = isinstance(stmt, (ast.For, ast.AsyncFor))  # `iter` node
        if (
            isinstance(stmt, (ast.For, ast.AsyncFor))
            and not isinstance(stmt.iter, ast.Call)
            # Iterating the mask *table* itself is bit-domain setup,
            # not an escape.
            and terminal_name(stmt.iter) != "bit_at"
        ):  # `for w in B` over a raw tainted value
            self._bits(stmt.iter, stmt.iter, env, "iterated element-by-element")
        for expr in node.exprs():
            if isinstance(expr, ast.Compare):
                operands = [expr.left] + list(expr.comparators)
                for left, right in zip(operands, operands[1:]):
                    self._mix(expr, left, right, env, "comparison")
                self._exact(expr, env)
            elif isinstance(expr, ast.BinOp):
                if isinstance(expr.op, _ARITH_OPS):
                    self._mix(expr, expr.left, expr.right, env, "arithmetic")
                elif isinstance(expr.op, ast.BitAnd) and not header:
                    self._membership(expr, env)
            elif isinstance(expr, ast.AugAssign):
                if isinstance(expr.op, _ARITH_OPS):
                    self._mix(
                        expr, expr.target, expr.value, env, "arithmetic"
                    )
            elif isinstance(expr, ast.Call) and not header:
                self._escape_call(expr, env)

    # REP010
    def _mix(self, where, left, right, env, what: str) -> None:
        lt = self._tags(left, env)
        rt = self._tags(right, env)

        def definite(tags: Tags, tag: str, other: str) -> Optional[Origin]:
            return tags[tag] if tag in tags and other not in tags else None

        for log_side, lin_side in ((lt, rt), (rt, lt)):
            log_origin = definite(log_side, "log", "lin")
            lin_origin = definite(lin_side, "lin", "log")
            if log_origin is not None and lin_origin is not None:
                self.sinks.add("REP010", where, what, log_origin, lin_origin)
                return

    # REP003's flow half.  Float *literals* are deliberately not flow
    # sources — a literal only matters when it is compared directly,
    # which the syntactic half already flags.
    def _exact(self, expr: ast.Compare, env) -> None:
        for _op, left, right in _exact_compares(expr):
            for side in (left, right):
                # Only flow-through-assignment taint: a name the
                # syntactic heuristic would have caught itself is not
                # worth a second finding.
                if _is_prob_operand(side) is not None:
                    continue
                tags = self._tags(side, env)
                origin = tags.get("lin") or tags.get("log")
                if origin is not None:
                    self.sinks.add("REP003", expr, origin)
                    break

    # REP011
    def _bits(self, where: ast.AST, value: ast.expr, env, verb: str) -> bool:
        """Record a sink at ``where`` when ``value`` carries a bitset."""
        origin = self._tags(value, env).get("bits")
        if origin is not None:
            self.sinks.add("REP011", where, verb, origin)
        return origin is not None

    def _escape_call(self, expr: ast.Call, env) -> None:
        callee = terminal_name(expr.func)
        if callee in _STRINGIFIERS:
            verb = "stringified via `%s(...)`" % callee
        elif callee in _MATERIALIZERS:
            verb = "materialized via `%s(...)`" % callee
        else:
            return
        for arg in expr.args:
            if self._bits(expr, arg, env, verb):
                return

    def _membership(self, expr: ast.BinOp, env) -> None:
        """``B >> w & 1`` / ``B & (1 << w)`` / ``B & bit_at[w]`` with
        ``w`` a surrounding ``range()`` loop variable: a per-index scan
        of the whole universe, the exact pattern the bit-parallel
        extraction loop exists to avoid.  Constant indices (flag
        probes) stay silent."""
        for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
            # B >> w & 1
            if isinstance(a, ast.BinOp) and isinstance(a.op, ast.RShift):
                var = self._loop_var(expr, a.right)
                if var is not None and self._bits(
                    expr, a.left, env, "probed per-index with `>> %s & 1`" % var
                ):
                    return
            # B & (1 << w)  /  B & bit_at[w]
            var = None
            if isinstance(b, ast.BinOp) and isinstance(b.op, ast.LShift):
                var = self._loop_var(expr, b.right)
            elif (
                isinstance(b, ast.Subscript)
                and terminal_name(b.value) == "bit_at"
            ):
                var = self._loop_var(expr, _subscript_index(b))
            if var is not None and self._bits(
                expr, a, env, "probed per-index at `%s`" % var
            ):
                return

    def _loop_var(self, expr: ast.BinOp, index: ast.AST) -> Optional[str]:
        """``index``'s name when it is a ``range()``-loop variable
        around ``expr``."""
        if not isinstance(index, ast.Name):
            return None
        if self._range_vars is None:
            self._range_vars = _range_vars(self.scope)
        if index.id in self._range_vars.get(id(expr), ()):
            return index.id
        return None


def _subscript_index(node: ast.Subscript) -> ast.AST:
    index = node.slice
    # py3.8 wraps simple indices in ast.Index; 3.9+ does not.
    return getattr(index, "value", index)


def _range_vars(scope: ast.AST) -> Dict[int, frozenset]:
    """``id(node) -> surrounding range()-loop variables`` for every
    ``&`` in ``scope``'s own body that has any (for-loops over
    ``range(...)`` and comprehension generators over ``range(...)``).
    Nested ``def`` bodies are left to their own units, so a scan visits
    each node once."""
    out: Dict[int, frozenset] = {}

    def is_range(expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and terminal_name(expr.func) == "range"
        )

    def visit(node: ast.AST, vars_: frozenset) -> None:
        if (
            isinstance(node, (ast.For, ast.AsyncFor))
            and is_range(node.iter)
            and isinstance(node.target, ast.Name)
        ):
            vars_ = vars_ | {node.target.id}
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            vars_ = vars_ | {
                gen.target.id
                for gen in node.generators
                if is_range(gen.iter) and isinstance(gen.target, ast.Name)
            }
        elif (
            vars_
            and isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitAnd)
        ):
            out[id(node)] = vars_
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, vars_)

    visit(scope, frozenset())
    return out


# ----------------------------------------------------------------------
# the per-file pass
# ----------------------------------------------------------------------
def _function_units(src: SourceFile) -> List[Tuple[Optional[ast.AST], CFG]]:
    """The (function, cfg) units the pass analyzes in this file.

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
    for _key, record, _error in template_folds(template, src.lines):
        if record is None:
            continue
        for node in ast.walk(record.module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units.append((node, build_cfg(node.body)))
    return units


#: Attribute the pass result is memoized under, on the SourceFile.
_PASS_ATTR = "_flow_domain_pass"


def domain_pass(src: SourceFile) -> DomainSinks:
    """The file's flow-domain sinks: one summary set and one fixpoint
    per unit, computed once per file."""
    sinks = getattr(src, _PASS_ATTR, None)
    if sinks is None:
        sinks = DomainSinks()
        summaries = ModuleSummaries().compute(
            src, lambda s: _DomainTaint(src.lines, s, sinks, src.tree)
        )
        for func, cfg in _function_units(src):
            analysis = _DomainTaint(
                src.lines, summaries, sinks,
                func if func is not None else src.tree,
            )
            analysis.func_name = func.name if func is not None else None
            before = summaries.settled.get(id(func))
            if before is None:
                before = analysis.run(cfg)
            analysis.check_all(cfg, before)
        setattr(src, _PASS_ATTR, sinks)
    return sinks


def _finding(src: SourceFile, rule_id: str, where: ast.AST, message: str,
             origins: Tuple[Origin, ...], note: str) -> Finding:
    sink_text = src.line_text(where.lineno)
    return Finding(
        path=src.path,
        line=where.lineno,
        col=where.col_offset,
        rule=rule_id,
        severity=Severity.ERROR,
        message=message,
        line_text=sink_text,
        trace=trace_of(
            *origins,
            sink={
                "line": where.lineno,
                "col": where.col_offset,
                "text": sink_text,
                "note": note,
            },
        ),
        fingerprint=flow_fingerprint(
            rule_id, origins[0].root().text, sink_text
        ),
    )


@rule(
    "REP010",
    "probability-domain-mixing",
    Severity.ERROR,
    "negative-log and linear probability values must never meet in "
    "arithmetic or comparison except through log/exp conversions",
)
def check_probability_domains(src: SourceFile) -> Iterator[Finding]:
    for where, what, log_origin, lin_origin in (
        domain_pass(src).by_rule["REP010"].values()
    ):
        log_root, lin_root = log_origin.root(), lin_origin.root()
        yield _finding(
            src, "REP010", where,
            f"log-domain value (from {log_root.note}, line "
            f"{log_root.line}) meets linear-probability value (from "
            f"{lin_root.note}, line {lin_root.line}) in {what}; convert "
            "with exp()/-log() first",
            (log_origin, lin_origin),
            f"domains meet in {what}",
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
    for where, what, origin in domain_pass(src).by_rule["REP011"].values():
        root = origin.root()
        yield _finding(
            src, "REP011", where,
            f"bitset value (from {root.note}, line {root.line}) {what}; "
            "stay in the bit domain with the `while bits: w = "
            "bits.bit_length() - 1; bits ^= bit_at[w]` extraction idiom",
            (origin,),
            f"bitset {what}",
        )

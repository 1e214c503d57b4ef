"""Translation validation of the specializer's folded variants.

For one variant key the validator builds two skeletons of the
recursion (:mod:`repro.analysis.semantics.ir`):

* the **spec** side — the shared template normalized under the key's
  flag environment by this package's own independent guard folder;
* the **impl** side — the module the production specializer actually
  emitted (:func:`repro.engine.driver.fold_record`), normalized under
  the empty environment.

A sound specialization makes the two skeletons identical.  Every
divergence becomes a :class:`Difference` carrying a source-to-sink
trace (template site -> enclosing structure -> variant site), which the
REP013 rule renders into findings and SARIF code flows.

On top of the structural diff, three targeted obligations produce
sharper messages for the failure modes that matter most:

* **emission/recursion parity** — the variant must emit at exactly the
  template's emission sites and keep the recursion structure;
* **hook policy** — hooks-on variants must carry exactly the spec
  side's sanitizer/observer hook sites; hooks-off variants must be
  hook-free and must not even reference the ``san``/``obs`` bindings;
  and every hook site of the template must survive in some hooked
  variant (a site no ``HOOKS`` key keeps is coverage that no run ever
  executes);
* **bitset domain closure** — bitset variants must not reach any
  generic-path backend call (``open_node``/``expand``/``decode``...),
  and generic variants must not reach the ``fast_ops`` surface.
  Bitset escapes inside the folded body (``set(c_bits)``...) are
  REP011's: that rule analyzes the same folded variants.

One obligation is per file, not per key: **hook coverage**
(:func:`hook_coverage`).  Where a file defines both the template's
``search`` closure and ``SearchEngine.run``, each must call every hook
label the sanitizer, metrics and traces depend on.

A key whose fold raises or does not compile is reported as a
difference of its own, never as a crash of the validator.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.semantics.ir import (
    Block,
    Branch,
    Effect,
    FlagEnv,
    Item,
    Loop,
    Nested,
    TryBlock,
    display,
    emissions_of,
    guards_equivalent,
    hook_labels_of,
    iter_effects,
    normalize_function,
    recursions_of,
)

_TEMPLATE_FUNC = "_search_template"

#: Per-comparison cap: one broken fold tends to cascade, and the first
#: differences are the actionable ones.
MAX_DIFFERENCES = 20

#: Names only the generic (SearchOps) path may touch.  A bitset variant
#: reaching one of these has left the bit-parallel domain.
_GENERIC_ONLY_NAMES = frozenset(
    {"hot", "open_node", "lb_refresh", "color_reaches", "expand",
     "retract", "decode"}
)
_GENERIC_ONLY_CALLS = frozenset(
    {"search_ops", "open_node", "lb_refresh", "color_reaches", "expand",
     "retract", "decode"}
)
#: Names only the bitset (fast_ops) path may touch.
_BITSET_ONLY_NAMES = frozenset(
    {"fast", "sv", "nbr_bits", "nlogr", "bit_at", "color_bit",
     "popcount", "select_pivot", "label_of", "exact_accept",
     "exact_x_member", "hi_base", "guard2", "deg_cn", "cn_lb",
     "cn_base", "lb", "bl", "ubit", "c_bits"}
)
_BITSET_ONLY_CALLS = frozenset(
    {"fast_ops", "select_pivot", "exact_accept", "exact_x_member",
     "popcount", "label_of"}
)

_HOOK_NAMES = frozenset({"san", "obs"})

#: Hook labels (:func:`~repro.analysis.semantics.ir.hook_label`) the
#: template's ``search`` closure must call.  The sanitizer runs S1, S2
#: and S4 from ``on_node``/``on_emit`` and S3 from the M-pivot cover;
#: metrics and traces need each node, emission, expansion and prune
#: kind (the string discriminator keeps the kinds apart, so losing the
#: one ``mpivot`` site cannot hide behind a surviving ``kpivot`` one).
RECURSION_HOOKS = (
    "san:hook:on_node", "san:hook:on_emit", "san:hook:on_cover",
    "obs:hook:on_node", "obs:hook:on_emit", "obs:hook:on_expand",
    "obs:hook:on_prune:kpivot", "obs:hook:on_prune:mpivot",
    "obs:hook:on_prune:size",
)
#: Hook labels ``SearchEngine.run`` must call: S5's reduced vertex set,
#: coloring context and completeness flag; both gauges, the four phase
#: spans, the per-seed progress tick and the final stats handover.
#: ``on_root`` is a lifecycle hook on purpose, so the hookless
#: recursion variants stay branch-free while progress still sees every
#: root.
LIFECYCLE_HOOKS = (
    "san:hook:on_reduced", "san:hook:on_context", "san:hook:on_finish",
    "obs:hook:on_gauge:vertices_input",
    "obs:hook:on_gauge:vertices_search",
    "obs:hook:on_phase:reduction", "obs:hook:on_phase:ordering",
    "obs:hook:on_phase:recursion", "obs:hook:on_phase:sanitize",
    "obs:hook:on_root", "obs:hook:on_finish",
)


class Difference:
    """One divergence between spec and impl skeletons."""

    __slots__ = ("kind", "message", "line", "spec_line", "trace")

    def __init__(self, kind: str, message: str, line: int,
                 spec_line: int, trace: Tuple):
        self.kind = kind
        self.message = message
        self.line = line
        self.spec_line = spec_line
        self.trace = trace

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind}@{self.line}: {self.message}>"


def flag_summary(env: FlagEnv) -> str:
    """Compact flag rendering for messages (`HOOKS+BITSET`...)."""
    on = [name for name, value in env.items() if value]
    return "+".join(on) if on else "no flags"


# ----------------------------------------------------------------------
# the structural differ
# ----------------------------------------------------------------------
class _Comparison:
    """State for one spec-vs-impl skeleton diff."""

    def __init__(self, lines: Sequence[str], label: str, env: FlagEnv,
                 template_line: int):
        self.lines = lines
        self.label = label
        self.env = env
        self.template_line = template_line
        self.differences: List[Difference] = []

    def full(self) -> bool:
        return len(self.differences) >= MAX_DIFFERENCES

    # -- trace construction -------------------------------------------
    def _step(self, line: int, note: str) -> Dict[str, object]:
        text = ""
        if 0 < line <= len(self.lines):
            text = self.lines[line - 1].strip()
        return {"line": line, "col": 0, "text": text, "note": note}

    def _trace(self, path: List[Dict[str, object]],
               spec_item: Optional[Item], line: int,
               sink_note: str) -> Tuple:
        steps = [
            self._step(
                self.template_line,
                f"template folded under {flag_summary(self.env)} "
                f"(variant `{self.label}`)",
            )
        ]
        steps.extend(path[-3:])
        if spec_item is not None:
            steps.append(
                self._step(
                    spec_item.line,
                    f"template specifies {spec_item.describe()} here",
                )
            )
        steps.append(self._step(line, sink_note))
        return tuple(steps)

    def add(self, kind: str, message: str, line: int, spec_line: int,
            path: List[Dict[str, object]],
            spec_item: Optional[Item], sink_note: str) -> None:
        if self.full():
            return
        self.differences.append(
            Difference(
                kind,
                message,
                line,
                spec_line,
                self._trace(path, spec_item, line, sink_note),
            )
        )

    # -- difference constructors --------------------------------------
    def missing(self, item: Item, path, anchor: Optional[Item]) -> None:
        line = anchor.line if anchor is not None else item.line
        self.add(
            "missing",
            f"folded variant `{self.label}` drops the template's "
            f"{item.describe()} (template line {item.line})",
            line,
            item.line,
            path,
            item,
            f"not present in the folded variant `{self.label}`",
        )

    def extra(self, item: Item, path) -> None:
        self.add(
            "extra",
            f"folded variant `{self.label}` contains {item.describe()} "
            "that the template does not specify at this point",
            item.line,
            item.line,
            path,
            None,
            f"only the folded variant `{self.label}` performs this",
        )

    def reordered(self, a: Item, b: Item, path) -> None:
        self.add(
            "reordered",
            f"folded variant `{self.label}` reorders {a.describe()} "
            f"and {b.describe()} relative to the template",
            b.line,
            a.line,
            path,
            a,
            f"the folded variant `{self.label}` runs "
            f"{b.describe()} first",
        )

    def changed(self, a: Item, b: Item, path) -> None:
        self.add(
            "changed",
            f"folded variant `{self.label}` rewrites the template's "
            f"{a.describe()} into {b.describe()}",
            b.line,
            a.line,
            path,
            a,
            f"the folded variant `{self.label}` has "
            f"{b.describe()} instead",
        )

    def guard(self, a: Branch, b: Branch, path) -> None:
        self.add(
            "guard",
            f"folded variant `{self.label}` guards this block with "
            f"`if {display(b.guard)}` where the folded template "
            f"requires `if {display(a.guard)}`",
            b.line,
            a.line,
            path,
            a,
            f"variant guard `if {display(b.guard)}` is not equivalent",
        )


def _match(a: Item, b: Item) -> bool:
    if type(a) is not type(b):
        return False
    if a.canon == b.canon:
        return True
    if isinstance(a, Branch):
        return guards_equivalent(a.guard, b.guard)
    return False


def _child_pairs(a: Item, b: Item):
    if isinstance(a, Branch):
        yield a.then, b.then
        yield a.orelse, b.orelse
    elif isinstance(a, Loop):
        yield a.body, b.body
        yield a.orelse, b.orelse
    elif isinstance(a, TryBlock):
        yield a.body, b.body
        for (_, ha), (_, hb) in zip(a.handlers, b.handlers):
            yield ha, hb
        yield a.orelse, b.orelse
        yield a.final, b.final
    elif isinstance(a, (Block, Nested)):
        yield a.body, b.body


def _diff_children(a: Item, b: Item, cmp: _Comparison, path) -> None:
    if isinstance(a, Effect):
        return
    entered = path + [cmp._step(a.line, f"inside {a.describe()}")]
    for sub_a, sub_b in _child_pairs(a, b):
        _diff_items(sub_a, sub_b, cmp, entered)


def _diff_items(spec: List[Item], var: List[Item],
                cmp: _Comparison, path) -> None:
    i = j = 0
    while i < len(spec) and j < len(var):
        if cmp.full():
            return
        a, b = spec[i], var[j]
        if _match(a, b):
            _diff_children(a, b, cmp, path)
            i += 1
            j += 1
            continue
        cross_ab = j + 1 < len(var) and _match(a, var[j + 1])
        cross_ba = i + 1 < len(spec) and _match(spec[i + 1], b)
        if cross_ab and cross_ba:
            cmp.reordered(a, b, path)
            _diff_children(a, var[j + 1], cmp, path)
            _diff_children(spec[i + 1], b, cmp, path)
            i += 2
            j += 2
        elif cross_ba:
            cmp.missing(a, path, anchor=b)
            i += 1
        elif cross_ab:
            cmp.extra(b, path)
            j += 1
        else:
            if isinstance(a, Branch) and isinstance(b, Branch):
                cmp.guard(a, b, path)
                _diff_children(a, b, cmp, path)
            else:
                cmp.changed(a, b, path)
            i += 1
            j += 1
    while i < len(spec):
        if cmp.full():
            return
        cmp.missing(spec[i], path, anchor=None)
        i += 1
    while j < len(var):
        if cmp.full():
            return
        cmp.extra(var[j], path)
        j += 1


# ----------------------------------------------------------------------
# targeted obligations
# ----------------------------------------------------------------------
def _emission_parity(spec: List[Item], var: List[Item],
                     cmp: _Comparison) -> None:
    # Multisets, not sets: the template emits the *same* statement at
    # several sites (top-of-call leaf, inlined leaf, singleton path),
    # so a dropped duplicate must still count as a lost site.
    spec_counts: Dict[str, int] = {}
    for e in emissions_of(spec):
        spec_counts[e.canon] = spec_counts.get(e.canon, 0) + 1
    var_counts: Dict[str, int] = {}
    for e in emissions_of(var):
        var_counts[e.canon] = var_counts.get(e.canon, 0) + 1
    reported: Set[str] = set()
    for effect in emissions_of(spec):
        if var_counts.get(effect.canon, 0) < spec_counts[effect.canon]:
            if effect.canon in reported:
                continue
            reported.add(effect.canon)
            cmp.add(
                "emission",
                f"folded variant `{cmp.label}` lost an emission site "
                f"`{effect.detail}` (template emits this at "
                f"{spec_counts[effect.canon]} site(s), the variant at "
                f"{var_counts.get(effect.canon, 0)})",
                effect.line,
                effect.line,
                [],
                effect,
                "emission site unreachable in the folded variant",
            )
    for effect in emissions_of(var):
        if spec_counts.get(effect.canon, 0) < var_counts[effect.canon]:
            if effect.canon in reported:
                continue
            reported.add(effect.canon)
            cmp.add(
                "emission",
                f"folded variant `{cmp.label}` emits `{effect.detail}` "
                "at a site the template does not specify",
                effect.line,
                effect.line,
                [],
                None,
                "emission site only exists in the folded variant",
            )


def _recursion_parity(spec: List[Item], var: List[Item],
                      cmp: _Comparison) -> None:
    spec_calls = {e.canon for e in recursions_of(spec)}
    var_calls = {e.canon for e in recursions_of(var)}
    if spec_calls != var_calls:
        missing = spec_calls - var_calls
        anchor = next(
            (e for e in recursions_of(spec) if e.canon in missing),
            None,
        ) or next(iter(recursions_of(var)), None)
        line = anchor.line if anchor is not None else cmp.template_line
        cmp.add(
            "recursion",
            f"folded variant `{cmp.label}` changes the recursion "
            "structure: self-call sites do not match the template",
            line,
            line,
            [],
            anchor if anchor is not None and missing else None,
            "recursive call structure diverges here",
        )


def _hook_policy(spec: List[Item], var: List[Item],
                 var_func: ast.AST, cmp: _Comparison) -> None:
    var_hooks = hook_labels_of(var)
    if not cmp.env.get("HOOKS"):
        for effect in iter_effects(var):
            if effect.kind == "hook":
                cmp.add(
                    "hook-leak",
                    f"hook call `{effect.detail}` survives in the "
                    f"hookless variant `{cmp.label}` — the fold must "
                    "remove every sanitizer/observer site",
                    effect.line,
                    effect.line,
                    [],
                    None,
                    "hook call reachable with HOOKS folded off",
                )
        for node in ast.walk(var_func):
            if (
                isinstance(node, ast.Name)
                and node.id in _HOOK_NAMES
                and isinstance(node.ctx, ast.Load)
            ):
                cmp.add(
                    "hook-leak",
                    f"hookless variant `{cmp.label}` still references "
                    f"the `{node.id}` binding at line {node.lineno}",
                    node.lineno,
                    node.lineno,
                    [],
                    None,
                    f"`{node.id}` load reachable with HOOKS folded off",
                )
                break
        return
    spec_hooks = hook_labels_of(spec)
    missing = sorted(set(spec_hooks) - set(var_hooks))
    for label in missing:
        anchor = next(
            (
                e
                for e in iter_effects(spec)
                if e.kind == "hook" and label in e.detail.split(",")
            ),
            None,
        )
        line = anchor.line if anchor is not None else cmp.template_line
        cmp.add(
            "hook-missing",
            f"hooked variant `{cmp.label}` lost the hook site "
            f"`{label}` (template line {line})",
            line,
            line,
            [],
            anchor,
            "hook site unreachable in the folded variant",
        )


def _domain_closure(var_func: ast.AST, cmp: _Comparison) -> None:
    bitset = bool(cmp.env.get("BITSET"))
    bad_names = _GENERIC_ONLY_NAMES if bitset else _BITSET_ONLY_NAMES
    bad_calls = _GENERIC_ONLY_CALLS if bitset else _BITSET_ONLY_CALLS
    shape = "bitset" if bitset else "generic"
    other = "generic" if bitset else "bitset"
    seen: Set[str] = set()
    for node in ast.walk(var_func):
        name: Optional[str] = None
        what = ""
        if isinstance(node, ast.Call):
            from repro.analysis.source import terminal_name

            callee = terminal_name(node.func)
            if callee in bad_calls:
                name = callee
                what = f"calls the {other}-path operation `{callee}(...)`"
        elif isinstance(node, ast.Name) and node.id in bad_names:
            name = node.id
            what = f"references the {other}-path binding `{node.id}`"
        if name is None or name in seen:
            continue
        seen.add(name)
        cmp.add(
            "domain",
            f"{shape} variant `{cmp.label}` {what} at line "
            f"{node.lineno} — the fold must keep the {shape} path "
            f"closed over its own domain",
            node.lineno,
            node.lineno,
            [],
            None,
            f"{other}-path surface reachable in the {shape} variant",
        )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def validate_variant(
    template_func: ast.AST,
    variant_func: ast.AST,
    env: FlagEnv,
    lines: Sequence[str],
    label: str,
) -> List[Difference]:
    """All proof obligations for one (template, variant, env) triple."""
    spec = normalize_function(template_func, env)
    var = normalize_function(variant_func, {})
    cmp = _Comparison(lines, label, env, template_func.lineno)
    _emission_parity(spec, var, cmp)
    _recursion_parity(spec, var, cmp)
    _hook_policy(spec, var, variant_func, cmp)
    _domain_closure(variant_func, cmp)
    _diff_items(spec, var, cmp, [])
    return cmp.differences


def _def_named(scope: Optional[ast.AST], name: str,
               kind: type = ast.FunctionDef):
    """The ``kind`` definition ``name`` directly in ``scope``, or None."""
    return next(
        (
            node
            for node in getattr(scope, "body", [])
            if isinstance(node, kind) and node.name == name
        ),
        None,
    )


def template_def(tree: ast.AST) -> Optional[ast.FunctionDef]:
    """The module-level ``_search_template`` of ``tree``, or None."""
    return _def_named(tree, _TEMPLATE_FUNC)


#: Attribute the per-key folds are memoized under, on the template node.
_FOLDS_ATTR = "_repro_template_folds"


def template_folds(
    template: ast.FunctionDef, lines: Sequence[str]
) -> List[Tuple]:
    """``(key, record, error)`` for every legal key, folded once.

    ``record`` is the production specializer's
    :func:`~repro.engine.driver.fold_record` of a fresh parse of the
    template's own source ``lines`` (so line numbers are real), or None
    when the fold raised; ``error`` is the fold or compile exception.
    Memoized on the template node: REP013 and the flow-domain pass
    (:mod:`repro.analysis.rules.flow_domains`) share the folds.
    """
    folds = getattr(template, _FOLDS_ATTR, None)
    if folds is not None:
        return folds
    from repro.engine import driver

    first = min(
        [template.lineno] + [d.lineno for d in template.decorator_list]
    )
    text = "\n" * (first - 1) + "\n".join(
        lines[first - 1:template.end_lineno]
    )
    folds = []
    for key in driver.legal_variant_keys():
        record = None
        error: Optional[Exception] = None
        try:
            record = driver.fold_record(key, template=ast.parse(text))
            compile(
                record.module, f"<variant {driver.variant_id(key)}>", "exec"
            )
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            error = exc
        folds.append((key, record, error))
    setattr(template, _FOLDS_ATTR, folds)
    return folds


def validate_template_source(
    tree: ast.AST, lines: Sequence[str]
) -> Iterator[Tuple[Tuple, Difference]]:
    """Validate every legal variant of the template defined in ``tree``.

    The variant sides are the template's :func:`template_folds`: the
    validator checks the artifact the engine would actually compile,
    not a re-creation.  A key whose fold raises or does not compile is
    a difference too, and so is a template hook site that no hooked key
    keeps.  Yields ``(key, difference)`` pairs; a clean template yields
    nothing.
    """
    from repro.engine import driver

    template = template_def(tree)
    if template is None:
        return
    hooked_keys = []
    kept_hooks: Set[str] = set()
    for key, record, error in template_folds(template, lines):
        label = driver.variant_id(key)
        if error is not None:
            yield key, Difference(
                "fold",
                f"variant `{label}` no longer folds and compiles from "
                f"the shared template ({error!r}) — the spec-flag "
                "environment and the template drifted apart",
                template.lineno,
                template.lineno,
                (),
            )
            continue
        variant_func = template_def(record.module)
        if variant_func is None:
            yield key, Difference(
                "missing",
                f"specializer fold for `{label}` lost the template "
                "function entirely",
                template.lineno,
                template.lineno,
                (),
            )
            continue
        if record.env.get("HOOKS"):
            hooked_keys.append(key)
            kept_hooks.update(
                hook_labels_of(normalize_function(variant_func, {}))
            )
        for diff in validate_variant(
            template, variant_func, record.env, lines, label
        ):
            yield key, diff
    for diff in _dead_hook_sites(template, kept_hooks, lines):
        for key in hooked_keys:
            yield key, diff


def _dead_hook_sites(
    template: ast.AST, kept: Set[str], lines: Sequence[str]
) -> Iterator[Difference]:
    """Template hook sites whose label no hooked variant keeps.

    A hook call under a fold guard that every hooked key removes is
    dead code in production *and* in every sanitized or observed run,
    so the hook coverage it seems to give is not real.
    """
    reported: Set[str] = set()
    for effect in iter_effects(normalize_function(template, {})):
        if effect.kind != "hook":
            continue
        for label in effect.detail.split(","):
            if label in kept or label in reported:
                continue
            reported.add(label)
            text = ""
            if 0 < effect.line <= len(lines):
                text = lines[effect.line - 1].strip()
            yield Difference(
                "hook-dead",
                f"template hook site `{label}` (line {effect.line}) "
                "survives in no hooked variant — it sits under a fold "
                "guard that every HOOKS key removes",
                effect.line,
                effect.line,
                (
                    {
                        "line": effect.line,
                        "col": 0,
                        "text": text,
                        "note": "hook site no hooked variant keeps",
                    },
                ),
            )


def engine_anchors(
    tree: ast.AST,
) -> Tuple[Optional[ast.FunctionDef], Optional[ast.FunctionDef]]:
    """``(search, run)``: the template's recursion closure and the run
    lifecycle defined on ``SearchEngine``, each None when absent."""
    engine = _def_named(tree, "SearchEngine", ast.ClassDef)
    return (
        _def_named(template_def(tree), "search"),
        _def_named(engine, "run"),
    )


def hook_coverage(
    tree: ast.AST, lines: Sequence[str]
) -> Iterator[Difference]:
    """Required hook labels the engine's two anchors no longer call.

    Applies only to a file that defines both anchors (the engine
    driver), so fixtures holding a template alone stay silent.  A
    dropped hook site weakens the sanitizer, the metrics and the traces
    on every backend at once, which no clique-output test notices.
    """
    search, run = engine_anchors(tree)
    if search is None or run is None:
        return
    for func, required, where in (
        (search, RECURSION_HOOKS, "recursion"),
        (run, LIFECYCLE_HOOKS, "run lifecycle"),
    ):
        present = set(hook_labels_of(normalize_function(func)))
        missing = [label for label in required if label not in present]
        if not missing:
            continue
        names = ", ".join(f"`{label}`" for label in missing)
        text = ""
        if 0 < func.lineno <= len(lines):
            text = lines[func.lineno - 1].strip()
        yield Difference(
            "hook-coverage",
            f"the engine {where} (`{func.name}`) no longer calls "
            f"{names} — every sanitizer and observer hook site must "
            "stay wired, or the runtime checks, metrics and traces "
            "silently weaken on all backends",
            func.lineno,
            func.lineno,
            (
                {
                    "line": func.lineno,
                    "col": 0,
                    "text": text,
                    "note": "required hook labels missing here",
                },
            ),
        )

"""Translation validation (REP013) with its hook-coverage obligation,
frontier escape (REP014) with its per-write worker findings, the
seeded variant-mutant corpus and the specializer fold records.

The corpus in ``tests/fixtures/variant_mutants/`` is the acceptance
net: each file seeds exactly the miscompile class its name says, and
the tests assert both that REP013/REP014 fire and that the attached
source-to-sink trace names the true template site and variant site.
"""

import ast
import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.registry import get_rule
from repro.analysis.runner import run_rules
from repro.analysis.semantics import (
    fold_guard,
    guards_equivalent,
    hook_labels_of,
    normalize_function,
    validate_template_source,
)
from repro.analysis.semantics.validate import (
    LIFECYCLE_HOOKS,
    RECURSION_HOOKS,
    engine_anchors,
    hook_coverage,
)
from repro.analysis.source import SourceFile
from repro.engine.driver import legal_variant_keys

REPO = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO / "src" / "repro"
MUTANTS = Path(__file__).parent / "fixtures" / "variant_mutants"


def findings_for(code, rule_id, path="fixture.py"):
    src = SourceFile(path, textwrap.dedent(code))
    kept, _suppressed = run_rules([src], [get_rule(rule_id)])
    return kept


def mutant_findings(name, rule_id):
    src = SourceFile.read(str(MUTANTS / name))
    kept, _ = run_rules([src], [get_rule(rule_id)])
    return src, kept


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# guard folding / equivalence
# ----------------------------------------------------------------------
def _expr(text):
    return ast.parse(text, mode="eval").body


def test_fold_guard_three_valued_folding():
    env = {"HOOKS": False, "BITSET": True}
    assert fold_guard(_expr("HOOKS"), env) is False
    assert fold_guard(_expr("not HOOKS"), env) is True
    assert fold_guard(_expr("HOOKS and BITSET"), env) is False
    assert fold_guard(_expr("HOOKS or BITSET"), env) is True
    residual = fold_guard(_expr("BITSET and other"), env)
    assert isinstance(residual, ast.AST)


def test_fold_guard_keeps_untouched_tests_identical():
    expr = _expr("a < lo or member(w, r)")
    assert fold_guard(expr, {"HOOKS": False}) is expr


def test_guards_equivalent_truth_table():
    assert guards_equivalent(
        _expr("not (a or b)"), _expr("not a and not b")
    )
    assert not guards_equivalent(_expr("a or b"), _expr("a and b"))


# ----------------------------------------------------------------------
# the specializer's fold records
# ----------------------------------------------------------------------
def test_fold_record_exposes_env_and_compiles():
    from repro.engine import driver

    key = next(
        k for k in driver.legal_variant_keys()
        if driver._flag_env(k)["BITSET"]
    )
    record = driver.fold_record(key)
    assert record.key == key
    assert record.env == driver._flag_env(key)
    compile(record.module, "<fold probe>", "exec")


def test_legal_variant_keys_fold_only_layout_and_hooks():
    from repro.engine import driver

    assert driver._SPEC_FLAGS == ("HOOKS", "BITSET")
    assert [driver.variant_id(k) for k in driver.legal_variant_keys()] == [
        "generic",
        "generic+hooks",
        "bitset",
        "bitset+hooks",
    ]


@pytest.mark.parametrize("key", legal_variant_keys())
def test_every_legal_key_compiles_to_a_callable_factory(key):
    from repro.engine import driver

    factory = driver.compiled_variant(key)
    assert callable(factory)
    assert driver.variant_id(key).startswith(key[0])


# ----------------------------------------------------------------------
# the full variant matrix is proven on main
# ----------------------------------------------------------------------
def unproven_keys(src):
    """Every legal key the validator reports a difference for."""
    pairs = validate_template_source(src.tree, src.lines)
    return {key for key, _diff in pairs}


def test_every_shipped_variant_is_proven_equivalent():
    src = SourceFile.read(str(SRC_REPRO / "engine" / "driver.py"))
    assert unproven_keys(src) == set()


def test_translation_validation_proves_the_full_matrix(monkeypatch):
    import repro.analysis.semantics.validate as validate_mod
    from repro.engine import driver

    src = SourceFile.read(str(SRC_REPRO / "engine" / "driver.py"))
    total = len(legal_variant_keys())
    assert total == 4
    # Every legal key is folded and handed to the per-variant check, so
    # "no difference" counts all four keys as proven, not a subset.
    checked = []
    real_validate = validate_mod.validate_variant

    def tally(template, variant_func, env, lines, label):
        checked.append(label)
        return real_validate(template, variant_func, env, lines, label)

    monkeypatch.setattr(validate_mod, "validate_variant", tally)
    pairs = list(validate_template_source(src.tree, src.lines))
    assert pairs == [], [diff.message for _key, diff in pairs]
    assert checked == [driver.variant_id(k) for k in legal_variant_keys()]


def test_rep013_is_silent_on_the_engine_driver():
    src = SourceFile.read(str(SRC_REPRO / "engine" / "driver.py"))
    kept, _ = run_rules([src], [get_rule("REP013")])
    assert kept == [], [f.format_text() for f in kept]


def test_rep013_is_silent_off_anchor():
    for rel in ("core/pmuc.py", "kernel/enumerate.py"):
        src = SourceFile.read(str(SRC_REPRO / rel))
        kept, _ = run_rules([src], [get_rule("REP013")])
        assert kept == [], rel


# ----------------------------------------------------------------------
# REP013 hook coverage and fold failures on the engine driver
# ----------------------------------------------------------------------
ENGINE_DRIVER = SRC_REPRO / "engine" / "driver.py"


def driver_rep013_findings(text=None):
    src = (
        SourceFile(str(ENGINE_DRIVER), text)
        if text is not None
        else SourceFile.read(str(ENGINE_DRIVER))
    )
    kept, _ = run_rules([src], [get_rule("REP013")])
    return kept


def _neutralize(text, fragment, count=1):
    """Replace every line containing ``fragment`` with ``pass``.

    Keeping the indentation (and a ``pass`` statement) preserves the
    surrounding ``if san is not None:`` guard's syntax, so the mutant
    still parses — the hook call alone disappears.  ``count`` asserts
    how many sites the fragment was expected to hit, so a refactor
    that changes the site count breaks the test loudly instead of
    silently weakening it.
    """
    lines = text.splitlines(keepends=True)
    hits = [i for i, ln in enumerate(lines) if fragment in ln]
    assert len(hits) == count, f"expected {count} line(s) with {fragment!r}"
    for i in hits:
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        lines[i] = f"{indent}pass\n"
    return "".join(lines)


def _required(labels, root):
    """The required labels of one hook root (``san`` or ``obs``)."""
    picked = {label for label in labels if label.startswith(f"{root}:")}
    assert picked, f"no required {root} hook labels"
    return picked


@pytest.mark.parametrize("root", ["san", "obs"])
def test_committed_engine_covers_every_required_hook(root):
    src = SourceFile.read(str(ENGINE_DRIVER))
    search, run = engine_anchors(src.tree)
    assert search is not None, "engine recursion anchor missing"
    assert run is not None, "engine run-lifecycle anchor missing"
    # "No hooks anywhere" must not be able to pass silently.
    assert set(hook_labels_of(normalize_function(search))) >= _required(
        RECURSION_HOOKS, root
    )
    assert set(hook_labels_of(normalize_function(run))) >= _required(
        LIFECYCLE_HOOKS, root
    )


@pytest.mark.parametrize("root", ["san", "obs"])
def test_hook_coverage_is_silent_on_the_committed_engine(root):
    src = SourceFile.read(str(ENGINE_DRIVER))
    diffs = list(hook_coverage(src.tree, src.lines))
    assert not [d for d in diffs if f"`{root}:hook:" in d.message], [
        d.message for d in diffs
    ]


#: One anchor without the other: the recursion closure of a seeded
#: template fixture, and a bare ``SearchEngine.run``.  Neither calls
#: the hooks its anchor requires, so only the both-anchors gate keeps
#: hook coverage silent.
ONE_ANCHOR_SOURCES = [
    pytest.param(
        (MUTANTS / "clean_variants.py").read_text(),
        0, RECURSION_HOOKS, id="template-only",
    ),
    pytest.param(
        "class SearchEngine:\n    def run(self):\n        return None\n",
        1, LIFECYCLE_HOOKS, id="run-only",
    ),
]


@pytest.mark.parametrize("text, present, required", ONE_ANCHOR_SOURCES)
def test_hook_coverage_needs_both_engine_anchors(text, present, required):
    src = SourceFile("fixture.py", text)
    anchors = engine_anchors(src.tree)
    anchor = anchors[present]
    assert anchor is not None and anchors[1 - present] is None
    assert not set(required) <= set(
        hook_labels_of(normalize_function(anchor))
    )
    assert list(hook_coverage(src.tree, src.lines)) == []
    kept, _ = run_rules([src], [get_rule("REP013")])
    assert not [f for f in kept if ":hook:" in f.message], [
        f.format_text() for f in kept
    ]


#: Driver mutants that each drop every call site of one hook label.
#: ``(fragment, sites)`` pairs; a label with several sites (three
#: ``san.on_node`` calls, four ``kpivot`` prunes) only loses coverage
#: when all of them go.
HOOK_MUTANTS = [
    pytest.param(
        [("san.on_cover(depth, r, unexpanded, periphery)", 1)],
        "san:hook:on_cover", "recursion", id="san-cover",
    ),
    pytest.param(
        [("san.on_node(depth)", 1), ("san.on_node(depth1)", 2)],
        "san:hook:on_node", "recursion", id="san-node",
    ),
    pytest.param(
        [("san.on_context(color, edges)", 1)],
        "san:hook:on_context", "run lifecycle", id="san-context",
    ),
    pytest.param(
        [("san.on_finish(complete)", 1)],
        "san:hook:on_finish", "run lifecycle", id="san-finish",
    ),
    pytest.param(
        [("obs.on_expand(depth)", 2)],
        "obs:hook:on_expand", "recursion", id="obs-expand",
    ),
    pytest.param(
        [('obs.on_prune("mpivot", depth, len(unexpanded))', 1)],
        "obs:hook:on_prune:mpivot", "recursion", id="obs-prune-mpivot",
    ),
    pytest.param(
        [('obs.on_prune("size", depth)', 2)],
        "obs:hook:on_prune:size", "recursion", id="obs-prune-size",
    ),
    pytest.param(
        [('obs.on_prune("kpivot", depth)', 4)],
        "obs:hook:on_prune:kpivot", "recursion", id="obs-prune-kpivot",
    ),
    pytest.param(
        [('obs.on_phase("sanitize", sanitize_s)', 1)],
        "obs:hook:on_phase:sanitize", "run lifecycle",
        id="obs-phase-sanitize",
    ),
    pytest.param(
        [('obs.on_gauge("vertices_search", ops.search_size())', 1)],
        "obs:hook:on_gauge:vertices_search", "run lifecycle",
        id="obs-gauge-search",
    ),
    pytest.param(
        [("obs.on_finish(self.result.stats)", 1)],
        "obs:hook:on_finish", "run lifecycle", id="obs-finish",
    ),
    pytest.param(
        [("obs.on_root(root_index, len(roots), c)", 1)],
        "obs:hook:on_root", "run lifecycle", id="obs-root",
    ),
]


@pytest.mark.parametrize("cuts, label, where", HOOK_MUTANTS)
def test_rep013_names_each_dropped_hook(cuts, label, where):
    mutant = ENGINE_DRIVER.read_text()
    for fragment, sites in cuts:
        mutant = _neutralize(mutant, fragment, sites)
    kept = driver_rep013_findings(mutant)
    assert len(kept) == 1, [f.format_text() for f in kept]
    finding = kept[0]
    assert finding.rule == "REP013"
    assert f"the engine {where}" in finding.message
    assert f"`{label}`" in finding.message
    assert finding.message.count(":hook:") == 1
    assert finding.path == str(ENGINE_DRIVER)


def test_rep013_flags_a_hook_site_no_hooked_variant_keeps():
    # The on_expand site only survives under HOOKS both off and on,
    # which no legal key has: the hook kind is missing from every
    # hooked variant although the template still spells it out.
    kept = findings_for(
        """
        def _search_template(ops, san=None, obs=None):
            def search(r, depth):
                if HOOKS:
                    if obs is not None:
                        obs.on_node(depth, r)
                if not BITSET:
                    if not HOOKS:
                        if HOOKS:
                            if obs is not None:
                                obs.on_expand(depth)
                return None

            return search
        """,
        "REP013",
    )
    assert len(kept) == 1, [f.format_text() for f in kept]
    assert "`obs:hook:on_expand`" in kept[0].message
    assert "survives in no hooked variant" in kept[0].message
    assert kept[0].line == 11


def test_rep013_fires_when_production_variants_keep_hooks(monkeypatch):
    # Simulate a broken fold: every key folds the hooked body.
    from repro.engine import driver

    real_fold = driver.fold_record

    def hooked_fold(key, template=None):
        shape, _hooks = key
        module = real_fold((shape, True), template=template).module
        return driver.FoldRecord(key, driver._flag_env(key), module)

    monkeypatch.setattr(driver, "fold_record", hooked_fold)
    kept = driver_rep013_findings()
    assert any("hookless variant" in f.message for f in kept)


def test_rep013_reports_a_key_whose_fold_raises(monkeypatch):
    from repro.engine import driver

    def broken_fold(key, template=None):
        raise KeyError("NEW_FLAG")

    monkeypatch.setattr(driver, "fold_record", broken_fold)
    kept = driver_rep013_findings()
    assert kept
    assert all("no longer folds and compiles" in f.message for f in kept)
    assert "NEW_FLAG" in kept[0].message
    src = SourceFile.read(str(ENGINE_DRIVER))
    assert unproven_keys(src) == set(legal_variant_keys())


def test_mixed_flag_guard_is_reported_on_every_key():
    # The specializer folds bare flags only; a guard mixing a flag with
    # a runtime test stays in every variant, where the validator's own
    # folder disagrees with it.
    text = ENGINE_DRIVER.read_text()
    original = (
        "        if BITSET:\n"
        "            if depth == 1:\n"
        "                r_bits = bit_at[r[0]]\n"
    )
    assert text.count(original) == 1
    mutant = text.replace(
        original,
        "        if BITSET and depth == 1:\n"
        "            r_bits = bit_at[r[0]]\n",
    )
    src = SourceFile(str(ENGINE_DRIVER), mutant)
    assert unproven_keys(src) == set(legal_variant_keys())
    assert driver_rep013_findings(mutant)


# ----------------------------------------------------------------------
# seeded miscompile corpus (REP013)
# ----------------------------------------------------------------------
def test_clean_corpus_variants_are_proven():
    _src, kept = mutant_findings("clean_variants.py", "REP013")
    assert kept == [], [f.format_text() for f in kept]


def test_dropped_emission_is_caught_with_trace():
    src, kept = mutant_findings("dropped_emission.py", "REP013")
    emission = [f for f in kept if "lost an emission site" in f.message]
    assert len(emission) == 1
    finding = emission[0]
    assert "sink_call" in finding.message
    assert "template emits this at 1 site(s), the variant at 0" in (
        finding.message
    )
    # Source-to-sink trace: fold context first, template site last-but-
    # one, unreachable-site verdict at the sink.
    assert finding.trace[0]["note"].startswith("template folded under")
    assert "BITSET" in finding.trace[0]["note"]
    spec_step = finding.trace[-2]
    assert "template specifies" in spec_step["note"]
    assert "sink_call" in spec_step["text"]
    assert finding.trace[-1]["note"] == (
        "emission site unreachable in the folded variant"
    )
    structural = [f for f in kept if "drops the template's" in f.message]
    assert structural, [f.message for f in kept]
    assert finding.fingerprint


def test_reordered_kpivot_stop_is_caught():
    src, kept = mutant_findings("reordered_stop.py", "REP013")
    assert len(kept) == 1
    finding = kept[0]
    assert "reorders" in finding.message
    assert "if depth + popcount(c) < k" in finding.message
    # Anchored on the statement the variant ran too early.
    assert src.lines[finding.line - 1].strip() == "c_bits = c"
    assert any(
        "template specifies" in step["note"] for step in finding.trace
    )


def test_hook_leaked_into_hookless_variant_is_caught():
    _src, kept = mutant_findings("hook_leak.py", "REP013")
    leaks = [f for f in kept if "hookless variant" in f.message]
    assert leaks, [f.message for f in kept]
    assert any(
        "hook call `obs:hook:on_node` survives" in f.message
        for f in leaks
    )
    assert any(
        "still references the `obs` binding" in f.message for f in leaks
    )


def test_rep013_flags_missing_declared_variant():
    kept = findings_for(
        """
        VARIANT_ENVS = {"_variant_gone": {"HOOKS": False}}


        def _search_template(ops):
            pass
        """,
        "REP013",
    )
    assert len(kept) == 1
    assert "does not define it" in kept[0].message


# ----------------------------------------------------------------------
# frontier escape corpus (REP014)
# ----------------------------------------------------------------------
def test_frontier_escape_catches_all_three_legs():
    src, kept = mutant_findings("unpicklable_frontier.py", "REP014")
    assert len(kept) == 3, [f.format_text() for f in kept]

    worker = next(f for f in kept if "mutates state it received" in f.message)
    assert "'_run_shard'" in worker.message
    assert src.lines[worker.line - 1].strip().startswith("return pool.map(")
    notes = [step["note"] for step in worker.trace]
    assert any("received from the parent process" in n for n in notes)
    assert notes[-1] == "worker crosses the process boundary here"

    payload = next(f for f in kept if "dispatch payload" in f.message)
    assert "`open(...)` handle" in payload.message
    assert "Process" in src.lines[payload.line - 1]
    assert payload.trace[-1]["note"] == (
        "reaches the process boundary here"
    )

    frontier = next(f for f in kept if "root_state" in f.message)
    assert "lambda" in frontier.message
    assert src.lines[frontier.line - 1].strip().startswith("return {")
    assert frontier.trace[-1]["note"] == (
        "frontier state leaves root_state here"
    )
    assert all(f.fingerprint for f in kept)


def test_rep014_frontier_check_sees_fast_ops_backends():
    # A backend is recognized by root_state plus either hot path; the
    # kernel defines fast_ops only.
    kept = findings_for(
        """
        class BitsetOps:
            def root_state(self, v):
                seed = lambda w: (w, v)
                return (seed, 0)

            def fast_ops(self):
                return self
        """,
        "REP014",
    )
    assert len(kept) == 1, [f.format_text() for f in kept]
    assert "root_state" in kept[0].message
    assert "lambda" in kept[0].message


def test_rep014_is_silent_on_shipped_parallel_paths():
    for rel in ("core/partition.py", "analysis/runner.py"):
        src = SourceFile.read(str(SRC_REPRO / rel))
        kept, _ = run_rules([src], [get_rule("REP014")])
        assert kept == [], (rel, [f.format_text() for f in kept])


def test_rep014_pool_iterable_comprehension_is_parent_side():
    assert findings_for(
        """
        import multiprocessing


        def work(shard):
            return shard


        def run(shards):
            with multiprocessing.Pool() as pool:
                return pool.map(work, (s for s in shards))
        """,
        "REP014",
    ) == []


def test_rep014_materialized_generator_payload_is_clean():
    assert findings_for(
        """
        import multiprocessing


        def work(shard):
            return shard


        def run(shards):
            payload = tuple(s for s in shards)
            with multiprocessing.Pool() as pool:
                return pool.map(work, payload)
        """,
        "REP014",
    ) == []


def test_rep014_flags_lambda_worker_dispatch():
    kept = findings_for(
        """
        import multiprocessing


        def run(shards):
            job = lambda s: s
            with multiprocessing.Pool() as pool:
                return pool.map(job, shards)
        """,
        "REP014",
    )
    assert len(kept) == 1
    assert "lambda" in kept[0].message


def test_rep014_module_level_dispatch_of_a_module_level_worker_is_clean():
    # A module-level function pickles by name: it is no closure, even
    # when the dispatch itself sits at module level.
    assert findings_for(
        """
        from multiprocessing import Pool


        def work(x):
            return x


        if __name__ == "__main__":
            with Pool(2) as pool:
                print(pool.map(work, [1, 2]))
        """,
        "REP014",
    ) == []


@pytest.mark.parametrize(
    "header", ["with multiprocessing.Pool(2) as pool:", "for batch in items:"]
)
def test_rep014_reads_a_dispatch_in_a_body_in_its_own_env(header):
    # `payload` is a lambda at the header and a list at the dispatch;
    # only the dispatch's own env decides.
    code = f"""
        import multiprocessing


        def work(x):
            return x


        def run(pool, items):
            payload = lambda: 1
            {header}
                payload = list(items)
                return pool.map(work, payload)
        """
    assert findings_for(code, "REP014") == []
    kept = findings_for(code.replace("payload = list(items)", "pass"), "REP014")
    assert len(kept) == 1 and "lambda" in kept[0].message


def test_rep014_reads_a_dispatch_in_a_lambda_body_where_it_is_defined():
    kept = findings_for(
        """
        import multiprocessing


        def run(items):
            def job(x):
                return x
            go = lambda: multiprocessing.Pool(2).map(job, items)
            return go()
        """,
        "REP014",
    )
    assert [f.line for f in kept] == [8]
    assert "nested function `job`" in kept[0].message


# ----------------------------------------------------------------------
# REP014 worker writes on the escape summaries
# ----------------------------------------------------------------------
def test_rep014_strong_update_clears_recreated_state():
    assert findings_for(
        """
        import multiprocessing


        def worker(job):
            stats = job
            stats = {}
            stats["calls"] = 1
            return stats


        def run(jobs):
            with multiprocessing.Pool() as pool:
                return pool.map(worker, jobs)
        """,
        "REP014",
    ) == []


def test_rep014_flags_subscript_write_into_parent_state():
    kept = findings_for(
        """
        import multiprocessing


        def worker(job):
            graph, acc = job
            acc["calls"] = 1
            return graph


        def run(jobs):
            with multiprocessing.Pool() as pool:
                return pool.map(worker, jobs)
        """,
        "REP014",
    )
    assert len(kept) == 1
    assert "writes into 'acc', state received from the parent" in (
        kept[0].message
    )
    assert kept[0].trace
    assert kept[0].fingerprint


# ----------------------------------------------------------------------
# SARIF integration
# ----------------------------------------------------------------------
def test_sarif_carries_code_flows_for_rep013_and_rep014(tmp_path):
    code, text = run_cli(
        [
            str(MUTANTS / "dropped_emission.py"),
            str(MUTANTS / "unpicklable_frontier.py"),
            "--format=sarif",
        ]
    )
    assert code == 1
    payload = json.loads(text)
    results = payload["runs"][0]["results"]
    by_rule = {}
    for result in results:
        by_rule.setdefault(result["ruleId"], []).append(result)
    assert "REP013" in by_rule and "REP014" in by_rule
    for rule_id in ("REP013", "REP014"):
        flowed = [r for r in by_rule[rule_id] if "codeFlows" in r]
        assert flowed, rule_id
        for result in flowed:
            locations = result["codeFlows"][0]["threadFlows"][0][
                "locations"
            ]
            assert len(locations) >= 2
            assert "partialFingerprints" in result
    rules_meta = payload["runs"][0]["tool"]["driver"]["rules"]
    ids = {r["id"] for r in rules_meta}
    assert {"REP013", "REP014"} <= ids

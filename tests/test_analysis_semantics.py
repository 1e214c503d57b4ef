"""Translation validation (REP013), frontier escape (REP014), the
seeded variant-mutant corpus, the re-grounded REP006, the specializer
fold records, the salted cache manifest, and the semantics CLI gate.

The corpus in ``tests/fixtures/variant_mutants/`` is the acceptance
net: each file seeds exactly the miscompile class its name says, and
the tests assert both that REP013/REP014 fire and that the attached
source-to-sink trace names the true template site and variant site.
"""

import ast
import io
import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.registry import get_rule
from repro.analysis.runner import run_rules
from repro.analysis.semantics import (
    Difference,
    fold_guard,
    guards_equivalent,
    proven_keys,
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

    assert driver._SPEC_FLAGS == ("HOOKS", "BITSET", "WIDESCAN")
    assert [driver.variant_id(k) for k in driver.legal_variant_keys()] == [
        "generic",
        "generic+hooks",
        "bitset",
        "bitset+wide",
        "bitset+hooks",
        "bitset+hooks+wide",
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
def test_every_shipped_variant_is_proven_equivalent():
    from repro.engine import driver

    src = SourceFile.read(str(SRC_REPRO / "engine" / "driver.py"))
    counts = proven_keys(src.tree, src.lines)
    assert len(counts) == len(driver.legal_variant_keys())
    unproven = {k: n for k, n in counts.items() if n}
    assert unproven == {}


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


def test_rep013_flags_a_hook_site_no_hooked_variant_keeps():
    # The on_expand site only survives under BITSET off and WIDESCAN
    # on, which no legal key has: the hook kind is missing from every
    # hooked variant although the template still spells it out.
    kept = findings_for(
        """
        def _search_template(ops, san=None, obs=None):
            def search(r, depth):
                if HOOKS:
                    if obs is not None:
                        obs.on_node(depth, r)
                if not BITSET:
                    if WIDESCAN:
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
        shape, _hooks, wide = key
        module = real_fold((shape, True, wide), template=template).module
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
    assert all(proven_keys(src.tree, src.lines).values())


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
    counts = proven_keys(src.tree, src.lines)
    assert all(counts.values()), counts
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


def test_set_materialized_bitset_is_caught_by_escape_leg():
    src, kept = mutant_findings("set_materialized.py", "REP013")
    escapes = [f for f in kept if "materialized via `set(...)`" in f.message]
    assert escapes, [f.message for f in kept]
    variant_hit = [f for f in escapes if "`_variant_bitset`" in f.message]
    assert variant_hit
    finding = variant_hit[0]
    assert "bit-domain name `c_bits`" in finding.message
    assert src.lines[finding.line - 1].strip() == "probe = set(c_bits)"
    assert any("bitset materialized" in step["note"] for step in finding.trace)


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


# ----------------------------------------------------------------------
# REP006 on the escape summaries
# ----------------------------------------------------------------------
def test_rep006_strong_update_clears_recreated_state():
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
        "REP006",
    ) == []


def test_rep006_flags_subscript_write_into_parent_state():
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
        "REP006",
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
            "--no-baseline",
            "--no-cache",
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


# ----------------------------------------------------------------------
# cache tool salt
# ----------------------------------------------------------------------
def test_salt_manifest_covers_all_rule_semantics_sources():
    from repro.analysis.cache import salted_sources

    rels = {rel for rel, _blob in salted_sources()}
    for sub in ("rules", "flow", "semantics"):
        assert any(rel.startswith(sub + os.sep) for rel in rels), sub
    assert "<engine>/driver.py" in rels
    assert any(
        rel == os.path.join("semantics", "validate.py") for rel in rels
    )


def test_salted_sources_refuses_partial_package_walk(monkeypatch):
    import repro.analysis.cache as cache

    def partial():
        for rel, blob in original():
            if rel.split(os.sep)[0] != "semantics":
                yield rel, blob

    original = cache._iter_package_sources
    monkeypatch.setattr(cache, "_iter_package_sources", partial)
    with pytest.raises(RuntimeError, match="semantics"):
        cache.salted_sources()


@pytest.mark.parametrize("subpackage", ["rules", "semantics", "flow"])
def test_tool_salt_changes_when_analysis_sources_change(
    monkeypatch, subpackage
):
    import repro.analysis.cache as cache

    manifest = list(cache.salted_sources())
    monkeypatch.setattr(cache, "_tool_salt_memo", None)
    monkeypatch.setattr(cache, "salted_sources", lambda: manifest)
    before = cache.tool_salt()
    mutated = [
        (rel, blob + b"\n# edited" if rel.startswith(subpackage) else blob)
        for rel, blob in manifest
    ]
    assert mutated != manifest
    monkeypatch.setattr(cache, "_tool_salt_memo", None)
    monkeypatch.setattr(cache, "salted_sources", lambda: mutated)
    assert cache.tool_salt() != before


def test_tool_salt_changes_when_driver_changes(monkeypatch):
    import repro.analysis.cache as cache

    manifest = list(cache.salted_sources())
    monkeypatch.setattr(cache, "_tool_salt_memo", None)
    monkeypatch.setattr(cache, "salted_sources", lambda: manifest)
    before = cache.tool_salt()
    mutated = [
        (rel, blob + b"#" if rel == "<engine>/driver.py" else blob)
        for rel, blob in manifest
    ]
    monkeypatch.setattr(cache, "_tool_salt_memo", None)
    monkeypatch.setattr(cache, "salted_sources", lambda: mutated)
    assert cache.tool_salt() != before


# ----------------------------------------------------------------------
# the CLI gate
# ----------------------------------------------------------------------
def test_semantics_cli_proves_the_full_matrix():
    from repro.analysis.semantics.__main__ import main as sem_main
    from repro.engine import driver

    out = io.StringIO()
    code = sem_main([], out=out)
    text = out.getvalue()
    total = len(driver.legal_variant_keys())
    assert code == 0, text
    assert f"{total}/{total} variant keys proven equivalent" in text
    assert text.count("PROVEN") == total
    assert "FAILED" not in text


def test_semantics_cli_fails_on_unproven_variant(monkeypatch):
    import repro.analysis.semantics.validate as validate_mod
    from repro.analysis.semantics.__main__ import main as sem_main
    from repro.engine import driver

    key = driver.legal_variant_keys()[0]
    diff = Difference(
        "missing",
        "seeded validation failure",
        3,
        3,
        ({"line": 3, "col": 0, "text": "x = 1", "note": "seeded"},),
    )

    def broken(tree, lines):
        yield key, diff

    monkeypatch.setattr(
        validate_mod, "validate_template_source", broken
    )
    out = io.StringIO()
    code = sem_main([], out=out)
    text = out.getvalue()
    assert code == 1
    assert "FAILED" in text
    assert "seeded validation failure" in text
    assert "line 3: seeded" in text

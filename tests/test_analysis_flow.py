"""Flow-analysis core, the flow rules (REP010–REP012), the seeded
mutant corpus, and the satellites that ride on the flow layer: SARIF
output, fingerprints, suppressions and --jobs.

The mutant corpus in ``tests/fixtures/flow_mutants/`` is the
acceptance net: each file seeds exactly the bug class its name says,
and the tests assert both that the rule fires *and* that the attached
dataflow trace names the true source and sink.
"""

import ast
import io
import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.findings import Finding, flow_fingerprint
from repro.analysis.flow import build_cfg, cfgs_for, fixpoint
from repro.analysis.registry import get_rule
from repro.analysis.runner import analyze, run_rules
from repro.analysis.source import SourceFile

REPO = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO / "src" / "repro"
MUTANTS = Path(__file__).parent / "fixtures" / "flow_mutants"


def findings_for(code, rule_id, path="fixture.py"):
    src = SourceFile(path, textwrap.dedent(code))
    kept, _suppressed = run_rules([src], [get_rule(rule_id)])
    return kept


def assert_clean(code, rule_id):
    found = findings_for(code, rule_id)
    assert found == [], [f.format_text() for f in found]


def assert_flags(code, rule_id, count=1):
    found = findings_for(code, rule_id)
    assert len(found) == count, [f.format_text() for f in found]
    assert all(f.rule == rule_id for f in found)
    return found


def mutant_findings(name, rule_id):
    src = SourceFile.read(str(MUTANTS / name))
    kept, _ = run_rules([src], [get_rule(rule_id)])
    return src, kept


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# CFG core
# ----------------------------------------------------------------------
def _cfg_for(code):
    src = SourceFile("cfg_fixture.py", textwrap.dedent(code))
    funcs = [f for f, _ in cfgs_for(src).values() if f is not None]
    assert len(funcs) == 1
    return next(
        cfg for f, cfg in cfgs_for(src).values() if f is not None
    )


def test_cfg_branch_nodes_and_exceptional_exit():
    cfg = _cfg_for(
        """
        def f(x):
            if x > 0:
                y = work(x)
            else:
                y = 0
            return y
        """
    )
    kinds = {node.kind for node in cfg.nodes}
    assert "test" in kinds
    # The call statement can raise: it must have an edge that reaches
    # the exceptional exit.
    call_nodes = [
        n for n in cfg.nodes
        if n.stmt is not None and "work" in ast.dump(n.stmt)
    ]
    assert call_nodes
    assert any(cfg.raise_exit in n.succ for n in call_nodes)


def test_cfg_finally_nodes_are_tagged_with_their_try():
    cfg = _cfg_for(
        """
        def f(x):
            try:
                y = work(x)
            finally:
                cleanup()
            return y
        """
    )
    tagged = [n for n in cfg.nodes if n.finally_of is not None]
    assert tagged, "finally body nodes must carry finally_of"
    assert all(isinstance(n.finally_of, ast.Try) for n in tagged)


def test_fixpoint_joins_facts_across_branches():
    cfg = _cfg_for(
        """
        def f(flag):
            if flag:
                x = 1
            else:
                y = 2
            return 0
        """
    )

    def transfer(node, state):
        stmt = node.stmt
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.targets[0], ast.Name
        ):
            return state | {stmt.targets[0].id}
        return state

    before = fixpoint(cfg, frozenset(), transfer, frozenset.union)
    return_nodes = [
        n for n in cfg.nodes if isinstance(n.stmt, ast.Return)
    ]
    assert len(return_nodes) == 1
    # Both branch facts survive the merge.
    assert before[return_nodes[0].index] == frozenset({"x", "y"})


# ----------------------------------------------------------------------
# REP010 — probability-domain mixing
# ----------------------------------------------------------------------
def test_rep010_flags_mix_through_assignment():
    found = assert_flags(
        """
        def f(nlq, p):
            carried = nlq
            return carried + p
        """,
        "REP010",
    )
    message = found[0].message
    assert "log-domain name `nlq`" in message
    assert "linear-probability name `p`" in message
    notes = [step["note"] for step in found[0].trace]
    assert notes[-1] == "domains meet in arithmetic"


def test_rep010_flags_mix_through_tuple_unpacking():
    assert_flags(
        """
        def f(nlq, p):
            packed = (nlq, 3)
            a, b = packed
            return a < p
        """,
        "REP010",
    )


def test_rep010_flags_mix_through_container_round_trip():
    assert_flags(
        """
        def f(sv, p, w):
            vals = [sv[w]]
            x = vals[0]
            return x - p
        """,
        "REP010",
    )


def test_rep010_accepts_blessed_exp_conversion():
    assert_clean(
        """
        from math import exp

        def f(nlq, p):
            linear = exp(-nlq)
            return linear * p
        """,
        "REP010",
    )


def test_rep010_accepts_plain_log_as_ordinary_math():
    # Entropy terms etc.: log() consumes the probability and yields a
    # domain-free scalar, so no log/linear mix exists.
    assert_clean(
        """
        from math import log

        def f(p, q_weight):
            return p * log(p)
        """,
        "REP010",
    )


def test_rep010_flags_nlog_encoding_sources():
    assert_flags(
        """
        from math import log

        def f(p, eta):
            encoded = -log(p)
            return encoded <= eta
        """,
        "REP010",
    )


def test_rep010_strong_update_kills_taint():
    assert_clean(
        """
        def f(nlq, p):
            x = nlq
            x = 0
            return x + p
        """,
        "REP010",
    )


def test_rep010_taint_joins_across_branches():
    assert_flags(
        """
        def f(nlq, p, flag):
            x = 0
            if flag:
                x = nlq
            return x + p
        """,
        "REP010",
    )


# ----------------------------------------------------------------------
# REP011 — bitset escape
# ----------------------------------------------------------------------
def test_rep011_flags_direct_iteration():
    found = assert_flags(
        """
        def f(cand_bits):
            out = 0
            for w in cand_bits:
                out += w
            return out
        """,
        "REP011",
    )
    assert "iterated element-by-element" in found[0].message


def test_rep011_accepts_extraction_idiom_and_popcount():
    assert_clean(
        """
        def f(cand_bits, bit_at):
            total = popcount(cand_bits)
            while cand_bits:
                w = cand_bits.bit_length() - 1
                cand_bits ^= bit_at[w]
                total += w
            return total
        """,
        "REP011",
    )


def test_rep011_flags_list_materialization_through_alias():
    found = assert_flags(
        """
        def f(cand_bits):
            snapshot = cand_bits
            return list(snapshot)
        """,
        "REP011",
    )
    assert "materialized via `list(...)`" in found[0].message


# ----------------------------------------------------------------------
# REP012 — unrestored interpreter/global state
# ----------------------------------------------------------------------
def test_rep012_flags_env_write_without_finally():
    found = assert_flags(
        """
        import os

        def f(value, graph):
            os.environ["MODE"] = value
            return render(graph)
        """,
        "REP012",
    )
    assert "os.environ" in found[0].message


def test_rep012_accepts_env_write_restored_in_finally():
    assert_clean(
        """
        import os

        def f(value, graph):
            old = os.environ.get("MODE")
            os.environ["MODE"] = value
            try:
                return render(graph)
            finally:
                os.environ["MODE"] = old
        """,
        "REP012",
    )


def test_rep012_flags_global_mutation_before_raising_call():
    found = assert_flags(
        """
        TOTAL = 0

        def bump(graph):
            global TOTAL
            TOTAL = 1
            return render(graph)
        """,
        "REP012",
    )
    assert "global `TOTAL`" in found[0].message


def test_rep012_exempts_fill_once_memo_globals():
    assert_clean(
        """
        _CACHE = None

        def load():
            global _CACHE
            if _CACHE is None:
                _CACHE = expensive()
            return _CACHE
        """,
        "REP012",
    )


def test_rep012_reports_a_mutation_in_a_with_body_once_at_its_line():
    found = assert_flags(
        """
        import os

        def f(lock, value, graph):
            with lock:
                os.environ.update(MODE=value)
            return render(graph)
        """,
        "REP012",
    )
    assert found[0].line_text == "os.environ.update(MODE=value)"


def test_rep012_reports_a_mutation_in_a_for_body_once_at_its_line():
    found = assert_flags(
        """
        import os

        def f(names, graph):
            for name in names:
                os.environ.pop(name, None)
            return render(graph)
        """,
        "REP012",
    )
    assert found[0].line_text == "os.environ.pop(name, None)"


def test_rep012_does_not_report_a_nested_def_at_the_def_line():
    # The pop belongs to `clear`, and is reported there; the module
    # body only defines `clear`.
    found = assert_flags(
        """
        import os

        def clear(name, graph):
            os.environ.pop(name, None)
            return render(graph)

        clear("MODE", load())
        """,
        "REP012",
    )
    assert found[0].line_text == "os.environ.pop(name, None)"


def test_rep012_outer_local_shadowing_a_nested_global_is_silent():
    assert_clean(
        """
        X = 1

        def outer(graph):
            def inner():
                global X
                X = 3
            X = 2
            return render(graph, X)
        """,
        "REP012",
    )


@pytest.mark.parametrize(
    "shape, col",
    [
        ('os.environ.pop("MODE", None)', 4),
        ('if os.environ.pop("MODE", None):\n                pass', 7),
        ('while os.environ.pop("MODE", None):\n                pass', 10),
    ],
    ids=["statement", "if-test", "while-test"],
)
def test_rep012_reports_a_mutation_in_a_branch_test_as_in_a_statement(
    shape, col
):
    found = assert_flags(
        f"""
        import os

        def f(graph):
            {shape}
            return render(graph)
        """,
        "REP012",
    )
    assert (found[0].line, found[0].col) == (5, col)
    assert "os.environ" in found[0].message


def test_rep012_names_the_raising_call_in_a_with_body_as_the_escape():
    # A `with lock:` header evaluates only `lock`, which cannot raise;
    # the escape is the call in its body, with or without a nested def
    # before it.
    plain = """
        import sys

        def f(lock):
            sys.setrecursionlimit(5000)
            with lock:
                foo()
            sys.setrecursionlimit(1000)
        """
    nested = """
        import sys

        def f(lock):
            sys.setrecursionlimit(5000)
            with lock:
                def helper():
                    return 1
                foo()
            sys.setrecursionlimit(1000)
        """
    for code in (plain, nested):
        found = assert_flags(code, "REP012")
        assert found[0].trace[-1]["text"] == "foo()", found[0].trace


# ----------------------------------------------------------------------
# seeded mutant corpus: every mutant fires with the expected trace
# ----------------------------------------------------------------------
def test_mutant_variant_log_linear_mix_is_caught():
    src, found = mutant_findings("variant_log_linear_mix.py", "REP010")
    assert len(found) == 1, [f.format_text() for f in found]
    finding = found[0]
    # Anchored to the real source line of the template, not a variant
    # copy's synthetic position.
    assert src.line_text(finding.line) == "score = nlq + p_e  # log-domain nlq meets linear p_e"
    assert "log-domain name `nlq`" in finding.message
    assert "linear-probability name `p_e`" in finding.message
    notes = [step["note"] for step in finding.trace]
    assert "log-domain name `nlq`" in notes
    assert "linear-probability name `p_e`" in notes
    assert notes[-1] == "domains meet in arithmetic"
    assert finding.fingerprint


def test_mutant_variant_mix_invisible_without_folding():
    # Sanity: the sink line sits inside an `if BITSET:` arm, so the
    # finding can only come from a folded variant — the unfolded
    # template is never analyzed.
    src = SourceFile.read(str(MUTANTS / "variant_log_linear_mix.py"))
    from repro.analysis.rules.flow_domains import _function_units

    units = _function_units(src)
    names = [f.name for f, _ in units if f is not None]
    assert "_search_template" in names  # the folded variants
    # More units than the file's two syntactic scopes (module + the
    # template): variants were added.
    assert len(units) > 2


def test_mutant_bitset_escape_is_caught_twice_and_extraction_is_not():
    src, found = mutant_findings("bitset_set_escape.py", "REP011")
    assert len(found) == 2, [f.format_text() for f in found]
    by_verb = {f.message.split("; ")[0]: f for f in found}
    texts = sorted(f.line_text for f in found)
    assert texts == [
        "if cand_bits >> w & 1:  # REP011: per-index membership probe",
        "return set(leaked)  # REP011: materialized via set()",
    ]
    materialize = next(f for f in found if "materialized" in f.message)
    # The trace names the true source — the `cand_bits` reference in
    # the alias assignment — and the materializing sink.
    source, sink = materialize.trace[0], materialize.trace[-1]
    assert source["note"] == "bit-domain name `cand_bits`"
    assert source["text"] == "leaked = cand_bits"
    assert sink["note"] == "bitset materialized via `set(...)`"
    probe = next(f for f in found if "probed per-index" in f.message)
    assert "`>> w & 1`" in probe.message
    assert by_verb  # both shapes present


def test_mutant_unrestored_reclimit_fires_only_on_the_unsafe_twin():
    src, found = mutant_findings("unrestored_reclimit.py", "REP012")
    assert len(found) == 1, [f.format_text() for f in found]
    finding = found[0]
    assert finding.line_text == "sys.setrecursionlimit(needed)"
    assert "sys.setrecursionlimit" in finding.message
    # The trace names the mutation (source) and the escaping statement
    # (sink) — the raising call, not some later line.
    assert len(finding.trace) == 2
    source, sink = finding.trace
    assert source["note"] == "sys.setrecursionlimit mutated"
    assert "explore(graph)" in sink["text"]
    assert "escape" in sink["note"]
    # deepen_safe's mutation is inside the try/finally: silent.
    unsafe_line = finding.line
    deepen_safe_start = next(
        i for i, line in enumerate(src.lines, 1)
        if line.startswith("def deepen_safe")
    )
    assert unsafe_line < deepen_safe_start


def test_mutant_order_taint_chain_traces_the_last_assignment():
    src, found = mutant_findings("order_taint_chain.py", "REP001")
    assert len(found) == 1, [f.format_text() for f in found]
    finding = found[0]
    assert finding.line_text.startswith("for v in chosen:")
    assert len(finding.trace) == 2
    source, sink = finding.trace
    assert source["text"] == "chosen = staged"
    assert source["note"] == "unordered iterable assigned here"
    assert sink["note"] == "hash order leaks into ordered output"
    assert finding.fingerprint == flow_fingerprint(
        "REP001", "chosen = staged", finding.line_text
    )


# ----------------------------------------------------------------------
# negatives on real engine/kernel sources
# ----------------------------------------------------------------------
def test_flow_rules_clean_on_engine_and_kernel_sources():
    targets = [SRC_REPRO / "engine" / "driver.py"]
    targets += sorted((SRC_REPRO / "kernel").glob("*.py"))
    files = [SourceFile.read(str(p)) for p in targets]
    for rule_id in ("REP010", "REP011", "REP012"):
        kept, _suppressed = run_rules(files, [get_rule(rule_id)])
        assert kept == [], (
            rule_id,
            [f.format_text() for f in kept],
        )


def test_rep003_flow_extension_flags_taint_through_assignments():
    # Neither `carried` nor `cutoff` matches the name heuristic — the
    # syntactic pass is blind here; only the flow extension sees the
    # probability taint carried through the assignment chain.
    found = assert_flags(
        """
        def f(p_edge, cutoff):
            staged = p_edge
            carried = staged
            if carried == cutoff:
                return 1
            return 0
        """,
        "REP003",
    )
    finding = found[0]
    assert finding.trace, "flow extension must attach a trace"
    assert "probability taint" in finding.message
    assert "linear-probability name `p_edge`" in finding.message
    assert finding.fingerprint


def test_rep003_flow_extension_spares_structures_computed_from_eta():
    # A call named for a vertex or edge structure returns that
    # structure, whatever probability went in; the syntactic half still
    # reports a probability compared exactly.
    found = findings_for(
        """
        def f(g, k, eta, c, expected):
            assert topk_core_vertices(g, k, eta) == expected
            assert clique_probability(g, c) == 0.5
        """,
        "REP003",
    )
    assert [f.line for f in found] == [4], [f.format_text() for f in found]
    assert "'clique_probability(...)'" in found[0].message


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def _reclimit_code(prefix_lines=0):
    return ("# pad\n" * prefix_lines) + textwrap.dedent(
        """
        import sys

        def f(graph, needed):
            sys.setrecursionlimit(needed)
            return walk(graph)
        """
    )


def test_fingerprint_survives_line_moves(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(_reclimit_code())
    first = analyze([str(bad)]).findings
    bad.write_text(_reclimit_code(prefix_lines=7))
    second = analyze([str(bad)]).findings
    assert len(first) == len(second) == 1
    assert first[0].line != second[0].line
    assert first[0].fingerprint == second[0].fingerprint


def test_fixing_a_suppressed_finding_leaves_its_suppression_reported(
    tmp_path,
):
    bad = tmp_path / "mod.py"
    bad.write_text(
        _reclimit_code().replace(
            "    sys.setrecursionlimit(needed)\n",
            "    # repro-lint: ok REP012 caller restores the limit\n"
            "    sys.setrecursionlimit(needed)\n",
        )
    )
    report = analyze([str(bad)])
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["REP012"]
    # Fix the bug: wrap in try/finally.  The suppression now silences
    # nothing, and the scan says so.
    bad.write_text(
        textwrap.dedent(
            """
            import sys

            def f(graph, needed):
                old = sys.getrecursionlimit()
                # repro-lint: ok REP012 caller restores the limit
                sys.setrecursionlimit(needed)
                try:
                    return walk(graph)
                finally:
                    sys.setrecursionlimit(old)
            """
        )
    )
    code, text = run_cli([str(bad)])
    assert code == 1
    assert "SUPPRESS" in text and "silenced no REP012 finding" in text


def test_cli_env_exports_are_suppressed_inline():
    # The CLI's two process-wide REPRO_* exports are deliberate: each
    # carries an inline REP012 suppression, and each suppressed
    # finding keeps the fingerprint SARIF reports.
    report = analyze([str(SRC_REPRO / "cli.py")])
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["REP012"] * 2
    assert all(f.fingerprint for f in report.suppressed)


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
def test_cli_sarif_output_is_valid_and_carries_code_flows(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(_reclimit_code())
    code, text = run_cli(
        [str(bad), "--format=sarif"]
    )
    assert code == 1
    doc = json.loads(text)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert {"REP001", "REP010", "REP011", "REP012"} <= rule_ids
    results = run["results"]
    assert len(results) == 1
    result = results[0]
    assert result["ruleId"] == "REP012"
    assert result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1
    flow_locs = result["codeFlows"][0]["threadFlows"][0]["locations"]
    assert len(flow_locs) == 2  # mutation source + escaping sink
    assert result["partialFingerprints"]["reproFlowFingerprint/v1"]
    assert "suppressions" not in result


def test_sarif_marks_suppressed_results(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(values):\n"
        "    # repro-lint: ok REP001 order-insensitive\n"
        "    return [v for v in set(values)]\n"
    )
    code, text = run_cli(
        [str(bad), "--format=sarif"]
    )
    assert code == 0
    results = json.loads(text)["runs"][0]["results"]
    assert len(results) == 1
    assert results[0]["suppressions"] == [{"kind": "inSource"}]


# ----------------------------------------------------------------------
# --jobs: one parse per file, in the process that checks it
# ----------------------------------------------------------------------
def _report_dict(report):
    return {
        "findings": [f.as_dict() for f in report.findings],
        "suppressed": [f.as_dict() for f in report.suppressed],
        "files_scanned": report.files_scanned,
    }


def test_jobs_parallel_results_match_serial(tmp_path):
    # Suppression, its check and PARSE happen in the worker, so the
    # fixture holds one of each beside a plain finding.
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.py").write_text(
        "def f(values):\n    return [v for v in set(values)]\n"
    )
    (tree / "b.py").write_text(_reclimit_code())
    (tree / "c.py").write_text(
        "X = 1  # repro-lint: ok REP001 nothing iterates here\n"
    )
    (tree / "d.py").write_text(
        "def f(values):\n"
        "    # repro-lint: ok REP001 order-insensitive\n"
        "    return [v for v in set(values)]\n"
    )
    (tree / "e_broken.py").write_text("def f(:\n")
    serial = analyze([str(tree)])
    parallel = analyze([str(tree)], jobs=2)
    assert _report_dict(serial) == _report_dict(parallel)
    assert [f.rule for f in serial.findings] == [
        "REP001", "REP012", "SUPPRESS", "PARSE",
    ]
    assert [f.rule for f in serial.suppressed] == ["REP001"]
    assert serial.files_scanned == 5


def test_parallel_analyze_parses_nothing_in_the_calling_process(
    tmp_path, monkeypatch
):
    # Workers parse; the caller only collects paths and concatenates
    # the per-file results.
    for name in ("a.py", "b.py", "c.py"):
        (tmp_path / name).write_text(
            "def f(values):\n    return [v for v in set(values)]\n"
        )
    caller = os.getpid()
    parsed_here = []
    real_init = SourceFile.__init__

    def recording_init(self, path, text):
        if os.getpid() == caller:
            parsed_here.append(path)
        real_init(self, path, text)

    monkeypatch.setattr(SourceFile, "__init__", recording_init)
    report = analyze([str(tmp_path)], jobs=2)
    assert parsed_here == []
    assert [f.rule for f in report.findings] == ["REP001"] * 3


def test_cli_rejects_bad_jobs_value(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    code, _ = run_cli([str(clean), "--jobs", "0"])
    assert code == 2


# ----------------------------------------------------------------------
# the flow-domain pass: one per file, walrus scopes, x op= y
# ----------------------------------------------------------------------
def test_one_flow_domain_pass_per_file(monkeypatch):
    # Every rule on the engine driver: REP003, REP010, REP011 and REP013
    # share one fold per legal key and one module-summary set.
    from repro.analysis.flow import ModuleSummaries
    from repro.analysis.registry import all_rules
    from repro.engine import driver

    folds, summaries = [], []
    real_fold = driver.fold_record
    real_compute = ModuleSummaries.compute

    def counting_fold(key, template=None):
        folds.append(key)
        return real_fold(key, template=template)

    def counting_compute(self, src, make_analysis):
        summaries.append(src.path)
        return real_compute(self, src, make_analysis)

    monkeypatch.setattr(driver, "fold_record", counting_fold)
    monkeypatch.setattr(ModuleSummaries, "compute", counting_compute)
    src = SourceFile.read(str(SRC_REPRO / "engine" / "driver.py"))
    run_rules([src], all_rules())
    assert sorted(folds) == sorted(driver.legal_variant_keys())
    assert summaries == [src.path]


def test_node_index_keeps_ast_walk_order():
    src = SourceFile.read(str(SRC_REPRO / "engine" / "driver.py"))
    walk = list(ast.walk(src.tree))
    assert src.nodes(*{type(node) for node in walk}) == walk
    assert src.nodes(ast.AsyncFunctionDef, ast.FunctionDef) == [
        node for node in walk
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_rules_never_walk_the_whole_module(monkeypatch):
    # The one walk over each tree is SourceFile's own, which builds the
    # parent map and the node index; every rule reads those.
    from repro.analysis.registry import all_rules

    real_walk = ast.walk
    for rel in ("core/partition.py", "engine/driver.py", "store/key.py"):
        src = SourceFile.read(str(SRC_REPRO / rel))
        module_walks = []

        def counting_walk(node, tree=src.tree, seen=module_walks):
            if node is tree:
                seen.append(node)
            return real_walk(node)

        monkeypatch.setattr(ast, "walk", counting_walk)
        run_rules([src], all_rules())
        monkeypatch.setattr(ast, "walk", real_walk)
        assert len(module_walks) == 0, rel


def test_rep010_walrus_in_a_nested_def_stays_in_its_scope():
    # `total :=` binds inside `inner`; the outer `total` is still 1.0.
    assert_clean(
        """
        import math

        def outer(eta):
            total = 1.0
            def inner(p):
                return (total := -math.log(p))
            return total * eta
        """,
        "REP010",
    )


def test_rep010_walrus_in_a_with_body_binds_at_its_own_statement():
    # The `with` header does not evaluate its body, so `acc` is not yet
    # log-tainted when `acc * eta` runs.
    assert_clean(
        """
        import math

        def f(lock, eta, p):
            acc = 1.0
            with lock:
                scaled = acc * eta
                (acc := -math.log(p))
            return scaled
        """,
        "REP010",
    )


def test_rep010_flags_augmented_assignment_mix():
    found = assert_flags(
        """
        def bump(eta, w, sv):
            sv[w] += eta
        """,
        "REP010",
    )
    assert found[0].line_text == "sv[w] += eta"
    assert found[0].message.endswith(
        "in arithmetic; convert with exp()/-log() first"
    )


def test_rep010_augmented_assignment_trace_starts_at_its_own_line():
    found = assert_flags(
        """
        import math

        def bump(eta, w, sv):
            sv[w] += 1
            return sv[w] * eta
        """,
        "REP010",
    )
    source = found[0].trace[0]
    assert (source["line"], source["col"], source["text"]) == (
        5, 4, "sv[w] += 1"
    )
    assert "log-domain name `sv`, line 5" in found[0].message
    assert found[0].fingerprint == flow_fingerprint(
        "REP010", "sv[w] += 1", "return sv[w] * eta"
    )


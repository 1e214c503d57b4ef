"""Self-scan, engine conformance (REP005), CLI and suppression behaviour.

The self-scan is the analyzer's own acceptance test: the committed
tree must be clean modulo its inline suppressions, every suppression
must silence a finding, and the scan must actually see the engine
anchors and the backend StateOps classes — a silent REP005, or a
REP013 hook-coverage check with no anchors to check, would be a hole
in the conformance net.
"""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.registry import get_rule
from repro.analysis.runner import analyze, collect_files, run_rules
from repro.analysis.semantics.validate import engine_anchors
from repro.analysis.source import SourceFile
from repro.engine.protocol import PROTOCOL_METHODS, validate_state_ops

REPO = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO / "src" / "repro"
ENGINE_DRIVER = SRC_REPRO / "engine" / "driver.py"
DICT_BACKEND = SRC_REPRO / "core" / "pmuc.py"
KERNEL_BACKEND = SRC_REPRO / "kernel" / "enumerate.py"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# self-scan
# ----------------------------------------------------------------------
def test_src_repro_is_clean():
    # The one full-tree scan of the suite, run the way CI runs it.  A
    # suppression that silenced nothing would be a SUPPRESS finding.
    code, text = run_cli([str(SRC_REPRO), "--jobs", "2", "--format=json"])
    payload = json.loads(text)
    assert payload["findings"] == [], payload["findings"]
    assert code == 0
    assert payload["files_scanned"] > 50
    # Nine in the library, one REP001 in random_graphs.py and two
    # REP012 on the CLI's environment exports.
    assert len(payload["suppressed"]) == 12


def test_self_scan_sees_the_engine_anchors():
    driver_files = [
        SourceFile.read(path)
        for path in collect_files([str(SRC_REPRO)])
        if path.endswith("driver.py")
    ]
    anchored = [
        src
        for src in driver_files
        if all(a is not None for a in engine_anchors(src.tree))
    ]
    assert len(anchored) == 1, [src.path for src in driver_files]
    assert anchored[0].path == str(ENGINE_DRIVER)


def test_self_scan_sees_both_stateops_backends():
    # Both committed backend classes subclass StateOps and pass the
    # full-protocol check — REP005 stays silent on them while still
    # *seeing* them (a half-implemented copy fires; see below).
    for path in (DICT_BACKEND, KERNEL_BACKEND):
        src = SourceFile.read(str(path))
        assert "(StateOps)" in src.text, path
        kept, _ = run_rules([src], [get_rule("REP005")])
        assert kept == []


# ----------------------------------------------------------------------
# REP005 fires on protocol gaps and private recursion copies
# ----------------------------------------------------------------------
def _rep005_findings(path, text):
    kept, _ = run_rules([SourceFile(path, text)], [get_rule("REP005")])
    return kept


def test_rep005_fires_on_an_incomplete_stateops_subclass():
    text = (
        "from repro.engine.protocol import StateOps\n"
        "class HalfOps(StateOps):\n"
        "    name = 'half'\n"
        "    def roots(self, seeds):\n"
        "        return []\n"
    )
    found = _rep005_findings("src/repro/core/half.py", text)
    assert len(found) == 1
    assert found[0].rule == "REP005"
    assert "HalfOps" in found[0].message
    assert "prepare_reduction" in found[0].message
    assert "log_domain" in found[0].message


@pytest.mark.parametrize(
    "hot_paths,verdict",
    (
        (("search_ops", "fast_ops"), "defines both hot paths"),
        ((), "defines no hot path"),
    ),
)
def test_rep005_requires_exactly_one_hot_path(hot_paths, verdict):
    body = "".join(
        f"    def {name}(self):\n        return None\n"
        for name in PROTOCOL_METHODS + hot_paths
    )
    text = (
        "from repro.engine.protocol import StateOps\n"
        "class TwoPathOps(StateOps):\n"
        "    name = 'two'\n"
        "    log_domain = False\n"
        "    unit = 1\n" + body
    )
    found = _rep005_findings("src/repro/core/two.py", text)
    assert len(found) == 1
    assert verdict in found[0].message


def test_a_backend_wires_no_hook_and_no_sink():
    # The engine wires the hooks and the sink from ``StateOps.labels``
    # (the base's None, or an id -> label table that prepare_ordering
    # sets), so a backend needs no bind_* method, statically or at
    # run time.
    body = "".join(
        f"    def {name}(self, *args):\n        return None\n"
        for name in (
            "prepare_reduction", "prepare_ordering", "search_size",
            "context", "roots", "root_state", "fast_ops",
        )
    )
    text = (
        "from repro.engine.protocol import StateOps\n"
        "class LeanOps(StateOps):\n"
        "    name = 'lean'\n"
        "    log_domain = False\n"
        "    unit = 1\n" + body
    )
    assert _rep005_findings("src/repro/core/lean.py", text) == []
    namespace = {}
    exec(compile(text, "lean.py", "exec"), namespace)
    ops = namespace["LeanOps"]()
    ops.graph = None
    validate_state_ops(ops)
    assert ops.labels is None


def test_rep005_fires_on_a_recursion_copy_outside_the_engine():
    rogue = ENGINE_DRIVER.read_text().replace(
        "def build_search", "def rebuilt_search"
    )
    found = _rep005_findings("src/repro/core/rogue.py", rogue)
    assert len(found) == 1
    assert "private copy of the engine recursion" in found[0].message


def test_rep005_silent_on_the_engine_itself_and_the_framework():
    # The engine package is the one place the recursion may live, and
    # the hereditary framework's Algorithm-2 search (M-pivot only, no
    # size accounting) is deliberately exempt.
    for path in (
        ENGINE_DRIVER,
        SRC_REPRO / "hereditary" / "framework.py",
    ):
        src = SourceFile.read(str(path))
        kept, _ = run_rules([src], [get_rule("REP005")])
        assert kept == [], (path, kept)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_random_graphs_finding_is_reported_without_its_suppression(tmp_path):
    text = (SRC_REPRO / "datasets" / "random_graphs.py").read_text()
    marker = "# repro-lint: ok REP001 "
    assert text.count(marker) == 1
    copy = tmp_path / "random_graphs.py"
    copy.write_text(text.replace(marker, "# "))
    code, out = run_cli([str(copy)])
    assert code == 1
    assert "REP001" in out and "random_graphs.py" in out
    assert run_cli([str(SRC_REPRO / "datasets" / "random_graphs.py")])[0] == 0


def test_cli_list_rules_prints_the_catalog():
    code, text = run_cli(["--list-rules"])
    assert code == 0
    listed = [line.split()[0] for line in text.splitlines() if line.strip()]
    assert listed == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP010",
        "REP011", "REP012", "REP013", "REP014", "REP015",
    ]


def test_cli_json_output_is_machine_readable(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(values):\n    return [v for v in set(values)]\n")
    code, text = run_cli([str(bad), "--format=json"])
    assert code == 1
    payload = json.loads(text)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "REP001"
    assert payload["files_scanned"] == 1


def test_cli_missing_path_is_a_usage_error(tmp_path):
    code, _ = run_cli([str(tmp_path / "does-not-exist")])
    assert code == 2


# ----------------------------------------------------------------------
# GitHub Actions output format
# ----------------------------------------------------------------------
def test_cli_github_format_emits_error_annotations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(values):\n    return [v for v in set(values)]\n")
    code, text = run_cli([str(bad), "--format=github"])
    assert code == 1
    annotation = next(
        line for line in text.splitlines() if line.startswith("::error ")
    )
    assert f"file={bad}" in annotation
    assert "line=2," in annotation
    assert "title=REP001" in annotation
    assert "::nondeterministic" not in annotation  # message after '::'
    assert "1 finding(s)" in text


def test_cli_github_format_annotates_an_unused_suppression(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1  # repro-lint: ok REP001 nothing iterates here\n")
    code, text = run_cli([str(clean), "--format=github"])
    assert code == 1
    assert "::error " in text
    assert "title=SUPPRESS" in text
    assert "silenced no REP001 finding" in text


def test_github_escaping_of_workflow_command_payloads():
    from repro.analysis.cli import _gh_escape_data, _gh_escape_prop

    assert _gh_escape_data("a%b\nc\rd") == "a%25b%0Ac%0Dd"
    # Property values additionally escape ':' and ',' (the command's
    # own delimiters); message data must not, or text gets mangled.
    assert _gh_escape_prop("a:b,c") == "a%3Ab%2Cc"
    assert _gh_escape_data("a:b,c") == "a:b,c"


# ----------------------------------------------------------------------
# suppressions: each names its rule ids and a reason, and silences one
# ----------------------------------------------------------------------
def _suppress_findings(tmp_path, text):
    path = tmp_path / "mod.py"
    path.write_text(text)
    report = analyze([str(path)])
    return [f for f in report.findings if f.rule == "SUPPRESS"], report


def test_a_suppression_that_silences_nothing_is_a_finding(tmp_path):
    found, report = _suppress_findings(
        tmp_path, "X = 1  # repro-lint: ok REP001 nothing iterates here\n"
    )
    assert [(f.line, f.col) for f in found] == [(1, 7)]
    assert "silenced no REP001 finding" in found[0].message
    assert found[0].severity.value == "error"
    assert not report.ok


def test_a_suppression_naming_an_idle_rule_beside_a_used_one(tmp_path):
    found, report = _suppress_findings(
        tmp_path,
        "def f(values):\n"
        "    # repro-lint: ok REP001 REP003 order-insensitive\n"
        "    return [v for v in set(values)]\n",
    )
    assert [f.rule for f in report.suppressed] == ["REP001"]
    assert [f.line for f in found] == [2]
    assert "silenced no REP003 finding" in found[0].message


def test_a_suppression_without_a_rule_id_is_a_finding(tmp_path):
    # A bare marker silences nothing: the REP001 finding stays.
    found, report = _suppress_findings(
        tmp_path,
        "def f(values):\n"
        "    # repro-lint: ok order-insensitive\n"
        "    return [v for v in set(values)]\n",
    )
    assert [f.line for f in found] == [2]
    assert "names no rule id" in found[0].message
    assert [f.rule for f in report.findings] == ["SUPPRESS", "REP001"]
    assert report.suppressed == []


def test_a_suppression_without_a_reason_is_a_finding(tmp_path):
    found, report = _suppress_findings(
        tmp_path,
        "def f(values):\n"
        "    # repro-lint: ok REP001\n"
        "    return [v for v in set(values)]\n",
    )
    assert [f.line for f in found] == [2]
    assert "gives no reason" in found[0].message
    assert [f.rule for f in report.suppressed] == ["REP001"]
    code, _ = run_cli([str(tmp_path / "mod.py")])
    assert code == 1


@pytest.mark.parametrize(
    "literal",
    (
        '"# repro-lint: ok REP003 exact sentinel"',
        'f"# repro-lint: ok REP003 exact sentinel {p}"',
        '"""\n# repro-lint: ok REP003 exact sentinel\n"""',
    ),
    ids=("str", "f-string", "multi-line"),
)
def test_a_marker_inside_a_string_literal_is_no_suppression(
    tmp_path, literal
):
    # Only a comment suppresses: the REP003 finding on line 2 stays,
    # and string content is no unused suppression either.
    found, report = _suppress_findings(
        tmp_path, "def f(p):\n    return p == 0.5, " + literal + "\n"
    )
    assert found == []
    assert [(f.rule, f.line) for f in report.findings] == [("REP003", 2)]
    assert report.suppressed == []


def test_a_comment_after_a_marker_in_a_string_still_suppresses(tmp_path):
    found, report = _suppress_findings(
        tmp_path,
        "def f(p):\n"
        '    return p == 0.5, "# repro-lint: ok REP001 text"'
        "  # repro-lint: ok REP003 exact sentinel\n",
    )
    assert found == []
    assert [(f.rule, f.line) for f in report.suppressed] == [("REP003", 2)]
    assert report.findings == []


def test_an_unused_suppression_exits_1(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1  # repro-lint: ok REP001 nothing iterates here\n")
    code, _ = run_cli([str(clean)])
    assert code == 1


def test_cli_text_summary_reports_an_unused_suppression(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1  # repro-lint: ok REP001 nothing iterates here\n")
    _, text = run_cli([str(clean)])
    assert f"{clean}:1:7: SUPPRESS error:" in text
    assert "silenced no REP001 finding" in text
    assert "1 finding(s) (0 suppressed)" in text


# ----------------------------------------------------------------------
# syntax errors degrade to PARSE findings, not aborted runs
# ----------------------------------------------------------------------
def test_syntax_error_yields_parse_finding_and_scan_continues(tmp_path):
    broken = tmp_path / "a_broken.py"
    broken.write_text("def f(:\n")
    bad = tmp_path / "b_bad.py"
    bad.write_text("def f(values):\n    return [v for v in set(values)]\n")
    report = analyze([str(tmp_path)])
    assert report.files_scanned == 2
    rules = [f.rule for f in report.findings]
    assert "PARSE" in rules, rules
    # The parseable file was still analyzed despite its broken sibling.
    assert "REP001" in rules, rules
    parse = next(f for f in report.findings if f.rule == "PARSE")
    assert parse.path == str(broken)
    assert parse.severity.value == "error"

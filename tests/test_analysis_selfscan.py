"""Self-scan, engine conformance (REP005) and CLI/baseline behaviour.

The self-scan is the analyzer's own acceptance test: the committed
tree must be clean modulo the committed baseline, and the scan must
actually see the engine anchors and the backend StateOps classes — a
silent REP005, or a REP013 hook-coverage check with no anchors to
check, would be a hole in the conformance net.
"""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.cli import main
from repro.analysis.registry import get_rule
from repro.analysis.runner import analyze, collect_files, run_rules
from repro.analysis.semantics.validate import engine_anchors
from repro.analysis.source import SourceFile
from repro.engine.protocol import PROTOCOL_METHODS

REPO = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO / "src" / "repro"
BASELINE = REPO / "repro-lint.baseline.json"
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
def test_src_repro_is_clean_modulo_baseline():
    # The one full-tree scan of the suite, run the way CI runs it.
    code, text = run_cli(
        [
            str(SRC_REPRO),
            "--baseline",
            str(BASELINE),
            "--fail-on-stale",
            "--jobs",
            "2",
            "--format=json",
        ]
    )
    payload = json.loads(text)
    assert payload["findings"] == [], payload["findings"]
    assert code == 0
    assert payload["files_scanned"] > 50
    # The committed baseline must stay minimal and fully used.
    assert payload["unused_baseline"] == []
    # One REP001 (random_graphs) + three REP012 (cli.py env plumbing).
    assert len(payload["grandfathered"]) == 4


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
def test_cli_without_baseline_reports_the_grandfathered_finding():
    code, text = run_cli(
        [str(SRC_REPRO / "datasets" / "random_graphs.py"), "--no-baseline"]
    )
    assert code == 1
    assert "random_graphs.py" in text


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
    code, text = run_cli([str(bad), "--no-baseline", "--format=json"])
    assert code == 1
    payload = json.loads(text)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "REP001"
    assert payload["files_scanned"] == 1


def test_cli_missing_path_is_a_usage_error(tmp_path):
    code, _ = run_cli([str(tmp_path / "does-not-exist")])
    assert code == 2


def test_cli_baseline_pointing_at_a_directory_is_a_usage_error(tmp_path):
    """`--baseline <dir>` must exit 2 cleanly, not crash with a traceback.

    Regression test for the CI invocation bug where `--baseline
    src/repro` made argparse consume the scan path as the baseline
    file and Baseline.load raised IsADirectoryError.
    """
    code, _ = run_cli(["--baseline", str(tmp_path), str(SRC_REPRO)])
    assert code == 2


def test_cli_write_baseline_roundtrips(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(p):\n"
        "    if p == 0.25:\n"
        "        return [v for v in set(range(3))]\n"
    )
    skeleton = tmp_path / "baseline.json"
    code, _ = run_cli(
        [str(bad), "--no-baseline", "--write-baseline", str(skeleton)]
    )
    assert code == 0
    # The skeleton grandfathers both findings once justified.
    payload = json.loads(skeleton.read_text())
    assert len(payload["findings"]) == 2
    for entry in payload["findings"]:
        entry["justification"] = "pinned by the round-trip test"
    skeleton.write_text(json.dumps(payload))
    code, text = run_cli([str(bad), "--baseline", str(skeleton)])
    assert code == 0
    assert "(2 baselined" in text


def test_cli_write_baseline_preserves_grandfathered_entries(tmp_path):
    """Regenerating over an existing baseline keeps its entries —
    with their hand-written justifications — instead of silently
    dropping everything already grandfathered."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(p):\n"
        "    if p == 0.25:\n"
        "        return [v for v in set(range(3))]\n"
    )
    first = tmp_path / "first.json"
    code, _ = run_cli(
        [str(bad), "--no-baseline", "--write-baseline", str(first)]
    )
    assert code == 0
    payload = json.loads(first.read_text())
    for entry in payload["findings"]:
        entry["justification"] = "kept across regeneration"
    first.write_text(json.dumps(payload))
    # Regenerate against the justified baseline: every finding is now
    # grandfathered, yet the new file must still contain all of them
    # with the original justifications.
    second = tmp_path / "second.json"
    code, _ = run_cli(
        [str(bad), "--baseline", str(first), "--write-baseline", str(second)]
    )
    assert code == 0
    regenerated = json.loads(second.read_text())
    assert len(regenerated["findings"]) == len(payload["findings"]) == 2
    for entry in regenerated["findings"]:
        assert entry["justification"] == "kept across regeneration"


# ----------------------------------------------------------------------
# GitHub Actions output format
# ----------------------------------------------------------------------
def test_cli_github_format_emits_error_annotations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(values):\n    return [v for v in set(values)]\n")
    code, text = run_cli([str(bad), "--no-baseline", "--format=github"])
    assert code == 1
    annotation = next(
        line for line in text.splitlines() if line.startswith("::error ")
    )
    assert f"file={bad}" in annotation
    assert "line=2," in annotation
    assert "title=REP001" in annotation
    assert "::nondeterministic" not in annotation  # message after '::'
    assert "1 finding(s)" in text


def test_cli_github_format_notices_stale_baseline_entries(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    code, text = run_cli(
        [str(clean), "--baseline", str(BASELINE), "--format=github"]
    )
    assert code == 0
    assert "::notice " in text
    assert "stale baseline entry" in text
    assert "--prune-stale" in text


def test_github_escaping_of_workflow_command_payloads():
    from repro.analysis.cli import _gh_escape_data, _gh_escape_prop

    assert _gh_escape_data("a%b\nc\rd") == "a%25b%0Ac%0Dd"
    # Property values additionally escape ':' and ',' (the command's
    # own delimiters); message data must not, or text gets mangled.
    assert _gh_escape_prop("a:b,c") == "a%3Ab%2Cc"
    assert _gh_escape_data("a:b,c") == "a:b,c"


# ----------------------------------------------------------------------
# stale baseline entries: summary note and --prune-stale
# ----------------------------------------------------------------------
def test_cli_text_summary_flags_stale_entries(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    code, text = run_cli([str(clean), "--baseline", str(BASELINE)])
    assert code == 0
    assert "4 stale baseline entries (--prune-stale drops them)" in text


def test_cli_prune_stale_rewrites_the_baseline(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    copy = tmp_path / "baseline.json"
    copy.write_text(BASELINE.read_text())
    code, text = run_cli(
        [str(clean), "--baseline", str(copy), "--prune-stale"]
    )
    assert code == 0
    assert "pruned 4 stale entries" in text
    # The rewritten file is empty and the post-prune summary no longer
    # carries the stale note.
    assert json.loads(copy.read_text())["findings"] == []
    assert "stale baseline" not in text
    # The committed baseline itself was never touched.
    assert json.loads(BASELINE.read_text())["findings"]


def test_cli_prune_stale_keeps_live_entries_and_justifications(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(p):\n"
        "    if p == 0.25:\n"
        "        return [v for v in set(range(3))]\n"
    )
    baseline = tmp_path / "baseline.json"
    code, _ = run_cli(
        [str(bad), "--no-baseline", "--write-baseline", str(baseline)]
    )
    assert code == 0
    payload = json.loads(baseline.read_text())
    assert len(payload["findings"]) == 2
    for entry in payload["findings"]:
        entry["justification"] = "kept across the prune"
    baseline.write_text(json.dumps(payload))
    # Fix the REP003 comparison; its baseline entry goes stale while
    # the REP001 one stays live.
    bad.write_text(
        "def f(p):\n"
        "    if p >= 0.25:\n"
        "        return [v for v in set(range(3))]\n"
    )
    code, text = run_cli(
        [str(bad), "--baseline", str(baseline), "--prune-stale"]
    )
    assert code == 0
    assert "pruned 1 stale entry" in text
    assert "(1 kept)" in text
    kept = json.loads(baseline.read_text())["findings"]
    assert len(kept) == 1
    assert kept[0]["rule"] == "REP001"
    assert kept[0]["justification"] == "kept across the prune"


def test_cli_prune_stale_without_baseline_is_a_usage_error(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    code, _ = run_cli([str(clean), "--no-baseline", "--prune-stale"])
    assert code == 2


def test_cli_fail_on_stale_turns_stale_entries_into_exit_1(tmp_path, capsys):
    # Against a clean file the committed baseline's single entry is
    # stale; CI's --fail-on-stale makes that a hard failure instead of
    # the default informational note.
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    code, text = run_cli(
        [str(clean), "--baseline", str(BASELINE), "--fail-on-stale"]
    )
    assert code == 1
    assert "unused baseline entry" in text
    assert "--prune-stale" in capsys.readouterr().err


# ----------------------------------------------------------------------
# baseline semantics
# ----------------------------------------------------------------------
def test_baseline_requires_justifications(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "findings": [
                    {
                        "rule": "REP001",
                        "path": "x.py",
                        "line_text": "for v in s:",
                        "justification": "   ",
                    }
                ]
            }
        )
    )
    with pytest.raises(BaselineError, match="justification"):
        Baseline.load(str(path))
    code, _ = run_cli(["--baseline", str(path), str(SRC_REPRO)])
    assert code == 2


def test_baseline_matching_survives_line_moves(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "def f(values):\n    return [v for v in set(values)]\n"
    )
    entries = Baseline.load(str(BASELINE)).entries
    assert entries, "committed baseline unexpectedly empty"
    report = analyze([str(bad)], baseline=Baseline.load(str(BASELINE)))
    # Unrelated entries never match; the finding stays new, the entry
    # is reported unused.
    assert len(report.findings) == 1
    assert len(report.unused_baseline) == len(entries)


def test_unused_baseline_entries_are_reported(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    code, text = run_cli([str(clean), "--baseline", str(BASELINE)])
    assert code == 0
    assert "unused baseline entry" in text


def test_baseline_parent_dir_path_does_not_match(tmp_path):
    """'../pkg/mod.py' points outside the tree — it must not match
    'pkg/mod.py' (lstrip('./') used to strip the leading dots)."""
    from repro.analysis.baseline import _same_path

    assert not _same_path("../pkg/mod.py", "pkg/mod.py")
    assert not _same_path("pkg/mod.py", "../pkg/mod.py")
    assert _same_path("./pkg/mod.py", "pkg/mod.py")
    assert _same_path("src/pkg/mod.py", "pkg/mod.py")
    assert _same_path("../pkg/mod.py", "../pkg/mod.py")


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

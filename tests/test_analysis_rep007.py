"""REP007 — engine sanitizer-hook coverage.

With one recursion left (the engine driver), the old backend-parity
tests become coverage tests: the committed engine must call every
sanitizer hook the runtime checks depend on, and neutralizing the hook
calls in ``repro.engine.driver`` must make the rule fire and name the
missing hook.
"""

from pathlib import Path

from repro.analysis.fingerprint import hook_labels
from repro.analysis.registry import get_rule
from repro.analysis.rules.conformance import find_engine_anchors
from repro.analysis.rules.sanitizer import DRIVER_HOOKS, RECURSION_HOOKS
from repro.analysis.runner import run_rules
from repro.analysis.source import SourceFile

REPO = Path(__file__).resolve().parents[1]
ENGINE_DRIVER = REPO / "src" / "repro" / "engine" / "driver.py"
DICT_BACKEND = REPO / "src" / "repro" / "core" / "pmuc.py"


def _rep007_findings(driver_text):
    src = SourceFile(str(ENGINE_DRIVER), driver_text)
    kept, _suppressed = run_rules([src], [get_rule("REP007")])
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


# ----------------------------------------------------------------------
# the committed engine
# ----------------------------------------------------------------------
def test_committed_engine_covers_every_required_hook():
    src = SourceFile.read(str(ENGINE_DRIVER))
    recursion, driver = find_engine_anchors(src)
    assert recursion is not None, "engine recursion anchor missing"
    assert driver is not None, "engine run-lifecycle anchor missing"
    rec_labels = set(hook_labels(recursion, hook_root="san"))
    drv_labels = set(hook_labels(driver, hook_root="san"))
    # "No hooks anywhere" must not be able to pass silently.
    assert rec_labels >= set(RECURSION_HOOKS), rec_labels
    assert drv_labels >= set(DRIVER_HOOKS), drv_labels


def test_rep007_silent_on_the_committed_engine():
    assert _rep007_findings(ENGINE_DRIVER.read_text()) == []


# ----------------------------------------------------------------------
# deleting a hook call in the engine fails the rule
# ----------------------------------------------------------------------
def test_rep007_fires_when_the_cover_hook_is_dropped():
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(),
        "san.on_cover(depth, r, unexpanded, periphery)",
    )
    found = _rep007_findings(mutant)
    assert len(found) == 1
    assert found[0].rule == "REP007"
    assert "on_cover" in found[0].message
    assert "recursion" in found[0].message
    assert found[0].path == str(ENGINE_DRIVER)


def test_rep007_fires_when_every_node_hook_is_dropped():
    # The recursion has three on_node sites (the entry, the inlined
    # no-candidate leaf and the singleton-candidate shortcut);
    # coverage is only lost when all of them go.
    text = ENGINE_DRIVER.read_text()
    mutant = _neutralize(text, "san.on_node(depth)")
    mutant = _neutralize(mutant, "san.on_node(depth1)", count=2)
    found = _rep007_findings(mutant)
    assert len(found) == 1
    assert "hook:on_node" in found[0].message


def test_rep007_fires_when_the_driver_drops_the_context_hook():
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(), "san.on_context(color, edges)"
    )
    found = _rep007_findings(mutant)
    assert len(found) == 1
    assert "on_context" in found[0].message
    assert "run lifecycle" in found[0].message


def test_rep007_fires_when_the_driver_drops_the_finish_hook():
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(), "san.on_finish(complete)"
    )
    found = _rep007_findings(mutant)
    assert len(found) == 1
    assert "on_finish" in found[0].message


# ----------------------------------------------------------------------
# files without the engine anchors keep the rule silent
# ----------------------------------------------------------------------
def test_rep007_silent_on_files_without_engine_anchors():
    src = SourceFile.read(str(DICT_BACKEND))
    kept, _ = run_rules([src], [get_rule("REP007")])
    assert kept == []

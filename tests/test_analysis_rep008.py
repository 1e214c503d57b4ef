"""REP008 — engine observer-hook coverage.

The REP007 test suite, recreated for the observability seam: the
committed engine must call every observer hook — each prune kind, each
gauge, each phase span — and neutralizing an ``obs.on_*`` call in
``repro.engine.driver`` must make the rule fire and name the missing
hook.
"""

from pathlib import Path

from repro.analysis.fingerprint import hook_labels
from repro.analysis.registry import get_rule
from repro.analysis.rules.conformance import find_engine_anchors
from repro.analysis.rules.obs import DRIVER_HOOKS, RECURSION_HOOKS
from repro.analysis.runner import run_rules
from repro.analysis.source import SourceFile

REPO = Path(__file__).resolve().parents[1]
ENGINE_DRIVER = REPO / "src" / "repro" / "engine" / "driver.py"
KERNEL_BACKEND = REPO / "src" / "repro" / "kernel" / "enumerate.py"


def _rep008_findings(driver_text):
    src = SourceFile(str(ENGINE_DRIVER), driver_text)
    kept, _suppressed = run_rules([src], [get_rule("REP008")])
    return kept


def _neutralize(text, fragment, count=1):
    """Replace every line containing ``fragment`` with ``pass``.

    Keeping the indentation (and a ``pass`` statement) preserves the
    surrounding ``if obs is not None:`` guard's syntax, so the mutant
    still parses — the hook call alone disappears.
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
    rec_labels = set(hook_labels(recursion, hook_root="obs", detail=True))
    drv_labels = set(hook_labels(driver, hook_root="obs", detail=True))
    # The detail suffix keeps the three prune kinds, the two gauges and
    # the four phase spans individually visible.
    assert rec_labels >= set(RECURSION_HOOKS), rec_labels
    assert drv_labels >= set(DRIVER_HOOKS), drv_labels


def test_rep008_silent_on_the_committed_engine():
    assert _rep008_findings(ENGINE_DRIVER.read_text()) == []


# ----------------------------------------------------------------------
# recursion hook deletions fire
# ----------------------------------------------------------------------
def test_rep008_fires_when_the_expand_hook_is_dropped():
    # Two sites: the general expansion and the singleton-candidate
    # shortcut.
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(), "obs.on_expand(depth)", count=2
    )
    found = _rep008_findings(mutant)
    assert len(found) == 1
    assert found[0].rule == "REP008"
    assert "on_expand" in found[0].message
    assert found[0].path == str(ENGINE_DRIVER)


def test_rep008_fires_when_the_mpivot_prune_hook_is_dropped():
    # The kpivot prune has four sites but mpivot has one; the detail
    # suffix keeps the kinds separate, so losing the single mpivot
    # site cannot hide behind a surviving kpivot hook.
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(),
        'obs.on_prune("mpivot", depth, len(unexpanded))',
    )
    found = _rep008_findings(mutant)
    assert len(found) == 1
    assert "mpivot" in found[0].message


def test_rep008_fires_when_the_size_prune_hook_is_dropped():
    # Two sites: the general path and the singleton-candidate shortcut.
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(), 'obs.on_prune("size", depth)', count=2
    )
    found = _rep008_findings(mutant)
    assert len(found) == 1
    assert "size" in found[0].message


def test_rep008_fires_when_both_kpivot_prune_sites_are_dropped():
    # Both general-path sites (the depth-1 entry check and the loop
    # stop) plus the two of the singleton-candidate shortcut.
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(),
        'obs.on_prune("kpivot", depth)',
        count=4,
    )
    found = _rep008_findings(mutant)
    assert len(found) == 1
    assert "kpivot" in found[0].message


# ----------------------------------------------------------------------
# run-lifecycle hook deletions fire (the mutation-test satellite: an
# on_phase/on_gauge deletion in the engine must fail the rule)
# ----------------------------------------------------------------------
def test_rep008_fires_when_a_phase_hook_is_dropped():
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(),
        'obs.on_phase("sanitize", sanitize_s)',
    )
    found = _rep008_findings(mutant)
    assert len(found) == 1
    assert "run lifecycle" in found[0].message
    assert "on_phase:sanitize" in found[0].message


def test_rep008_fires_when_the_search_gauge_is_dropped():
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(),
        'obs.on_gauge("vertices_search", ops.search_size())',
    )
    found = _rep008_findings(mutant)
    assert len(found) == 1
    assert "vertices_search" in found[0].message


def test_rep008_fires_when_the_finish_hook_is_dropped():
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(),
        "obs.on_finish(self.result.stats)",
    )
    found = _rep008_findings(mutant)
    assert len(found) == 1
    assert "on_finish" in found[0].message


def test_rep008_fires_when_the_root_progress_hook_is_dropped():
    # The progress/flight seam: losing the per-seed on_root call would
    # silently blind the ETA estimator and the worker heartbeats.
    mutant = _neutralize(
        ENGINE_DRIVER.read_text(),
        "obs.on_root(root_index, len(roots), c)",
    )
    found = _rep008_findings(mutant)
    assert len(found) == 1
    assert "on_root" in found[0].message
    assert "run lifecycle" in found[0].message


# ----------------------------------------------------------------------
# files without the engine anchors keep the rule silent
# ----------------------------------------------------------------------
def test_rep008_silent_on_files_without_engine_anchors():
    src = SourceFile.read(str(KERNEL_BACKEND))
    kept, _ = run_rules([src], [get_rule("REP008")])
    assert kept == []

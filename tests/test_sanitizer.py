"""Runtime sanitizer: clean runs, mutation detection, levels, replay.

The mutation tests are the core contract: each one breaks a specific
paper invariant on purpose (tampered pivot cover, perturbed kernel log
weights, over-pruning reduction) and asserts the sanitizer catches it
at the documented level with the right check id and recursion path.
"""

import importlib
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core.config import PMUC_PLUS_CONFIG, PivotConfig, hook_level
from repro.core.pmuc import PivotEnumerator
from repro.datasets.figure1 import figure1_graph
from repro.exceptions import ParameterError, SanitizerViolation
from repro.kernel.enumerate import KernelStateOps
from repro.sanitize import (
    AddOutcome,
    CliqueStreamIndex,
    Sanitizer,
    ViolationReport,
    build_sanitizer,
    replay,
)
from repro.sanitize.__main__ import _run as sweep_run
from repro.store.key import run_key_for
from repro.store.service import EnumerationService
from repro.store.store import RunStore

@pytest.fixture(autouse=True)
def _isolate_sanitize_env(monkeypatch):
    """Make the module's level expectations independent of the ambient
    ``REPRO_SANITIZE`` (the CI sanitize job exports it globally)."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


K, ETA = 3, 0.1
#: All maximal (3, 0.1)-cliques of the Figure-1 graph.
EXPECTED = {
    frozenset({1, 2, 3, 8}),
    frozenset({3, 4, 8}),
    frozenset({4, 5, 6, 7, 8}),
}


def config(backend: str = "dict", sanitize: str = "full") -> PivotConfig:
    return replace(PMUC_PLUS_CONFIG, backend=backend, sanitize=sanitize)


def run_figure1(backend: str = "dict", sanitize: str = "full"):
    enumerator = PivotEnumerator(
        figure1_graph(), K, ETA, config(backend, sanitize)
    )
    return enumerator, enumerator.run()


# ----------------------------------------------------------------------
# clean runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["dict", "kernel"])
@pytest.mark.parametrize("level", ["light", "full"])
def test_sanitized_run_is_clean_and_complete(backend, level):
    _, result = run_figure1(backend, level)
    assert set(result.cliques) == EXPECTED


def test_full_level_exercises_every_check():
    enumerator, _ = run_figure1("dict", "full")
    counts = enumerator._san.checks_run
    assert counts["S1"] == counts["S2"] == counts["S4"] == len(EXPECTED)
    assert counts["S3"] >= 1
    assert counts["S5"] == 1


def test_light_level_skips_the_shadow_cross_check():
    enumerator, _ = run_figure1("dict", "light")
    assert enumerator._san.checks_run["S5"] == 0


def test_off_level_installs_no_sanitizer():
    enumerator, _ = run_figure1("dict", "off")
    assert enumerator._san is None
    assert build_sanitizer(figure1_graph(), K, ETA, config("dict", "off")) is None


# ----------------------------------------------------------------------
# level resolution (config field + REPRO_SANITIZE environment override)
# ----------------------------------------------------------------------
def test_env_var_applies_only_when_config_is_off(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "full")
    assert hook_level(config(sanitize="off"), "sanitize") == "full"
    # An explicit config level always wins over the environment.
    assert hook_level(config(sanitize="light"), "sanitize") == "light"


def test_env_var_unset_or_blank_means_off(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert hook_level(config(sanitize="off"), "sanitize") == "off"
    monkeypatch.setenv("REPRO_SANITIZE", "  ")
    assert hook_level(config(sanitize="off"), "sanitize") == "off"


def test_invalid_env_var_is_a_parameter_error(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "paranoid")
    with pytest.raises(ParameterError, match="REPRO_SANITIZE"):
        hook_level(config(sanitize="off"), "sanitize")


def test_env_var_enables_the_sanitizer_end_to_end(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "full")
    enumerator, result = run_figure1("dict", "off")
    assert set(result.cliques) == EXPECTED
    assert enumerator._san is not None
    assert enumerator._san.level == "full"


def test_config_rejects_unknown_sanitize_level():
    with pytest.raises(ParameterError):
        replace(PMUC_PLUS_CONFIG, sanitize="verbose")
    with pytest.raises(ParameterError):
        Sanitizer(figure1_graph(), K, ETA, level="off", backend="dict")


# ----------------------------------------------------------------------
# mutation: tampered pivot cover (S3)
# ----------------------------------------------------------------------
@pytest.fixture
def tampered_pivot_cover(monkeypatch):
    """Inflate every returned branch-best clique with a bogus vertex.

    The periphery ``Q`` is built from these return values, so the
    M-pivot cover stops start claiming a ``Q`` that is not an η-clique
    — exactly the Theorem 4.2 soundness bug S3 exists to catch.
    """
    driver = importlib.import_module("repro.engine.driver")
    original_build = driver.build_search

    def tampered_build(*args, **kwargs):
        search, flush = original_build(*args, **kwargs)

        def tampered(r, q, c, x, depth):
            best = search(r, q, c, x, depth)
            # ``None`` stands for the un-materialized ``r`` itself;
            # materialize it so the bogus vertex can ride along.
            if best is None:
                best = list(r) + [999]
            elif 999 not in best:
                best = list(best) + [999]
            return best

        # The compiled recursion calls itself through its own closure
        # cell; redirecting that cell at the wrapper tampers every
        # level of the search tree, not just the outer-loop roots.
        for i, name in enumerate(search.__code__.co_freevars):
            if name == "search":
                search.__closure__[i].cell_contents = tampered
        return tampered, flush

    monkeypatch.setattr(driver, "build_search", tampered_build)


@pytest.mark.parametrize("level", ["light", "full"])
def test_tampered_pivot_cover_is_caught(tampered_pivot_cover, level):
    with pytest.raises(SanitizerViolation) as exc:
        run_figure1("dict", level)
    report = exc.value.report
    assert report.check == "S3"
    assert report.name == "pivot-cover"
    assert report.level == level
    assert report.backend == "dict"
    assert report.path, "recursion path must name the offending subtree"
    assert "recursion path" in str(exc.value)


def test_tampered_pivot_cover_passes_unchecked_when_off(tampered_pivot_cover):
    # Sanity check on the mutation itself: with the sanitizer off the
    # tampered run completes silently — the violation above really
    # comes from the S3 check, not from the enumerator crashing.
    _, result = run_figure1("dict", "off")
    assert len(result.cliques) >= 1


# ----------------------------------------------------------------------
# mutation: perturbed kernel log weights (S4)
# ----------------------------------------------------------------------
@pytest.fixture
def perturbed_kernel_logs(monkeypatch):
    """Shift every kernel -log weight by 1e-4 (far above DRIFT_TOL).

    The weights are the search graph's ``-log p`` rows, which
    ``prepare_ordering`` builds; figure 1 is small, so they are dense.
    """
    original = KernelStateOps.prepare_ordering

    def perturbed(self, order_labels):
        original(self, order_labels)
        self._nlogr = [[nl + 1e-4 for nl in row] for row in self._nlogr]

    monkeypatch.setattr(KernelStateOps, "prepare_ordering", perturbed)


def test_perturbed_kernel_log_weights_are_caught(perturbed_kernel_logs):
    with pytest.raises(SanitizerViolation) as exc:
        run_figure1("kernel", "light")
    report = exc.value.report
    assert report.check == "S4"
    assert report.name == "numeric-drift"
    assert report.backend == "kernel"
    assert report.detail["log_domain"] is True
    assert "drifts" in report.message
    assert set(report.path) in EXPECTED


# ----------------------------------------------------------------------
# mutation: over-pruning reduction (S5, full only)
# ----------------------------------------------------------------------
@pytest.fixture
def overpruning_reduction(monkeypatch):
    """Make the (Top_k, η)-core reduction illegally drop {1, 2, 3}.

    ``importlib`` is required here: the ``repro.core`` package re-exports
    a ``pmuc`` *function*, which shadows the submodule under plain
    attribute access.
    """
    pmuc_module = importlib.import_module("repro.core.pmuc")
    original = pmuc_module.topk_core

    def overprune(graph, k, eta):
        reduced = original(graph, k, eta)
        return reduced.subgraph(
            [v for v in reduced.vertices() if v not in {1, 2, 3}]
        )

    monkeypatch.setattr(pmuc_module, "topk_core", overprune)


def test_overpruning_reduction_is_caught_at_full(overpruning_reduction):
    with pytest.raises(SanitizerViolation) as exc:
        run_figure1("dict", "full")
    report = exc.value.report
    assert report.check == "S5"
    assert report.name == "reduction-safety"
    assert [1, 2, 3, 8] in report.detail["missing"]
    assert [3, 4, 8] in report.detail["missing"]
    assert report.detail["spurious"] == []
    assert report.detail["pruned_vertices"] == [1, 2, 3]


def test_overpruning_reduction_slips_past_light(overpruning_reduction):
    # The surviving emission {4..8} is maximal in the original graph,
    # so S1/S2/S4 stay silent — only the full-level shadow comparison
    # can see the *missing* cliques.  This pins the level gating.
    _, result = run_figure1("dict", "light")
    assert set(result.cliques) == {frozenset({4, 5, 6, 7, 8})}


# ----------------------------------------------------------------------
# direct hook-level checks (no enumerator in the loop)
# ----------------------------------------------------------------------
def make_sanitizer(level="full"):
    return Sanitizer(
        figure1_graph(), K, ETA, level=level, backend="dict"
    )


def violation(callable_, *args, **kwargs):
    with pytest.raises(SanitizerViolation) as exc:
        callable_(*args, **kwargs)
    return exc.value.report


def test_s1_rejects_undersized_and_non_clique_emissions():
    report = violation(make_sanitizer().on_emit, [1, 2], 0.95, False)
    assert report.check == "S1" and "k-set" in report.message
    # 1-4 is not an edge, so {1, 2, 4} has probability 0.
    report = violation(make_sanitizer().on_emit, [1, 2, 4], 0.5, False)
    assert report.check == "S1" and "not an eta-clique" in report.message


def test_s2_rejects_duplicates_and_non_maximal_emissions():
    san = make_sanitizer()
    q = 0.9 ** 5
    san.on_emit([4, 5, 6, 7, 8], q, False)
    report = violation(san.on_emit, [8, 4, 5, 6, 7], q, False)
    assert report.check == "S2" and "more than once" in report.message
    # {4, 5, 6, 7} (probability 0.9 — only the 4-5 edge is uncertain)
    # extends by 8.
    report = violation(make_sanitizer().on_emit, [4, 5, 6, 7], 0.9, False)
    assert report.check == "S2"
    assert report.detail["extension"] == 8


def test_s4_rejects_a_drifting_accumulated_probability():
    report = violation(
        make_sanitizer().on_emit, [4, 5, 6, 7, 8], 0.9 ** 5 + 1e-3, False
    )
    assert report.check == "S4"
    assert report.detail["log_domain"] is False


def test_s3_cover_hook_rejects_bad_peripheries():
    san = make_sanitizer()
    san.on_node(1)
    report = violation(san.on_cover, 1, [4], [5], {5, 6})
    assert report.check == "S3" and "recursion path" in report.message
    report = violation(san.on_cover, 1, [4], [5, 1], {4, 5, 6})
    assert report.check == "S3" and "outside" in report.message
    report = violation(san.on_cover, 1, [4], [5], {4, 5, 1})
    assert report.check == "S3" and "Theorem 4.2" in report.message


def test_s3_cover_is_gated_on_emissions_at_light():
    san = make_sanitizer("light")
    san.on_node(1)
    # No emission under this node yet: the (bogus) cover is not probed.
    san.on_cover(1, [4], [5], {5, 6})
    assert san.checks_run["S3"] == 0
    san.on_emit([4, 5, 6, 7, 8], 0.9 ** 5, False)
    with pytest.raises(SanitizerViolation):
        san.on_cover(1, [4], [5], {5, 6})


def test_improper_coloring_is_caught_at_full():
    san = make_sanitizer()
    report = violation(san.on_context, {1: 0, 2: 0}, [(1, 2)])
    assert report.check == "S3"
    assert report.detail["kind"] == "coloring"
    light = make_sanitizer("light")
    light.on_context({1: 0, 2: 0}, [(1, 2)])  # linear check: full only


# ----------------------------------------------------------------------
# reports, replay, the acceptance sweep into a run store
# ----------------------------------------------------------------------
def test_report_json_roundtrip_preserves_exact_eta():
    report = ViolationReport(
        check="S1",
        message="probe",
        path=(1, 8, 3),
        k=3,
        eta=Fraction(1, 2),
        level="full",
        backend="kernel",
        detail={"probability": "1/4"},
    )
    back = ViolationReport.from_json(report.to_json())
    assert back == replace(report, detail={"probability": "1/4"})
    assert back.eta == Fraction(1, 2)
    assert back.name == "eta-clique"


def test_violation_report_roundtrips_from_a_real_run(overpruning_reduction):
    with pytest.raises(SanitizerViolation) as exc:
        run_figure1("dict", "full")
    back = ViolationReport.from_json(exc.value.report.to_json())
    assert back.check == "S5"
    assert back.path == exc.value.report.path
    assert back.k == K and back.eta == ETA


def test_replay_revisits_only_the_reported_subtree():
    report = ViolationReport(
        check="S2",
        message="synthetic",
        path=(4, 5),
        k=K,
        eta=ETA,
        level="full",
        backend="dict",
    )
    result = replay(figure1_graph(), report)
    # Seeded at the path root: only the subtree rooted at 4 is
    # re-enumerated (under the full sanitizer), and it is clean.
    assert set(result.cliques) == {frozenset({4, 5, 6, 7, 8})}


def test_sweep_stores_a_clean_run_that_the_service_replays(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    assert sweep_run("fig1", figure1_graph(), K, ETA, "dict", "full", store)
    key = run_key_for(figure1_graph(), K, ETA, config("dict", "full"))
    stored = store.get_run(key)
    assert stored is not None
    assert stored.record.num_cliques == len(EXPECTED)
    assert stored.record.extra["sanitize"] == "full"
    # The sweep's record is the one every producer writes, so a
    # service hit on its key replays the sweep's phase seconds.
    service = EnumerationService(store, config("dict", "full"))
    hit = service.enumerate(figure1_graph(), K, ETA)
    assert hit.hit and hit.key == key
    assert set(hit.result.cliques) == EXPECTED
    assert set(hit.result.phases) == {
        "reduction", "ordering", "recursion", "sanitize",
    }


def test_sweep_stores_a_violation_as_a_report_only(
    tmp_path, tampered_pivot_cover
):
    # The tamper lives in the dict recursion, so the sweep runs dict.
    store = RunStore(str(tmp_path / "store"))
    assert not sweep_run(
        "fig1", figure1_graph(), K, ETA, "dict", "full", store
    )
    key = run_key_for(figure1_graph(), K, ETA, config("dict", "full"))
    # No clique set, so no hit; the report stays readable by digest.
    assert store.get_run(key) is None
    stored = store.get_by_digest(key.digest())
    assert stored is not None and stored.cliques is None
    assert stored.violation["check"] == "S3"
    assert stored.violation["name"] == "pivot-cover"


# ----------------------------------------------------------------------
# streaming dedup / containment index
# ----------------------------------------------------------------------
def test_stream_index_detects_duplicates_without_reregistering():
    index = CliqueStreamIndex()
    assert index.add(frozenset({1, 2})) == AddOutcome(duplicate=False)
    assert index.add(frozenset({2, 1})).duplicate is True
    assert len(index) == 1
    assert {1, 2} in index and {1, 3} not in index
    assert index.seen() == {frozenset({1, 2})}


def test_stream_index_reports_containment_when_tracking():
    index = CliqueStreamIndex(track_containment=True)
    index.add(frozenset({1, 2, 3}))
    outcome = index.add(frozenset({1, 2}))
    assert outcome.supersets == (frozenset({1, 2, 3}),)
    assert outcome.subsets == ()
    outcome = index.add(frozenset({1, 2, 3, 4}))
    assert set(outcome.subsets) == {frozenset({1, 2, 3}), frozenset({1, 2})}
    assert outcome.supersets == ()
    # Disjoint cliques share no buckets: no probes, no false positives.
    assert index.add(frozenset({7, 8})) == AddOutcome(duplicate=False)

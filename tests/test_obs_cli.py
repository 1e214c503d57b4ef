"""``python -m repro.obs`` — the report and diff entry points.

The diff command gates regressions between session metrics documents:
exit 0 on clean comparisons, 1 on any regression beyond threshold, 2
on unusable input — so every status is pinned here, and report must
refuse a file that is no observation artifact with exit 2.
"""

import json
from dataclasses import replace

import pytest

from repro.core import PMUC_PLUS_CONFIG, PivotEnumerator
from repro.obs.cli import main
from repro.obs.flight import FlightRecorder
from repro.obs.session import observe
from repro.uncertain import UncertainGraph


def tiny_graph():
    g = UncertainGraph()
    for u, v in ((0, 1), (0, 2), (1, 2), (2, 3), (1, 3)):
        g.add_edge(u, v, 0.9)
    return g


def metrics_document(
    seconds=0.5, calls=100, expansions=80, outputs=10, variant=None
):
    """A one-run session metrics document (the ``--trace-out`` shape)."""
    run = {
        "index": 0,
        "backend": "dict",
        "level": "metrics",
        "metrics": {
            "counters": {
                "calls": calls,
                "expansions": expansions,
                "outputs": outputs,
            },
            "gauges": {},
            "phases": {"recursion": seconds},
            "depth": {},
        },
    }
    if variant is not None:
        run["variant"] = variant
    return {
        "schema": "repro.obs/metrics-v1",
        "runs": [run],
    }


@pytest.fixture
def artifacts(tmp_path):
    """A real session's trace + metrics files from one tiny run."""
    trace = tmp_path / "run.trace.jsonl"
    metrics = tmp_path / "run.metrics.json"
    with observe(trace_path=str(trace), metrics_path=str(metrics)):
        config = replace(PMUC_PLUS_CONFIG, obs="full")
        PivotEnumerator(tiny_graph(), k=2, eta=0.1, config=config).run()
    return trace, metrics


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def test_report_renders_all_three_artifact_kinds(
    artifacts, tmp_path, capsys
):
    trace, metrics = artifacts
    flight = tmp_path / "flight.jsonl"
    with FlightRecorder(str(flight), role="parent") as recorder:
        recorder.run_start(k=2)
    for path, marker in (
        (trace, "trace:"),
        (metrics, "run 0 ["),
        (flight, "run_start"),
    ):
        assert main(["report", str(path)]) == 0
        assert marker in capsys.readouterr().out


def test_report_missing_file_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "# notes\n\nNot JSON at all.\n",
        json.dumps({"foo": 1}, indent=2),
        '{"foo": 1}\n',
    ],
    ids=["markdown", "multi-line-json", "one-line-object"],
)
def test_non_artifacts_exit_2_naming_the_accepted_kinds(
    tmp_path, capsys, text
):
    path = tmp_path / "input.txt"
    path.write_text(text)
    for argv in (["report", str(path)], ["diff", str(path), str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "repro.obs/metrics-v1" in captured.err


def test_report_empty_file_is_an_empty_trace(tmp_path, capsys):
    # A session that observed no run writes an empty trace.
    path = tmp_path / "empty.trace.jsonl"
    path.write_text("")
    assert main(["report", str(path)]) == 0
    assert "trace: 0 events" in capsys.readouterr().out


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def test_diff_clean_exits_0(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(metrics_document()))
    assert main(["diff", str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert "no regressions" in out
    assert "run0/dict: calls 100 -> 100 ok" in out


def test_diff_counter_regression_exits_1(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(metrics_document()))
    cur.write_text(json.dumps(metrics_document(calls=150)))
    assert main(["diff", str(base), str(cur)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION run0/dict: calls grew 100 -> 150" in out


def test_diff_output_drift_is_always_a_regression(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(metrics_document()))
    cur.write_text(json.dumps(metrics_document(outputs=11)))
    assert main(["diff", str(base), str(cur)]) == 1
    assert "outputs changed 10 -> 11" in capsys.readouterr().out


def test_diff_time_regression_respects_threshold(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(metrics_document(seconds=0.1)))
    cur.write_text(json.dumps(metrics_document(seconds=0.2)))
    # Doubling trips the default 1.5x gate ...
    assert main(["diff", str(base), str(cur)]) == 1
    assert "seconds grew" in capsys.readouterr().out
    # ... but not a widened one (cross-machine comparisons).
    assert main(
        ["diff", str(base), str(cur), "--time-threshold", "3.0"]
    ) == 0
    capsys.readouterr()


def test_diff_missing_run_is_a_regression(tmp_path, capsys):
    base_doc = metrics_document()
    base_doc["runs"].append(
        dict(base_doc["runs"][0], backend="kernel")
    )
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(base_doc))
    cur.write_text(json.dumps(metrics_document()))
    assert main(["diff", str(base), str(cur)]) == 1
    assert "run0/kernel: missing from current" in capsys.readouterr().out
    # --only-common downgrades the absence (gating a partial re-run
    # against a full baseline) but still compares the rest.
    assert main(["diff", str(base), str(cur), "--only-common"]) == 0
    out = capsys.readouterr().out
    assert "run0/kernel: not in current, skipped" in out
    assert "run0/dict: calls 100 -> 100 ok" in out


def test_diff_only_common_with_empty_intersection_still_fails(
    tmp_path, capsys
):
    base_doc = metrics_document()
    cur_doc = metrics_document()
    cur_doc["runs"][0]["index"] = 1
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(base_doc))
    cur.write_text(json.dumps(cur_doc))
    assert main(["diff", str(base), str(cur), "--only-common"]) == 1
    assert "no common runs" in capsys.readouterr().out


def test_diff_cross_backend_documents_exit_2(tmp_path, capsys):
    base_doc = metrics_document()
    cur_doc = metrics_document()
    cur_doc["runs"][0]["backend"] = "kernel"
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(base_doc))
    cur.write_text(json.dumps(cur_doc))
    # Disjoint backends are unusable input, not a regression: wall
    # clocks are incomparable and no key would align anyway.
    assert main(["diff", str(base), str(cur)]) == 2
    err = capsys.readouterr().err
    assert "cross-backend comparison" in err
    assert "dict" in err and "kernel" in err


def test_diff_cross_variant_documents_exit_2(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(metrics_document(variant="generic")))
    cur.write_text(json.dumps(metrics_document(variant="generic+hooks")))
    # A hooked closure's wall clock is not comparable to the
    # production variant's: unusable input, not a regression.
    assert main(["diff", str(base), str(cur)]) == 2
    err = capsys.readouterr().err
    assert "cross-variant comparison" in err
    assert "generic+hooks" in err


def test_diff_unstamped_baseline_accepts_stamped_current(
    tmp_path, capsys
):
    # Documents predating the variant stamp must keep gating cleanly
    # against freshly stamped re-runs.
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(metrics_document()))
    cur.write_text(json.dumps(metrics_document(variant="generic")))
    assert main(["diff", str(base), str(cur)]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_diff_matching_variants_compare_normally(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(metrics_document(variant="bitset")))
    cur.write_text(
        json.dumps(metrics_document(calls=150, variant="bitset"))
    )
    assert main(["diff", str(base), str(cur)]) == 1
    assert "calls grew" in capsys.readouterr().out


def test_diff_session_metrics_documents(artifacts, tmp_path, capsys):
    _trace, metrics = artifacts
    assert main(["diff", str(metrics), str(metrics)]) == 0
    assert "run0/kernel" in capsys.readouterr().out


def test_diff_trace_input_exits_2(artifacts, capsys):
    trace, _metrics = artifacts
    assert main(["diff", str(trace), str(trace)]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# cross-platform warning: once per invocation
# ----------------------------------------------------------------------
def multi_run_document(env=None, runs=3):
    """A metrics document with several runs, stamped with ``env``."""
    doc = metrics_document()
    template = doc["runs"][0]
    doc["runs"] = [dict(template, index=index) for index in range(runs)]
    if env is not None:
        doc["env"] = dict(env)
    return doc


def test_diff_cross_platform_warning_fires_once_per_invocation(
    tmp_path, capsys
):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    here = {"python": "3.11.4", "platform": "Linux-x86_64"}
    there = {"python": "3.11.4", "platform": "Darwin-arm64"}
    base.write_text(json.dumps(multi_run_document(env=here)))
    cur.write_text(json.dumps(multi_run_document(env=there)))
    assert main(["diff", str(base), str(cur)]) == 0
    out = capsys.readouterr().out
    # Three aligned rows crossed the same machine boundary: the drift
    # is reported once for the whole invocation, not once per row.
    assert out.count("cross-platform compare") == 1
    assert "Linux-x86_64 -> Darwin-arm64" in out
    for index in range(3):
        assert "run%d/dict: calls 100 -> 100 ok" % index in out


def test_diff_same_platform_runs_do_not_warn(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    here = {"python": "3.11.4", "platform": "Linux-x86_64"}
    base.write_text(json.dumps(multi_run_document(env=here)))
    cur.write_text(json.dumps(multi_run_document(env=here)))
    assert main(["diff", str(base), str(cur)]) == 0
    assert "cross-platform" not in capsys.readouterr().out

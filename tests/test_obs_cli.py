"""``python -m repro.obs report`` — every artifact kind renders, and
a file that is no observation artifact is refused with exit 2."""

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


@pytest.fixture
def artifacts(tmp_path):
    """A real session's trace + metrics files from one tiny run."""
    trace = tmp_path / "run.trace.jsonl"
    metrics = tmp_path / "run.metrics.json"
    with observe(trace_path=str(trace), metrics_path=str(metrics)):
        config = replace(PMUC_PLUS_CONFIG, obs="full")
        PivotEnumerator(tiny_graph(), k=2, eta=0.1, config=config).run()
    return trace, metrics


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
    assert main(["report", str(path)]) == 2
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

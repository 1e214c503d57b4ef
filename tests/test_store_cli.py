"""``repro-store`` — the query front end over the run store.

The byte-identity contract is the headline: ``query show`` renders
only stored bytes, so its output for a digest is identical whether the
entry was written seconds or months before, across any number of
invocations.  Exit codes: 0 clean, 1 content difference, 2 unusable
input.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.pmuc import PivotEnumerator
from repro.datasets.figure1 import figure1_graph
from repro.store.cli import main
from repro.store.key import run_key_for
from repro.store.records import stamped_record
from repro.store.store import RunStore


@pytest.fixture
def populated(tmp_path):
    """A store holding two figure-1 runs at etas with different clique sets."""
    root = str(tmp_path / "store")
    store = RunStore(root)
    digests = {}
    for eta in (0.1, 0.6):
        result = PivotEnumerator(
            figure1_graph(), 3, eta, PMUC_PLUS_CONFIG
        ).run()
        key = run_key_for(figure1_graph(), 3, eta, PMUC_PLUS_CONFIG)
        record = stamped_record(
            "test:figure1", 0.5, len(result.cliques),
            result.stats.as_dict(), extra={"k": 3, "eta": repr(eta)},
        )
        digests[eta] = store.put_run(key, record, cliques=result.cliques)
    return root, digests


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_query_list_table_and_json(populated, capsys):
    root, digests = populated
    code, out = run_cli(capsys, "--store", root, "query", "list")
    assert code == 0
    assert "stored runs" in out
    for digest in digests.values():
        assert digest[:12] in out
    code, out = run_cli(
        capsys, "--store", root, "query", "list", "--format=json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert {row["digest"] for row in rows} == {
        digest[:12] for digest in digests.values()
    }


def test_query_list_csv_parses(populated, capsys):
    root, _ = populated
    code, out = run_cli(
        capsys, "--store", root, "query", "list", "--format=csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert all(row["violation"] == "-" for row in rows)


def test_query_show_is_byte_identical_across_invocations(populated, capsys):
    root, digests = populated
    renders = [
        run_cli(
            capsys, "--store", root, "query", "show", digests[0.1],
            "--format", fmt, "--cliques",
        )
        for fmt in ("table", "json", "table")
    ]
    assert all(code == 0 for code, _ in renders)
    assert renders[0][1] == renders[2][1]
    document = json.loads(renders[1][1])
    assert document["digest"] == digests[0.1]
    assert document["key"]["eta"] == "float:0.1"
    assert document["record"]["num_cliques"] == len(document["cliques"])


def test_query_show_accepts_unique_prefixes_only(populated, capsys):
    root, digests = populated
    code, out = run_cli(
        capsys, "--store", root, "query", "show", digests[0.1][:12]
    )
    assert code == 0
    code, _ = run_cli(capsys, "--store", root, "query", "show", "f" * 12)
    assert code == 2


def test_query_diff_flags_eta_and_stats_differences(populated, capsys):
    root, digests = populated
    code, out = run_cli(
        capsys, "--store", root, "query", "diff",
        digests[0.1], digests[0.6],
    )
    # Different eta -> different clique sets here: exit 1, and the key
    # row that differs says NO while shared axes say yes.
    assert code == 1
    rows = {
        line.split("|")[0].strip(): line
        for line in out.splitlines()
        if line.count("|") >= 3
    }
    assert rows["eta"].rstrip().endswith("NO")
    assert rows["k"].rstrip().endswith("yes")


def test_query_diff_identical_runs_exit_zero(populated, capsys):
    root, digests = populated
    code, out = run_cli(
        capsys, "--store", root, "query", "diff",
        digests[0.1], digests[0.1],
    )
    assert code == 0
    assert "NO" not in out


def test_query_export_jsonl_json_csv_agree(populated, capsys, tmp_path):
    root, digests = populated
    code, jsonl_out = run_cli(
        capsys, "--store", root, "query", "export", digests[0.1]
    )
    assert code == 0
    jsonl_rows = [
        json.loads(line) for line in jsonl_out.splitlines() if line
    ]
    code, json_out = run_cli(
        capsys, "--store", root, "query", "export", digests[0.1],
        "--format=json",
    )
    assert json.loads(json_out) == jsonl_rows
    code, csv_out = run_cli(
        capsys, "--store", root, "query", "export", digests[0.1],
        "--format=csv",
    )
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert [row["members"].split(";") for row in csv_rows] == jsonl_rows
    # --out writes the same body to a file.
    target = tmp_path / "cliques.jsonl"
    code, out = run_cli(
        capsys, "--store", root, "query", "export", digests[0.1],
        "--out", str(target),
    )
    assert code == 0
    assert target.read_text().strip() == jsonl_out.strip()


def test_run_command_stores_then_replays(tmp_path, capsys, monkeypatch):
    """`repro-store run` twice: miss then hit, identical rendered entry."""
    import repro.store.cli as cli_module

    monkeypatch.setattr(
        "repro.datasets.load_dataset",
        lambda name, seed=0, probability_model="exponential":
            figure1_graph(),
    )
    root = str(tmp_path / "store")
    argv = [
        "--store", root, "run", "--dataset", "figure1",
        "--k", "3", "--eta", "0.1",
    ]
    code, first = run_cli(capsys, *argv)
    assert code == 0
    assert first.startswith("miss ")
    code, second = run_cli(capsys, *argv)
    assert code == 0
    assert second.startswith("hit ")
    # Below the status line the rendered stored entry is byte-identical.
    assert first.splitlines()[1:] == second.splitlines()[1:]
    assert cli_module is not None


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--dataset", "figure1", "--k", "3", "--eta", "not-a-number"],
        ["run", "--dataset", "figure1", "--k", "3", "--eta", "1/0"],
        ["run", "--dataset", "core", "--k", "0", "--eta", "0.3"],
        ["run", "--dataset", "core", "--k", "3", "--eta", "1.5"],
        ["run", "--dataset", "nope", "--k", "3", "--eta", "0.3"],
        ["serve", "--socket", "127.0.0.1:99999"],
    ],
    ids=[
        "eta-not-a-number", "eta-zero-denominator", "k-zero",
        "eta-above-one", "unknown-dataset", "serve-port-out-of-range",
    ],
)
def test_run_command_rejects_bad_eta(tmp_path, capsys, command):
    # Every usage error is one ``error:`` line and exit 2, no traceback.
    code = main(["--store", str(tmp_path / "s")] + command)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "s")


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--dataset", "core", "--k", "5", "--eta", "0.3"],
        ["query", "show", "DIGEST", "--cliques"],
        ["query", "list"],
    ],
    ids=["run", "query-show", "query-list"],
)
def test_a_reader_that_closes_early_gets_no_traceback(populated, command):
    # ``repro-store ... | head -1``: the reader goes away before the
    # output is written.  The CLI must exit without a traceback.
    root, digests = populated
    argv = [digests[0.1] if arg == "DIGEST" else arg for arg in command]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.store", "--store", root] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err
    assert "BrokenPipeError" not in err, err

"""The bench harness, experiment functions (tiny grids), and the CLI."""

import pytest

from repro.bench import (
    experiment_ablation,
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6_fig7,
    experiment_fig8,
    experiment_fig9,
    experiment_fig10,
    experiment_fig11,
    experiment_table1,
    experiment_table2,
    experiment_table3,
    format_table,
    peak_memory_bytes,
    timed_config_enumeration,
    timed_enumeration,
)
from repro.core import PMUC_PLUS_CONFIG
from repro.cli import main
from repro.datasets import DATASET_NAMES

TINY = dict(datasets=("enron",), ks=(4,), etas=(0.1,))


class TestHarness:
    def test_timed_enumeration(self, two_communities):
        record = timed_enumeration("t", two_communities, 3, 0.5, "pmuc+")
        assert record.num_cliques == 2
        assert record.seconds >= 0
        assert record.stats["outputs"] == 2

    def test_timed_config_enumeration(self, two_communities):
        record = timed_config_enumeration(
            "c", two_communities, 3, 0.5, PMUC_PLUS_CONFIG
        )
        assert record.num_cliques == 2

    def test_peak_memory_positive(self):
        assert peak_memory_bytes(lambda: list(range(100_000))) > 100_000

    def test_format_table(self):
        text = format_table([{"a": 1, "b": None}, {"a": 2.5}], title="T")
        assert "T" in text and "a" in text and "-" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([])


class TestExperiments:
    def test_table1_covers_all_datasets(self):
        rows = experiment_table1()
        assert [r["dataset"] for r in rows] == list(DATASET_NAMES)

    def test_fig3_rows(self):
        rows = experiment_fig3(**TINY)
        algorithms = {r["algorithm"] for r in rows}
        assert algorithms == {"muc", "pmuc", "pmuc+"}
        sweeps = {r["sweep"] for r in rows}
        assert sweeps == {"k", "eta"}

    def test_fig4_variants(self):
        rows = experiment_fig4(**TINY)
        assert {r["variant"] for r in rows} == {"PMUC-R", "PMUC-C", "PMUC+"}

    def test_fig5_variants(self):
        rows = experiment_fig5(**TINY)
        assert {r["variant"] for r in rows} == {"PMUC-D", "PMUC-CD", "PMUC+"}

    def test_fig6_fig7_reduction_monotone(self):
        rows = experiment_fig6_fig7(**TINY)
        by_technique = {r["technique"]: r for r in rows}
        # Fig. 7's claim: TopTriangle prunes at least as much as TopCore.
        assert (
            by_technique["TopTriangle"]["remaining_vertices"]
            <= by_technique["TopCore"]["remaining_vertices"]
        )

    def test_fig8_series_naming(self):
        rows = experiment_fig8(datasets=("enron",), ks=(4,), models=("uniform",))
        assert {r["series"] for r in rows} == {"UMC", "UPM+"}

    def test_fig9_fractions(self):
        rows = experiment_fig9(fractions=(0.4,), algorithms=("pmuc+",))
        assert {r["sampled"] for r in rows} == {"vertices", "edges"}

    def test_fig10_memory(self):
        rows = experiment_fig10(datasets=("enron",), algorithms=("pmuc+",))
        assert rows[0]["peak_mb"] > 0

    def test_table2_precision_order(self):
        rows = experiment_table2()
        best = max(rows, key=lambda r: r["PR"])
        assert best["Algorithm"] == "PMUCE"

    def test_fig11_rows(self):
        rows = experiment_fig11()
        assert {r["dataset"] for r in rows} == {"cn15k", "nl27k"}

    def test_table3_rows(self):
        rows = experiment_table3()
        methods = [r["method"] for r in rows]
        assert methods.count("PMUCE") == 2  # two topics

    def test_ablation_no_pivot_is_worst(self):
        rows = experiment_ablation(datasets=("enron",), k=6)
        calls = {r["variant"]: r["calls"] for r in rows}
        cliques = {r["variant"]: r["cliques"] for r in rows}
        assert len(set(cliques.values())) == 1  # all variants agree
        assert calls["no-pivot"] >= calls["full-pmuc+"]


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "enron" in out and "delta" in out

    def test_fig3_quick_with_overrides(self, capsys):
        assert main(["fig3", "--datasets", "enron", "--ks", "4",
                     "--etas", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "pmuc+" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_there_is_no_backend_option(self, capsys):
        # REPRO_BACKEND, set when the process starts, is the one backend
        # override: the experiments' configs are module constants,
        # built at import, before any option is parsed.
        with pytest.raises(SystemExit) as stop:
            main(["fig5", "--quick", "--backend", "kernel"])
        assert stop.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_fig11(self, capsys):
        assert main(["fig11"]) == 0
        assert "PMUCE" in capsys.readouterr().out

    def test_markdown_export(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert main(["table1", "--markdown", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# Reproduction report")
        assert "| enron |" in text

    def test_json_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "rows.json"
        assert main(["table3", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "table3" in data and data["table3"]["rows"]

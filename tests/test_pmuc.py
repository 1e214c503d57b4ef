"""Algorithm 3 (PMUC / PMUC+): correctness, configs, and pruning power."""

import pytest

from repro.exceptions import ParameterError
from repro.core import (
    PMUC_CONFIG,
    PMUC_PLUS_CONFIG,
    PivotConfig,
    PivotEnumerator,
    muc,
    pmuc,
    pmuc_plus,
)
from repro.datasets import figure1_core_subgraph, figure1_graph
from repro.uncertain import UncertainGraph, is_maximal_k_eta_clique
from tests.conftest import as_sorted_sets, random_uncertain_graph


class TestConfigs:
    def test_default_configs(self):
        assert PMUC_CONFIG.kpivot == "off"
        assert PMUC_PLUS_CONFIG.kpivot == "color"
        assert PMUC_PLUS_CONFIG.reduction == "triangle"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ordering", "nope"),
            ("pivot", "nope"),
            ("mpivot", "nope"),
            ("kpivot", "nope"),
            ("reduction", "nope"),
        ],
    )
    def test_invalid_choice_rejected(self, field, value):
        with pytest.raises(ParameterError):
            PivotConfig(**{field: value})

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            PMUC_CONFIG.ordering = "as-is"


class TestParameters:
    @pytest.mark.parametrize("k", [0, -2, 2.5])
    def test_bad_k(self, triangle_graph, k):
        with pytest.raises(ParameterError):
            PivotEnumerator(triangle_graph, k, 0.5)

    @pytest.mark.parametrize("eta", [0, -1, 1.01])
    def test_bad_eta(self, triangle_graph, eta):
        with pytest.raises(ParameterError):
            PivotEnumerator(triangle_graph, 2, eta)


class TestCorrectness:
    def test_matches_muc_on_random_graphs(self):
        for seed in range(15):
            g = random_uncertain_graph(seed + 100, 9, 0.55)
            for k, eta in ((1, 0.4), (2, 0.15), (3, 0.5), (4, 0.05)):
                expected = as_sorted_sets(muc(g, k, eta).cliques)
                assert as_sorted_sets(pmuc(g, k, eta).cliques) == expected
                assert as_sorted_sets(pmuc_plus(g, k, eta).cliques) == expected

    def test_every_config_axis(self, two_communities):
        expected = as_sorted_sets(muc(two_communities, 2, 0.5).cliques)
        for ordering in ("as-is", "degeneracy", "topk-core"):
            for pivot in ("first", "degree", "color", "hybrid"):
                for mpivot in ("off", "basic", "improved"):
                    for kpivot in ("off", "plain", "color"):
                        config = PivotConfig(
                            ordering=ordering,
                            pivot=pivot,
                            mpivot=mpivot,
                            kpivot=kpivot,
                            reduction="off",
                        )
                        got = PivotEnumerator(
                            two_communities, 2, 0.5, config
                        ).run()
                        assert as_sorted_sets(got.cliques) == expected

    def test_outputs_are_maximal_k_eta_cliques(self):
        g = random_uncertain_graph(7, 12, 0.6)
        k, eta = 3, 0.3
        result = pmuc_plus(g, k, eta)
        for clique in result.cliques:
            assert is_maximal_k_eta_clique(g, clique, k, eta)

    def test_no_duplicates(self):
        g = random_uncertain_graph(8, 12, 0.6)
        result = pmuc_plus(g, 2, 0.3)
        assert len(result.cliques) == len(set(result.cliques))

    def test_k1_reports_isolated_vertices(self):
        g = UncertainGraph([(0, 1, 0.9)])
        g.add_vertex(7)
        got = as_sorted_sets(pmuc_plus(g, 1, 0.5).cliques)
        assert got == [frozenset({7}), frozenset({0, 1})]

    def test_empty_graph(self):
        assert pmuc_plus(UncertainGraph(), 2, 0.5).cliques == []

    def test_callback_streams(self, two_communities):
        seen = []
        result = pmuc_plus(two_communities, 3, 0.5, on_clique=seen.append)
        assert result.cliques == []
        assert len(seen) == result.stats.outputs > 0


class TestPruningPower:
    def test_figure1_pivot_beats_set_enumeration(self):
        """The paper's headline example: on the 5-clique subgraph the
        pivot algorithm explores far fewer nodes than MUC's 32."""
        g = figure1_core_subgraph()
        baseline = muc(g, 1, 0.5, use_reduction=False)
        pivoted = pmuc(g, 1, 0.5)
        assert as_sorted_sets(pivoted.cliques) == as_sorted_sets(baseline.cliques)
        assert baseline.stats.calls == 32
        assert pivoted.stats.calls < baseline.stats.calls / 2

    def test_mpivot_records_skips(self):
        g = figure1_core_subgraph()
        result = pmuc(g, 1, 0.5)
        assert result.stats.mpivot_skips > 0

    def test_improved_mpivot_no_worse_than_basic(self):
        g = figure1_graph()
        base = PivotEnumerator(
            g, 1, 0.53, PivotConfig(mpivot="basic", reduction="off")
        ).run()
        improved = PivotEnumerator(
            g, 1, 0.53, PivotConfig(mpivot="improved", reduction="off")
        ).run()
        assert as_sorted_sets(base.cliques) == as_sorted_sets(improved.cliques)
        assert improved.stats.calls <= base.stats.calls

    def test_kpivot_prunes_small_branches(self):
        g = random_uncertain_graph(3, 14, 0.5)
        k, eta = 5, 0.2
        off = PivotEnumerator(
            g, k, eta, PivotConfig(kpivot="off", reduction="off")
        ).run()
        color = PivotEnumerator(
            g, k, eta, PivotConfig(kpivot="color", reduction="off")
        ).run()
        assert as_sorted_sets(off.cliques) == as_sorted_sets(color.cliques)
        assert color.stats.calls <= off.stats.calls

    def test_triangle_reduction_shrinks_search_graph(self, two_communities):
        plus = pmuc_plus(two_communities, 4, 0.5)
        plain = pmuc(two_communities, 4, 0.5)
        assert as_sorted_sets(plus.cliques) == as_sorted_sets(plain.cliques)

    def test_stats_depth_tracked(self, two_communities):
        result = pmuc_plus(two_communities, 2, 0.5)
        assert result.stats.max_depth >= 3


@pytest.mark.parametrize("backend", ["dict", "kernel"])
def test_each_run_returns_a_fresh_result(backend):
    """A second ``run()`` of one enumerator equals a fresh enumerator's
    run; it does not add its cliques and counters to the first's."""
    config = PivotConfig(backend=backend)
    enumerator = PivotEnumerator(figure1_graph(), 3, 0.1, config)
    first = enumerator.run()
    second = enumerator.run()
    fresh = PivotEnumerator(figure1_graph(), 3, 0.1, config).run()
    assert enumerator.backend_used == backend
    for result in (first, second):
        assert as_sorted_sets(result.cliques) == as_sorted_sets(fresh.cliques)
        assert result.stats.__dict__ == fresh.stats.__dict__
    assert first is not second
    assert enumerator.stats is second.stats


@pytest.mark.parametrize("backend", ["dict", "kernel"])
@pytest.mark.parametrize(
    "mangle",
    [
        lambda vs: vs + vs,
        lambda vs: vs[1:],
        lambda vs: vs[:-1] + ["not-a-vertex"],
    ],
    ids=["duplicate", "missing", "foreign"],
)
def test_run_rejects_an_order_that_is_not_a_permutation(backend, mangle):
    """``run(order=)`` must list each search-graph vertex once: a
    repeated vertex would run its root twice and emit its cliques
    twice, and a missing or foreign one has no rank."""
    graph = figure1_graph()
    config = PivotConfig(
        backend=backend, ordering="topk-core", reduction="off"
    )
    order = list(reversed(graph.vertices()))
    valid = PivotEnumerator(graph, 3, 0.1, config).run(order=order)
    assert len(valid.cliques) == valid.stats.outputs == 3
    enumerator = PivotEnumerator(graph, 3, 0.1, config)
    with pytest.raises(
        ParameterError, match="every search-graph vertex exactly once"
    ):
        enumerator.run(order=mangle(order))
    assert enumerator.backend_used == backend

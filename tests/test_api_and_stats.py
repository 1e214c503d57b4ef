"""Top-level API dispatch and the statistics containers."""

import pytest

from repro import (
    EnumerationResult,
    SearchStats,
    enumerate_maximal_cliques,
    maximal_clique_counts,
    maximum_eta_clique,
)
from repro.core.dynamic import DynamicCliqueIndex
from repro.core.maximum import maximum_k_eta_clique
from repro.core.muc import muc
from repro.core.pmuc import PivotEnumerator
from repro.core.session import CliqueQuerySession
from repro.exceptions import ParameterError
from repro.hereditary.properties import EtaCliqueProperty
from repro.store.store import RunStore
from repro.uncertain import UncertainGraph
from tests.conftest import as_sorted_sets


class TestDispatch:
    def test_all_algorithms_available(self, two_communities):
        expected = None
        for algorithm in ("muc", "muc-basic", "pmuc", "pmuc+"):
            result = enumerate_maximal_cliques(two_communities, 3, 0.5, algorithm)
            view = as_sorted_sets(result.cliques)
            if expected is None:
                expected = view
            assert view == expected

    def test_unknown_algorithm(self, triangle_graph):
        with pytest.raises(ParameterError):
            enumerate_maximal_cliques(triangle_graph, 2, 0.5, "nope")

    @pytest.mark.parametrize(
        "entry",
        [
            lambda g: PivotEnumerator(g, True, 0.5),
            lambda g: muc(g, True, 0.5),
            lambda g: CliqueQuerySession(g, 0.5).reduced_graph(True),
            lambda g: DynamicCliqueIndex(g, True, 0.5),
            lambda g: maximum_k_eta_clique(g, True, 0.5),
        ],
        ids=["pivot-enumerator", "muc", "session", "dynamic", "maximum"],
    )
    def test_a_bool_k_is_rejected(self, triangle_graph, entry):
        # ``isinstance(True, int)`` holds, so an int check alone would
        # run ``k=True`` as k = 1.
        with pytest.raises(ParameterError, match="positive integer"):
            entry(triangle_graph)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda g, eta: PivotEnumerator(g, 2, eta),
            lambda g, eta: muc(g, 3, eta),
            lambda g, eta: CliqueQuerySession(g, eta),
            lambda g, eta: DynamicCliqueIndex(g, 3, eta),
            lambda g, eta: maximum_k_eta_clique(g, 3, eta),
            lambda g, eta: EtaCliqueProperty(g, eta),
        ],
        ids=["pivot-enumerator", "muc", "session", "dynamic", "maximum",
             "eta-clique-property"],
    )
    @pytest.mark.parametrize("eta", [True, "0.5"], ids=["bool", "str"])
    def test_a_bool_or_string_eta_is_rejected(self, triangle_graph, entry, eta):
        # ``0 < True <= 1`` holds, so a range check alone would run
        # ``eta=True`` as η = 1; a string fails the comparison itself.
        with pytest.raises(ParameterError, match=r"eta must lie in \(0, 1\]"):
            entry(triangle_graph, eta)

    def test_a_bool_eta_is_rejected_before_the_store_key(
        self, triangle_graph, tmp_path
    ):
        store = RunStore(str(tmp_path / "store"))
        with pytest.raises(ParameterError, match=r"eta must lie in \(0, 1\]"):
            CliqueQuerySession(triangle_graph, True, store=store)

    def test_callback_respected(self, triangle_graph):
        seen = []
        result = enumerate_maximal_cliques(
            triangle_graph, 3, 0.5, on_clique=seen.append
        )
        assert seen == [frozenset({0, 1, 2})]
        assert result.cliques == []

    def test_doctest_example(self):
        g = UncertainGraph([(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)])
        result = enumerate_maximal_cliques(g, k=3, eta=0.5)
        assert sorted(result.cliques[0]) == [0, 1, 2]


class TestHelpers:
    def test_maximal_clique_counts(self, two_communities):
        histogram = maximal_clique_counts(two_communities, 2, 0.5)
        assert histogram.get(4) == 2

    def test_maximum_eta_clique_on_empty(self):
        assert maximum_eta_clique(UncertainGraph(), 0.5) == frozenset()

    def test_maximum_eta_clique(self, two_communities):
        assert len(maximum_eta_clique(two_communities, 0.5)) == 4


class TestStats:
    def test_observe_depth(self):
        stats = SearchStats()
        stats.observe_depth(3)
        stats.observe_depth(2)
        assert stats.max_depth == 3

    def test_as_dict_keys(self):
        keys = set(SearchStats().as_dict())
        assert keys == {
            "calls", "expansions", "outputs", "mpivot_skips",
            "kpivot_stops", "size_prunes", "max_depth",
        }

    def test_result_container(self):
        result = EnumerationResult()
        result.cliques.append(frozenset({1, 2}))
        assert len(result) == 1
        assert list(result) == [frozenset({1, 2})]
        assert result.as_sorted_sets() == [frozenset({1, 2})]

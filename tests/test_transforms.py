"""Uncertain-graph transforms and the η-core decomposition."""

import pytest
from hypothesis import given, settings

from repro.exceptions import GraphError, ParameterError
from repro.baselines import eta_core_decomposition, k_eta_core_vertices
from repro.uncertain import (
    UncertainGraph,
    condition,
    intersect_graphs,
    rescale,
    sharpen,
    threshold,
    union_graphs,
)
from tests.conftest import graphs_with_eta, random_uncertain_graph


class TestThreshold:
    def test_drops_weak_edges(self):
        g = UncertainGraph([(0, 1, 0.9), (1, 2, 0.2)])
        cut = threshold(g, 0.5)
        assert cut.has_edge(0, 1) and not cut.has_edge(1, 2)
        assert 2 in cut  # vertex survives

    def test_floor_validation(self, triangle_graph):
        with pytest.raises(ParameterError):
            threshold(triangle_graph, 1.5)

    def test_zero_floor_is_identity(self, triangle_graph):
        assert threshold(triangle_graph, 0).num_edges == 3


class TestSharpen:
    def test_gamma_below_one_raises_probabilities(self):
        g = UncertainGraph([(0, 1, 0.25)])
        assert sharpen(g, 0.5).probability(0, 1) == pytest.approx(0.5)

    def test_gamma_above_one_lowers(self):
        g = UncertainGraph([(0, 1, 0.5)])
        assert sharpen(g, 2).probability(0, 1) == pytest.approx(0.25)

    def test_order_preserved(self):
        g = random_uncertain_graph(1, 8, 0.5)
        sharp = sharpen(g, 0.7)
        edges = list(g.edges())
        for (u1, v1, p1) in edges:
            for (u2, v2, p2) in edges:
                if p1 < p2:
                    assert sharp.probability(u1, v1) <= sharp.probability(u2, v2)

    def test_validation(self, triangle_graph):
        with pytest.raises(ParameterError):
            sharpen(triangle_graph, 0)


class TestRescale:
    def test_range(self):
        g = UncertainGraph([(0, 1, 0.2), (1, 2, 0.5), (0, 2, 0.8)])
        scaled = rescale(g, 0.5, 1.0)
        probs = sorted(p for _u, _v, p in scaled.edges())
        assert probs[0] == pytest.approx(0.5)
        assert probs[-1] == pytest.approx(1.0)

    def test_constant_graph_maps_to_high(self):
        g = UncertainGraph([(0, 1, 0.3), (1, 2, 0.3)])
        scaled = rescale(g, 0.4, 0.9)
        assert all(p == pytest.approx(0.9) for _u, _v, p in scaled.edges())

    def test_empty_graph(self):
        assert rescale(UncertainGraph(), 0.5, 1.0).num_edges == 0

    def test_validation(self, triangle_graph):
        with pytest.raises(ParameterError):
            rescale(triangle_graph, 0.9, 0.5)
        with pytest.raises(ParameterError):
            rescale(triangle_graph, 0, 1)


class TestCondition:
    def test_present_pins_probability(self, triangle_graph):
        fixed = condition(triangle_graph, 0, 1, present=True)
        assert fixed.probability(0, 1) == 1.0

    def test_absent_removes_edge(self, triangle_graph):
        removed = condition(triangle_graph, 0, 1, present=False)
        assert not removed.has_edge(0, 1)
        assert removed.has_edge(1, 2)

    def test_missing_edge_raises(self, triangle_graph):
        with pytest.raises(GraphError):
            condition(triangle_graph, 0, 99, True)

    def test_law_of_total_probability(self, triangle_graph):
        """Pr(clique) = p·Pr(clique | edge) + (1-p)·Pr(clique | no edge)."""
        from repro.uncertain import clique_probability

        members = [0, 1, 2]
        p = triangle_graph.probability(0, 1)
        with_edge = clique_probability(
            condition(triangle_graph, 0, 1, True), members
        )
        without = clique_probability(
            condition(triangle_graph, 0, 1, False), members
        )
        total = p * with_edge + (1 - p) * without
        assert total == pytest.approx(clique_probability(triangle_graph, members))


class TestCombination:
    def test_union_noisy_or(self):
        a = UncertainGraph([(0, 1, 0.5)])
        b = UncertainGraph([(0, 1, 0.5), (1, 2, 0.3)])
        both = union_graphs(a, b)
        assert both.probability(0, 1) == pytest.approx(0.75)
        assert both.probability(1, 2) == pytest.approx(0.3)

    def test_union_keeps_all_vertices(self):
        a = UncertainGraph()
        a.add_vertex("only-a")
        b = UncertainGraph([(0, 1, 0.4)])
        assert "only-a" in union_graphs(a, b)

    def test_intersection_product(self):
        a = UncertainGraph([(0, 1, 0.5), (1, 2, 0.9)])
        b = UncertainGraph([(0, 1, 0.5)])
        b.add_vertex(1)
        both = intersect_graphs(a, b)
        assert both.probability(0, 1) == pytest.approx(0.25)
        assert not both.has_edge(1, 2)

    def test_intersection_commutative_probabilities(self):
        a = random_uncertain_graph(2, 8, 0.5)
        b = random_uncertain_graph(3, 8, 0.5)
        ab = intersect_graphs(a, b)
        ba = intersect_graphs(b, a)
        for u, v, p in ab.edges():
            assert ba.probability(u, v) == pytest.approx(float(p))


class TestEtaCoreDecomposition:
    @given(graphs_with_eta())
    @settings(max_examples=40, deadline=None)
    def test_consistent_with_core(self, case):
        g, eta = case
        shell = eta_core_decomposition(g, eta)
        assert set(shell) == set(g.vertices())
        for k in range(max(shell.values(), default=0) + 2):
            expected = k_eta_core_vertices(g, k, eta)
            by_shell = {v for v, s in shell.items() if s >= k}
            assert by_shell == expected, k

    def test_isolated_vertex_is_zero(self):
        g = UncertainGraph([(0, 1, 0.9)])
        g.add_vertex(7)
        assert eta_core_decomposition(g, 0.5)[7] == 0

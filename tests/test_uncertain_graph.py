"""Unit tests for :class:`repro.uncertain.UncertainGraph`."""

from fractions import Fraction

import pytest

from repro.exceptions import GraphError, InvalidProbabilityError
from repro.uncertain import UncertainGraph, normalize_edge


class TestConstruction:
    def test_empty_graph(self):
        g = UncertainGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_constructor_edges(self):
        g = UncertainGraph([(1, 2, 0.5), (2, 3, 0.7)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_add_vertex_idempotent(self):
        g = UncertainGraph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.num_vertices == 1

    def test_add_edge_creates_vertices(self):
        g = UncertainGraph()
        g.add_edge(1, 2, 0.5)
        assert 1 in g and 2 in g

    def test_add_edge_overwrites_probability(self):
        g = UncertainGraph()
        g.add_edge(1, 2, 0.5)
        g.add_edge(1, 2, 0.8)
        assert g.probability(1, 2) == 0.8
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = UncertainGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1, 0.5)

    # ``0 < True <= 1`` holds, so a range check alone would store a
    # bool that fingerprints and store keys then refuse.
    @pytest.mark.parametrize("p", [0, -0.1, 1.5, 2, True])
    def test_invalid_probability_rejected(self, p):
        g = UncertainGraph()
        with pytest.raises(InvalidProbabilityError):
            g.add_edge(1, 2, p)

    def test_probability_one_allowed(self):
        g = UncertainGraph([(1, 2, 1.0)])
        assert g.probability(1, 2) == 1.0

    def test_fraction_probability_allowed(self):
        g = UncertainGraph([(1, 2, Fraction(1, 2))])
        assert g.probability(1, 2) == Fraction(1, 2)


class TestRemoval:
    def test_remove_edge(self):
        g = UncertainGraph([(1, 2, 0.5)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_vertices == 2

    def test_remove_missing_edge_raises(self):
        g = UncertainGraph([(1, 2, 0.5)])
        with pytest.raises(GraphError):
            g.remove_edge(1, 3)

    def test_remove_vertex(self):
        g = UncertainGraph([(1, 2, 0.5), (2, 3, 0.5)])
        g.remove_vertex(2)
        assert 2 not in g
        assert g.num_edges == 0

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(GraphError):
            UncertainGraph().remove_vertex(7)


class TestQueries:
    def test_probability_of_missing_edge_is_zero(self):
        g = UncertainGraph([(1, 2, 0.5)])
        assert g.probability(1, 3) == 0
        assert g.probability(9, 10) == 0

    def test_neighbors(self):
        g = UncertainGraph([(1, 2, 0.5), (1, 3, 0.7)])
        assert g.neighbors(1) == {2: 0.5, 3: 0.7}

    def test_neighbors_of_missing_vertex_raises(self):
        with pytest.raises(GraphError):
            UncertainGraph().neighbors(1)

    def test_degree_and_max_degree(self):
        g = UncertainGraph([(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
        assert g.degree(1) == 2
        assert g.max_degree() == 2
        assert UncertainGraph().max_degree() == 0

    def test_edges_yields_each_once(self):
        g = UncertainGraph([(1, 2, 0.5), (2, 3, 0.6), (1, 3, 0.7)])
        edges = list(g.edges())
        assert len(edges) == 3
        keys = {normalize_edge(u, v) for u, v, _ in edges}
        assert keys == {(1, 2), (2, 3), (1, 3)}

    def test_iteration_and_len(self):
        g = UncertainGraph([(1, 2, 0.5)])
        assert sorted(g) == [1, 2]
        assert len(g) == 2

    def test_repr(self):
        assert repr(UncertainGraph([(1, 2, 0.5)])) == "UncertainGraph(n=2, m=1)"


class TestDerivedGraphs:
    def test_subgraph_keeps_internal_edges(self):
        g = UncertainGraph([(1, 2, 0.5), (2, 3, 0.6), (3, 4, 0.7)])
        sub = g.subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert sub.has_edge(1, 2) and sub.has_edge(2, 3)
        assert not sub.has_edge(3, 4)

    def test_subgraph_ignores_unknown_vertices(self):
        g = UncertainGraph([(1, 2, 0.5)])
        sub = g.subgraph([1, 2, 99])
        assert sub.num_vertices == 2

    def test_subgraph_does_not_alias_original(self):
        g = UncertainGraph([(1, 2, 0.5)])
        sub = g.subgraph([1, 2])
        sub.remove_edge(1, 2)
        assert g.has_edge(1, 2)

    def test_edge_subgraph(self):
        g = UncertainGraph([(1, 2, 0.5), (2, 3, 0.6), (1, 3, 0.7)])
        sub = g.edge_subgraph([(1, 2), (2, 3)])
        assert sub.num_edges == 2
        assert not sub.has_edge(1, 3)

    def test_edge_subgraph_skips_missing(self):
        g = UncertainGraph([(1, 2, 0.5)])
        sub = g.edge_subgraph([(1, 2), (5, 6)])
        assert sub.num_edges == 1

    def test_to_deterministic(self):
        g = UncertainGraph([(1, 2, 0.5), (2, 3, 0.6)])
        g.add_vertex(9)
        det = g.to_deterministic()
        assert det.num_vertices == 4
        assert det.has_edge(1, 2) and det.has_edge(2, 3)

    def test_with_exact_probabilities(self):
        g = UncertainGraph([(1, 2, 0.5), (2, 3, 0.3)])
        exact = g.with_exact_probabilities()
        assert exact.probability(1, 2) == Fraction(1, 2)
        assert exact.probability(2, 3) == Fraction(3, 10)

    def test_copy_is_independent(self):
        g = UncertainGraph([(1, 2, 0.5)])
        dup = g.copy()
        dup.add_edge(2, 3, 0.9)
        assert not g.has_edge(2, 3)


class TestComponents:
    def test_connected_components(self):
        g = UncertainGraph([(1, 2, 0.5), (3, 4, 0.5)])
        g.add_vertex(9)
        comps = sorted(sorted(c) for c in g.connected_components())
        assert comps == [[1, 2], [3, 4], [9]]

    def test_single_component(self):
        g = UncertainGraph([(1, 2, 0.5), (2, 3, 0.5)])
        assert len(g.connected_components()) == 1


class TestNormalizeEdge:
    def test_orders_comparable(self):
        assert normalize_edge(2, 1) == (1, 2)
        assert normalize_edge("b", "a") == ("a", "b")

    def test_orders_mixed_types_deterministically(self):
        assert normalize_edge(1, "a") == normalize_edge("a", 1)

"""Graph reduction: η-topdegree, (Top_k, η)-core and -triangle, orderings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ParameterError
from repro.core import enumerate_maximal_cliques
from repro.reduction import (
    ORDERINGS,
    degeneracy_ordering,
    eta_topdegree,
    top_product_count,
    top_triangle_degree,
    top_triangle_decomposition,
    topk_core,
    topk_core_decomposition,
    topk_core_vertices,
    topk_triangle,
    topk_triangle_edges,
    topk_core_ordering,
    vertex_ordering,
    verify_topk_core,
    verify_topk_triangle,
)
from repro.uncertain import UncertainGraph, clique_probability
from tests.conftest import graphs_with_eta, random_uncertain_graph


class TestTopProductCount:
    def test_takes_largest_first(self):
        assert top_product_count([0.9, 0.5, 0.8], 0.5) == 2

    def test_zero_when_nothing_fits(self):
        assert top_product_count([0.3], 0.5) == 0

    def test_all_fit(self):
        assert top_product_count([1.0, 1.0, 1.0], 0.9) == 3

    def test_base_argument(self):
        assert top_product_count([0.9], 0.5, base=0.5) == 0
        assert top_product_count([0.9], 0.4, base=0.5) == 1

    def test_eta_validation(self):
        with pytest.raises(ParameterError):
            top_product_count([0.5], 1.5)


class TestEtaTopdegree:
    def test_example(self):
        g = UncertainGraph([(0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.1)])
        assert eta_topdegree(g, 0, 0.5) == 2
        assert eta_topdegree(g, 0, 0.9) == 1
        assert eta_topdegree(g, 3, 0.05) == 1

    def test_isolated_vertex(self):
        g = UncertainGraph()
        g.add_vertex(0)
        assert eta_topdegree(g, 0, 0.5) == 0


class TestTopTriangleDegree:
    def test_triangle(self, triangle_graph):
        # p_e * (p1 * p2) = 0.9^3 = 0.729
        assert top_triangle_degree(triangle_graph, 0, 1, 0.7) == 1
        assert top_triangle_degree(triangle_graph, 0, 1, 0.75) == 0

    def test_non_edge_rejected(self, triangle_graph):
        with pytest.raises(ParameterError):
            top_triangle_degree(triangle_graph, 0, 99, 0.5)

    def test_takes_strongest_triangles(self):
        g = UncertainGraph(
            [
                (0, 1, 1.0),
                (0, 2, 0.9), (1, 2, 0.9),
                (0, 3, 0.4), (1, 3, 0.4),
            ]
        )
        # strongest triangle (apex 2) has open prob 0.81; apex 3 has 0.16.
        assert top_triangle_degree(g, 0, 1, 0.5) == 1
        assert top_triangle_degree(g, 0, 1, 0.1) == 2


class TestTopkCore:
    def test_whole_clique_survives(self, two_communities):
        core = topk_core(two_communities, 3, 0.5)
        assert set(core.vertices()) == set(range(7))

    def test_peels_weak_vertices(self):
        g = UncertainGraph([(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.1)])
        core = topk_core(g, 2, 0.5)
        assert 3 not in core
        assert set(core.vertices()) == {0, 1, 2}

    def test_result_verifies(self):
        for seed in range(6):
            g = random_uncertain_graph(seed, 14, 0.5)
            for k in (1, 2, 3):
                core = topk_core(g, k, 0.3)
                assert verify_topk_core(core, k, 0.3)

    def test_negative_k_rejected(self, triangle_graph):
        with pytest.raises(ParameterError):
            topk_core_vertices(triangle_graph, -1, 0.5)

    @given(st.integers(0, 40), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_contains_all_k_eta_cliques(self, seed, k):
        """Soundness: every maximal (k, η)-clique lies in the
        (Top_{k-1}, η)-core."""
        eta = 0.3
        g = random_uncertain_graph(seed, 10, 0.5)
        core_vertices = topk_core_vertices(g, k - 1, eta)
        for clique in enumerate_maximal_cliques(g, k, eta, "muc-basic").cliques:
            assert clique <= core_vertices

    def test_maximality_of_core(self):
        """Adding any peeled vertex back violates the core condition
        for some vertex."""
        g = random_uncertain_graph(5, 12, 0.5)
        k, eta = 2, 0.4
        survivors = topk_core_vertices(g, k, eta)
        peeled = set(g.vertices()) - survivors
        for v in peeled:
            candidate = g.subgraph(survivors | {v})
            assert not verify_topk_core(candidate, k, eta)

    @given(graphs_with_eta())
    @settings(max_examples=40, deadline=None)
    def test_decomposition_consistent_with_core(self, case):
        g, eta = case
        shell = topk_core_decomposition(g, eta)
        for k in range(max(shell.values(), default=0) + 2):
            by_shell = {v for v, s in shell.items() if s >= k}
            assert topk_core_vertices(g, k, eta) == by_shell, k

    @given(graphs_with_eta())
    @settings(max_examples=40, deadline=None)
    def test_ordering_removes_a_minimum_and_shells_are_running_maxima(
        self, case
    ):
        """The one peel, checked through the public η-topdegree alone:
        each vertex of the ordering has the minimum η-topdegree of the
        subgraph not yet removed, the running maximum of those minima
        is its shell, and the decomposition lists vertices in that
        order."""
        g, eta = case
        order = topk_core_ordering(g, eta)
        shell = topk_core_decomposition(g, eta)
        assert list(shell) == order
        rest = set(g.vertices())
        level = 0
        for v in order:
            sub = g.subgraph(rest)
            degree = {u: eta_topdegree(sub, u, eta) for u in rest}
            assert degree[v] == min(degree.values())
            level = max(level, degree[v])
            assert shell[v] == level
            rest.remove(v)
        assert not rest


class TestTopkTriangle:
    def test_strong_triangle_cluster_survives(self, two_communities):
        sub = topk_triangle(two_communities, 1, 0.5)
        assert set(sub.vertices()) == set(range(7))

    def test_result_verifies(self):
        for seed in range(6):
            g = random_uncertain_graph(seed + 10, 12, 0.6)
            for k in (1, 2):
                sub = topk_triangle(g, k, 0.2)
                assert verify_topk_triangle(sub, k, 0.2)

    def test_negative_k_rejected(self, triangle_graph):
        with pytest.raises(ParameterError):
            topk_triangle_edges(triangle_graph, -1, 0.5)

    @given(st.integers(0, 40), st.integers(3, 4))
    @settings(max_examples=25, deadline=None)
    def test_lemma8_cliques_contained(self, seed, k):
        """Lemma 8: maximal (k, η)-cliques live in the
        (Top_{k-2}, η)-triangle."""
        eta = 0.3
        g = random_uncertain_graph(seed, 10, 0.55)
        sub = topk_triangle(g, k - 2, eta)
        vertices = set(sub.vertices())
        for clique in enumerate_maximal_cliques(g, k, eta, "muc-basic").cliques:
            assert clique <= vertices
            # the clique's edges survive too
            members = sorted(clique)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert sub.has_edge(u, v)

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_lemma10_triangle_inside_core(self, seed):
        """Lemma 10: a (Top_k, η)-triangle is a (Top_{k+1}, η)-core."""
        eta = 0.3
        g = random_uncertain_graph(seed, 10, 0.6)
        for k in (1, 2):
            sub = topk_triangle(g, k, eta)
            if sub.num_vertices:
                assert verify_topk_core(sub, k + 1, eta)

    @given(graphs_with_eta())
    @settings(max_examples=40, deadline=None)
    def test_decomposition_levels(self, case):
        g, eta = case
        levels = top_triangle_decomposition(g, eta)
        assert len(levels) == g.num_edges
        assert all(s >= 0 for s in levels.values())
        # Edges at level >= k are exactly the k-triangle survivors.
        for k in range(max(levels.values(), default=0) + 2):
            survivors = topk_triangle_edges(g, k, eta)
            by_level = {e for e, s in levels.items() if s >= k}
            # Survivors come back in deterministic edge-scan order;
            # membership (not order) is what the levels predict.
            assert len(survivors) == len(set(survivors))
            assert set(survivors) == by_level, k


class TestOrderings:
    def test_names(self):
        assert set(ORDERINGS) == {"as-is", "degeneracy", "topk-core"}

    def test_all_are_permutations(self, two_communities):
        vertices = sorted(two_communities.vertices())
        for name in ORDERINGS:
            order = vertex_ordering(two_communities, name, eta=0.5)
            assert sorted(order) == vertices

    def test_unknown_ordering(self, two_communities):
        with pytest.raises(ParameterError):
            vertex_ordering(two_communities, "bogus")

    def test_topk_core_requires_eta(self, two_communities):
        with pytest.raises(ParameterError):
            vertex_ordering(two_communities, "topk-core")

    def test_degeneracy_ordering_matches_backbone(self, two_communities):
        from repro.deterministic import degeneracy_ordering as det_order

        assert degeneracy_ordering(two_communities) == det_order(
            two_communities.to_deterministic()
        )

    def test_topk_core_ordering_peels_weak_first(self):
        g = UncertainGraph(
            [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.1)]
        )
        order = topk_core_ordering(g, 0.5)
        assert order[0] == 3

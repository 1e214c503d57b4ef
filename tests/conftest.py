"""Shared fixtures and graph builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from repro.deterministic.graph import Graph
from repro.uncertain.graph import UncertainGraph

#: A grid of exact probabilities used by property-based tests: products
#: of Fractions are exact, so η-clique decisions cannot depend on the
#: multiplication order (which differs between algorithms).
EXACT_PROBABILITIES = tuple(Fraction(i, 10) for i in (3, 5, 7, 9, 10))


def random_uncertain_graph(
    seed: int,
    n: int,
    density: float = 0.5,
    probabilities=(0.3, 0.5, 0.7, 0.9, 1.0),
) -> UncertainGraph:
    """Deterministic random uncertain graph on vertices 0..n-1."""
    rng = random.Random(seed)
    graph = UncertainGraph()
    for v in range(n):
        graph.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, rng.choice(probabilities))
    return graph


@st.composite
def graphs_with_eta(draw):
    """A :func:`random_uncertain_graph` with a float ``η``, or the same
    graph under exact probabilities with the same ``η`` as a Fraction."""
    graph = random_uncertain_graph(
        draw(st.integers(0, 10_000)),
        draw(st.integers(1, 14)),
        draw(st.sampled_from((0.3, 0.5, 0.7))),
    )
    eta = Fraction(draw(st.sampled_from((1, 5, 10, 20, 30, 50, 80))), 100)
    if draw(st.booleans()):
        return graph.with_exact_probabilities(), eta
    return graph, float(eta)


def random_deterministic_graph(seed: int, n: int, density: float = 0.5) -> Graph:
    """Deterministic random graph on vertices 0..n-1."""
    rng = random.Random(seed)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


def brute_force_maximal_k_eta_cliques(graph: UncertainGraph, k: int, eta) -> list:
    """Brute-force oracle via Eq. 2 (exact with Fraction probabilities).

    Enumerates all vertex subsets, keeps η-cliques, filters the maximal
    ones of size >= k.  O(2^n) in vertices only — much cheaper than the
    possible-world oracle, which independently validates Eq. 2 itself
    in ``test_possible_worlds.py``.
    """
    from itertools import combinations

    from repro.uncertain import clique_probability

    vertices = graph.vertices()
    eta_cliques = {frozenset((v,)) for v in vertices}
    frontier = list(eta_cliques)
    for size in range(2, len(vertices) + 1):
        nxt = []
        for subset in combinations(vertices, size):
            if clique_probability(graph, subset) >= eta:
                s = frozenset(subset)
                eta_cliques.add(s)
                nxt.append(s)
        if not nxt:
            break
        frontier = nxt
    del frontier
    return as_sorted_sets(
        s
        for s in eta_cliques
        if len(s) >= k
        and not any(
            frozenset(s | {v}) in eta_cliques for v in vertices if v not in s
        )
    )


def as_sorted_sets(cliques) -> list:
    """Canonical order-independent view of a clique collection."""
    return sorted(
        (frozenset(c) for c in cliques),
        key=lambda s: (len(s), sorted(map(repr, s))),
    )


@pytest.fixture
def triangle_graph() -> UncertainGraph:
    """A 3-clique with probability 0.9 on every edge."""
    return UncertainGraph([(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)])


@pytest.fixture
def two_communities() -> UncertainGraph:
    """Two 4-cliques sharing vertex 3, strong inside, weak across."""
    graph = UncertainGraph()
    for group in ([0, 1, 2, 3], [3, 4, 5, 6]):
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v, 0.9)
    graph.add_edge(0, 6, 0.2)
    return graph

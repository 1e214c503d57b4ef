"""Kernel reductions against their dict siblings, directly.

The enumerators' parity tests compare only clique sets and counters
downstream of the reductions; here the kernel peels themselves are
compared with :mod:`repro.reduction`: the ``(Top_k, η)``-core ids with
``topk_core_vertices``, the core ordering with ``topk_core_ordering``,
and the ``(Top_k, η)``-triangle survivors, mapped to labels, with
``topk_triangle_edges`` — same edges, same order.  η is planted on an
edge's all-open-triangle product, on its k-th prefix product, on a
vertex's product of all incident probabilities and on the triangle
peel's whole-product bound, and one ulp to either side, so the peels'
fast-path band, their sorted scans and the recheck keys all meet float
ties and near-ties.
"""

import itertools
import math
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core import PMUC_PLUS_CONFIG
from repro.core.pmuc import reduce_graph
from repro.kernel.compact import CompactGraph
from repro.kernel.enumerate import KernelStateOps
from repro.kernel import reduction as kernel_reduction
from repro.kernel.reduction import (
    topk_core_ids,
    topk_core_ordering_ids,
    topk_triangle_edge_ids,
)
from repro.reduction.ordering import topk_core_ordering
from repro.reduction.topk_core import topk_core, topk_core_vertices
from repro.reduction.topk_triangle import topk_triangle_edges
from repro.uncertain import UncertainGraph
from repro.uncertain.graph import normalize_edge

LABELS = {
    "int": lambda i: 7 * i,
    "str": lambda i: "v%d" % i,
    "tuple": lambda i: (i % 3, "t%d" % i),
    # int and str labels do not compare: normalize_edge falls back to
    # repr, and so must CompactGraph.normalize_pair.
    "mixed": lambda i: i if i % 2 else "m%d" % i,
}

#: Exact-product probabilities (as in the kernel parity boundary
#: fuzzer) beside arbitrary ones.
PROBABILITIES = (0.5, 0.75, 1.0)


def open_values(graph, u, v):
    """Open-triangle values of edge ``(u, v)``, largest first."""
    nu, nv = graph.neighbors(u), graph.neighbors(v)
    return sorted((nu[w] * nv[w] for w in nu if w in nv), reverse=True)


@st.composite
def peel_cases(draw):
    """A labelled float graph, a threshold ``k`` and a planted η."""
    n = draw(st.integers(3, 20))
    rng = random.Random(draw(st.integers(0, 10_000)))
    make = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    # Insertion order is not label order, so ids and canonical pairs
    # disagree about which endpoint comes first.
    order = list(range(n))
    rng.shuffle(order)
    graph = UncertainGraph()
    for i in order:
        graph.add_vertex(make(i))
    density = rng.choice((0.3, 0.5, 0.7, 0.95))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                p = rng.choice(PROBABILITIES + (rng.uniform(0.05, 1.0),))
                graph.add_edge(make(order[a]), make(order[b]), p)
    k = draw(st.integers(0, 4))
    edges = list(graph.edges())
    if not edges:
        return graph, k, draw(st.sampled_from((0.1, 0.5, 1.0)))
    u, v, p = edges[draw(st.integers(0, len(edges) - 1))]

    def drawn_order(values):
        return [values[i] for i in draw(st.permutations(range(len(values))))]

    mode = draw(st.sampled_from(("triangles", "prefix", "vertex", "bound")))
    if mode == "triangles":
        # The all-open-triangle product, multiplied in a drawn order:
        # orders round differently, which the fast-path band absorbs.
        eta = math.prod(drawn_order(open_values(graph, u, v)), start=p)
    elif mode == "prefix":
        eta = math.prod(open_values(graph, u, v)[:k], start=p)
    elif mode == "vertex":
        # One vertex's product of all incident probabilities, in a
        # drawn order: the core peels' whole-row band.
        eta = math.prod(drawn_order(list(graph.neighbors(u).values())))
    else:
        # whole(u) * whole(v) / p(u, v): the triangle peel's bound.
        whole_u, whole_v = (
            math.prod(graph.neighbors(x).values()) for x in (u, v)
        )
        eta = whole_u * whole_v / p
    step = draw(st.sampled_from((-1, 0, 1)))
    if step:
        eta = math.nextafter(eta, 2.0 * step)
    if not 0.0 < eta <= 1.0:
        eta = p
    return graph, k, eta


def labelled(cg, pairs):
    return [(cg.labels[i], cg.labels[j]) for i, j in pairs]


@given(peel_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_peels_match_dict_peels(case):
    graph, k, eta = case
    cg = CompactGraph.from_uncertain(graph)

    core_ids = topk_core_ids(cg, k, eta)
    core = topk_core_vertices(graph, k, eta)
    assert [cg.labels[i] for i in core_ids] == [
        v for v in graph.vertices() if v in core
    ]

    survivors = labelled(cg, topk_triangle_edge_ids(cg, k, eta))
    assert survivors == topk_triangle_edges(graph, k, eta)
    assert all(normalize_edge(u, v) == (u, v) for u, v in survivors)

    # The call KernelStateOps._reduce_ids makes for enumeration k + 2:
    # peel inside the (Top_{k+1}, η)-core without inducing it.
    inside = topk_core_ids(cg, k + 1, eta)
    assert labelled(cg, topk_triangle_edge_ids(cg, k, eta, inside)) == (
        topk_triangle_edges(topk_core(graph, k + 1, eta), k, eta)
    )


@given(peel_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_core_ordering_matches_the_dict_ordering(case):
    graph, _k, eta = case
    cg = CompactGraph.from_uncertain(graph)
    assert [cg.labels[i] for i in topk_core_ordering_ids(cg, eta)] == (
        topk_core_ordering(graph, eta)
    )


@given(peel_cases())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_reduce_ids_builds_the_dict_reduced_graph(case):
    """Same vertex order, adjacency order and probabilities."""
    graph, k, eta = case
    for mode in ("core", "triangle"):
        config = replace(PMUC_PLUS_CONFIG, reduction=mode)
        ops = KernelStateOps(graph, k + 2, eta, config)
        reduced = ops._reduce_ids(CompactGraph.from_uncertain(graph))
        expected = CompactGraph.from_uncertain(
            reduce_graph(graph, k + 2, eta, config)
        )
        assert reduced.labels == expected.labels
        # Row items, not the dicts: dict equality ignores order.
        assert [list(row.items()) for row in reduced.prob] == [
            list(row.items()) for row in expected.prob
        ]


def test_fast_path_band_defers_in_band_products_to_the_sorted_scan():
    """K5 with k = 3: every edge's k-th prefix product is its product
    over all open triangles.  For edge (0, 1) that product rounds to
    different floats in different multiplication orders, so η planted
    on each order's product sits between them; a fast path that
    accepted without its band would keep (0, 1) and with it the clique
    the sorted scan peels."""
    probs = {
        (0, 1): 0.9, (0, 2): 0.83, (0, 3): 0.5, (0, 4): 0.59,
        (1, 2): 0.75, (1, 3): 0.63, (1, 4): 0.53, (2, 3): 0.93,
        (2, 4): 0.97, (3, 4): 0.65,
    }
    graph = UncertainGraph((u, v, p) for (u, v), p in probs.items())
    cg = CompactGraph.from_uncertain(graph)
    values = [probs[(0, x)] * probs[(1, x)] for x in (2, 3, 4)]
    products = set()
    for order in itertools.permutations(values):
        eta = probs[(0, 1)]
        for value in order:
            eta = eta * value
        products.add(eta)
    assert len(products) > 1  # the orders do round differently
    for eta in sorted(products):
        survivors = labelled(cg, topk_triangle_edge_ids(cg, 3, eta))
        assert survivors == topk_triangle_edges(graph, 3, eta)


def test_whole_products_settle_verdicts_without_a_scan(monkeypatch):
    """K12 with every p = 0.99, k = 3 and η = 0.01: every vertex row's
    product (0.99^11) and every edge's bound (0.99^21) clear η, so the
    core peels never rescan a row and the triangle peel multiplies
    once per vertex, not once per verdict."""
    graph = UncertainGraph(
        (u, v, 0.99) for u in range(12) for v in range(u + 1, 12)
    )
    cg = CompactGraph.from_uncertain(graph)
    calls = {"prefix_count": 0, "prod": 0}
    for name in calls:
        real = getattr(kernel_reduction, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernel_reduction, name, counted)

    assert topk_core_ids(cg, 3, 0.01) == list(range(12))
    assert calls["prefix_count"] == 0
    ordering = topk_core_ordering_ids(cg, 0.01)
    assert calls["prefix_count"] == 0
    assert [cg.labels[i] for i in ordering] == topk_core_ordering(graph, 0.01)
    calls["prod"] = 0
    assert len(topk_triangle_edge_ids(cg, 3, 0.01)) == 66
    assert calls["prod"] <= cg.n

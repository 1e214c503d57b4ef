"""η-topdegree of vertices (Eq. 4) and top triangle degree of edges (Eq. 3).

Both quantities ask the same question at different granularities: how
many of the strongest incident structures (edges, or open triangles)
can be stacked before the probability product drops below ``η``?

* The **η-topdegree** of a vertex ``v`` is the largest ``k`` such that
  the product of the ``k`` largest incident edge probabilities is at
  least ``η`` (Li et al., used by the ``(Top_k, η)``-core).
* The **top triangle degree** of an edge ``e = (u, v)`` is the largest
  ``k`` such that ``p_e`` times the product of the ``k`` largest *open
  triangle probabilities* ``p(u,w) * p(v,w)`` is at least ``η``
  (Definition 5, used by the ``(Top_k, η)``-triangle).
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import ParameterError
from repro.uncertain.graph import UncertainGraph, Vertex


def top_product_count(probabilities: Iterable, eta, base=1) -> int:
    """Largest ``k`` with ``base * (product of k largest probs) >= eta``.

    This is the shared kernel of Eq. 3 and Eq. 4.  Returns 0 when even
    the empty product (= ``base``) is below ``eta`` only if ``base`` is
    itself below ``eta``; by convention the count is then 0 as well,
    matching the papers' treatment of a hopeless edge/vertex.

    >>> top_product_count([0.9, 0.5, 0.8], 0.5)
    2
    """
    _check_eta(eta)
    return prefix_count(sorted(probabilities, reverse=True), eta, base)


def prefix_count(sorted_desc: Iterable, eta, base=1) -> int:
    """Longest prefix of descending ``sorted_desc`` whose product from
    ``base`` stays ``>= eta``.

    The one count behind Eq. 3 and Eq. 4, on every peel of both
    backends.  It multiplies left to right, so a float run reaches the
    same rounded products wherever it is called, and a ``Fraction`` run
    is exact.  Unlike :func:`top_product_count`, it does not check
    ``eta``: the peels call it once per update.
    """
    product = base
    count = 0
    for p in sorted_desc:
        product = product * p
        if product >= eta:
            count += 1
        else:
            break
    return count


def eta_topdegree(graph: UncertainGraph, v: Vertex, eta) -> int:
    """η-topdegree of vertex ``v`` (Eq. 4).

    >>> g = UncertainGraph([(0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.1)])
    >>> eta_topdegree(g, 0, 0.5)
    2
    """
    return top_product_count(graph.neighbors(v).values(), eta)


def top_triangle_degree(graph: UncertainGraph, u: Vertex, v: Vertex, eta) -> int:
    """Top triangle degree ``t_η((u, v), G)`` (Definition 5 / Eq. 3).

    Collects the open triangle probability of every triangle through
    ``(u, v)`` and counts how many of the strongest can be multiplied
    (together with ``p_e`` itself) while staying at or above ``η``.
    """
    p_e = graph.probability(u, v)
    if not p_e:
        raise ParameterError(f"({u!r}, {v!r}) is not an edge")
    nu, nv = graph.neighbors(u), graph.neighbors(v)
    if len(nu) > len(nv):
        nu, nv = nv, nu
    open_probs = [nu[w] * nv[w] for w in nu if w in nv]
    return top_product_count(open_probs, eta, base=p_e)


def _check_eta(eta) -> None:
    if not 0 <= eta <= 1:
        raise ParameterError(f"eta must lie in [0, 1], got {eta!r}")

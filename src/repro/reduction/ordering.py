"""Vertex orderings for the enumeration outer loop (Section 4.5).

Algorithm 3 processes vertices in a global order; the order controls
the size and the edge-probability profile of the candidate sets, and
therefore how well the pivot pruning performs.  The paper evaluates:

* **as-is** — the input order (baseline ``PMUC-R`` in Exp-2);
* **degeneracy** — minimum-degree peeling on the deterministic
  backbone (``PMUC-C``), bounding candidate sets by the degeneracy δ;
* **(Top_k, η)-core** — minimum η-topdegree peeling (``PMUC+``),
  which additionally pushes high-probability edges into the candidate
  subgraphs and empirically dominates the other two.
"""

from __future__ import annotations

from typing import List

from repro.exceptions import ParameterError
from repro.deterministic.core import degeneracy_ordering as _det_degeneracy
from repro.reduction.topk_core import topk_core_decomposition
from repro.uncertain.graph import UncertainGraph, Vertex

#: Names accepted by :func:`vertex_ordering`.
ORDERINGS = ("as-is", "degeneracy", "topk-core")


def as_is_ordering(graph: UncertainGraph) -> List[Vertex]:
    """The input (insertion) order."""
    return graph.vertices()


def degeneracy_ordering(graph: UncertainGraph) -> List[Vertex]:
    """Minimum-degree peeling order on the deterministic backbone."""
    return _det_degeneracy(graph.to_deterministic())


def topk_core_ordering(graph: UncertainGraph, eta) -> List[Vertex]:
    """Minimum η-topdegree peeling order.

    The removal order of the one peel behind
    :func:`~repro.reduction.topk_core.topk_core_decomposition`, whose
    dict keys come in that order.
    """
    return list(topk_core_decomposition(graph, eta))


def vertex_ordering(graph: UncertainGraph, name: str, eta=None) -> List[Vertex]:
    """Dispatch an ordering by name (one of :data:`ORDERINGS`)."""
    if name == "as-is":
        return as_is_ordering(graph)
    if name == "degeneracy":
        return degeneracy_ordering(graph)
    if name == "topk-core":
        if eta is None:
            raise ParameterError("topk-core ordering requires eta")
        return topk_core_ordering(graph, eta)
    raise ParameterError(
        f"unknown ordering {name!r}; expected one of {ORDERINGS}"
    )

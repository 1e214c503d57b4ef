"""Dense integer-id graph representation for the bitset kernel.

The dict-of-dicts :class:`~repro.uncertain.graph.UncertainGraph` is the
right structure for construction and for exact (Fraction) runs, but the
enumeration hot path only ever intersects neighborhoods and multiplies
edge probabilities.  :class:`CompactGraph` re-encodes a float-probability
graph for exactly that workload:

* vertices are remapped to dense ids ``0 .. n-1`` (insertion order of
  the source graph, so downstream tie-breaking matches the dict path);
* each neighborhood is a Python big-int **bitset** — bit ``u`` of
  ``nbr_bits[v]`` is set iff ``(v, u)`` is an edge — so restricting a
  candidate set to ``N(v)`` is one word-parallel ``&``;
* edge probabilities live in parallel arrays (``nbr_ids[v]`` /
  ``nbr_probs[v]`` / ``nbr_nlogs[v]``) plus per-vertex ``{id: p}`` and
  ``{id: -log p}`` dictionaries for O(1) random access.  The ``-log p``
  table turns clique-probability thresholds into additive comparisons
  (see :mod:`repro.kernel.enumerate` for the exactness guard).

Only ``float``/``int`` probabilities are supported: exact
:class:`~fractions.Fraction` graphs raise :class:`KernelBackendError`
and the enumerator falls back to the dict backend.
"""

from __future__ import annotations

from math import log
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import KernelBackendError
from repro.uncertain.graph import UncertainGraph, Vertex


try:
    #: Population count for big-int bitsets.  ``int.bit_count`` is a C
    #: intrinsic from Python 3.10 on; the unbound-method call form
    #: (``bit_count(bits)``) lets hot loops bind it as a local.
    bit_count = int.bit_count
except AttributeError:  # pragma: no cover - Python 3.9 fallback
    def bit_count(bits: int) -> int:
        """Portable popcount: number of set bits in ``bits``."""
        # repro-lint: ok REP011 bin() here IS the popcount (3.9 fallback)
        return bin(bits).count("1")


class CompactGraph:
    """An uncertain graph over dense int ids with bitset neighborhoods.

    Attributes
    ----------
    n:
        Number of vertices.
    labels:
        ``labels[i]`` is the original vertex of id ``i`` (insertion
        order of the source graph).
    index:
        Inverse mapping ``{label: id}``.
    nbr_bits:
        Per-vertex neighbor bitsets (Python big-ints).
    nbr_ids / nbr_probs / nbr_nlogs:
        Parallel adjacency arrays in source-graph neighbor order:
        neighbor id, edge probability, and ``-log p``.
    prob / nlog:
        Per-vertex ``{neighbor_id: p}`` and ``{neighbor_id: -log p}``
        for random access inside ``GenerateSet``.
    """

    __slots__ = (
        "n",
        "labels",
        "index",
        "nbr_bits",
        "nbr_ids",
        "nbr_probs",
        "nbr_nlogs",
        "prob",
        "nlog",
    )

    def __init__(self, labels: Sequence[Vertex]):
        self.n = len(labels)
        self.labels: List[Vertex] = list(labels)
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(labels)}
        if len(self.index) != self.n:
            raise KernelBackendError("duplicate vertex labels")
        self.nbr_bits: List[int] = [0] * self.n
        self.nbr_ids: List[List[int]] = [[] for _ in range(self.n)]
        self.nbr_probs: List[List[float]] = [[] for _ in range(self.n)]
        self.nbr_nlogs: List[List[float]] = [[] for _ in range(self.n)]
        self.prob: List[Dict[int, float]] = [{} for _ in range(self.n)]
        self.nlog: List[Dict[int, float]] = [{} for _ in range(self.n)]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_uncertain(cls, graph: UncertainGraph) -> "CompactGraph":
        """Compile ``graph`` into the kernel representation.

        Raises
        ------
        KernelBackendError
            If any edge probability is not a ``float`` (or ``int``).
        """
        cg = cls(graph.vertices())
        index = cg.index
        for v in graph:
            i = index[v]
            nbrs = graph.neighbors(v)
            probs: List[float] = []
            for p in nbrs.values():
                if not isinstance(p, (float, int)):
                    raise KernelBackendError(
                        f"kernel backend requires float probabilities, "
                        f"an edge at {v!r} has {type(p).__name__}"
                    )
                probs.append(float(p))
            cg._set_row(i, [index[u] for u in nbrs], probs)
        return cg

    def _set_row(
        self,
        i: int,
        ids: List[int],
        probs: List[float],
        nlogs: Optional[List[float]] = None,
    ) -> None:
        """Install vertex ``i``'s full adjacency row in one shot."""
        bits = 0
        for j in ids:
            bits |= 1 << j
        if nlogs is None:
            nlogs = [(-log(p) if p < 1.0 else 0.0) for p in probs]
        self.nbr_bits[i] = bits
        self.nbr_ids[i] = ids
        self.nbr_probs[i] = probs
        self.nbr_nlogs[i] = nlogs
        self.prob[i] = dict(zip(ids, probs))
        self.nlog[i] = dict(zip(ids, nlogs))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def degree(self, i: int) -> int:
        """Number of neighbors of id ``i``."""
        return len(self.nbr_ids[i])

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return sum(len(ids) for ids in self.nbr_ids) // 2

    def edges_in_insertion_order(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each edge once, mirroring ``UncertainGraph.edges()``.

        The scan order (outer vertex by id, neighbors in source order,
        first occurrence wins) reproduces the dict representation's edge
        iteration exactly, which downstream code relies on for
        deterministic, backend-identical tie-breaking.  Ids are
        insertion ranks, so an edge's first occurrence is at its
        smaller endpoint: no seen-set is needed.
        """
        for i in range(self.n):
            row_ids = self.nbr_ids[i]
            row_probs = self.nbr_probs[i]
            for j, p in zip(row_ids, row_probs):
                if j > i:
                    yield (i, j, p)

    def normalize_pair(self, i: int, j: int) -> Tuple[int, int]:
        """Canonical id pair ordered like ``normalize_edge`` on labels.

        Ids follow insertion order, not label order, so the canonical
        form must compare the original labels (with the same ``repr``
        fallback) to stay aligned with the dict path.
        """
        u, v = self.labels[i], self.labels[j]
        try:
            return (i, j) if u <= v else (j, i)  # type: ignore[operator]
        except TypeError:
            return (i, j) if repr(u) <= repr(v) else (j, i)

    def backbone_adjacency(self) -> List[List[int]]:
        """Adjacency lists ordered like the deterministic backbone.

        ``UncertainGraph.to_deterministic`` inserts edges in global
        ``edges()`` scan order, so a vertex's backbone neighbor order is
        the order its edges appear in that scan — not the order of its
        own adjacency row.  The degeneracy peel is sensitive to this
        order, so the kernel mirrors it explicitly.
        """
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for i, j, _p in self.edges_in_insertion_order():
            adj[i].append(j)
            adj[j].append(i)
        return adj

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced(self, ids: Iterable[int]) -> "CompactGraph":
        """Induced subgraph on ``ids``; new ids follow ascending old id.

        Ascending old id equals source insertion order, matching the
        (deterministic) vertex order of ``UncertainGraph.subgraph``.
        """
        keep = sorted(set(ids))
        remap = {old: new for new, old in enumerate(keep)}
        sub = CompactGraph([self.labels[i] for i in keep])
        for i, old in enumerate(keep):
            row_ids: List[int] = []
            row_probs: List[float] = []
            row_nlogs: List[float] = []
            for j_old, p, nl in zip(
                self.nbr_ids[old], self.nbr_probs[old], self.nbr_nlogs[old]
            ):
                j = remap.get(j_old)
                if j is not None:
                    row_ids.append(j)
                    row_probs.append(p)
                    row_nlogs.append(nl)
            sub._set_row(i, row_ids, row_probs, row_nlogs)
        return sub

    def edge_induced(
        self, edges: Iterable[Tuple[int, int]]
    ) -> "CompactGraph":
        """Subgraph induced by an edge list; vertex order of first use.

        Mirrors ``UncertainGraph.edge_subgraph``: the new vertex order
        is the order endpoints first appear in ``edges``.
        """
        edge_list = list(edges)
        order: List[int] = []
        seen = 0
        for i, j in edge_list:
            for v in (i, j):
                if not seen >> v & 1:
                    seen |= 1 << v
                    order.append(v)
        remap = {old: new for new, old in enumerate(order)}
        sub = CompactGraph([self.labels[i] for i in order])
        rows_ids: List[List[int]] = [[] for _ in order]
        rows_probs: List[List[float]] = [[] for _ in order]
        rows_nlogs: List[List[float]] = [[] for _ in order]
        for i, j in edge_list:
            p = self.prob[i][j]
            nl = self.nlog[i][j]
            a, b = remap[i], remap[j]
            rows_ids[a].append(b)
            rows_probs[a].append(p)
            rows_nlogs[a].append(nl)
            rows_ids[b].append(a)
            rows_probs[b].append(p)
            rows_nlogs[b].append(nl)
        for i in range(len(order)):
            sub._set_row(i, rows_ids[i], rows_probs[i], rows_nlogs[i])
        return sub

    def relabeled(self, order: Sequence[int]) -> "CompactGraph":
        """Copy with ids permuted so ``order[t]`` becomes id ``t``.

        Used to renumber vertices into enumeration-rank order, after
        which candidate bitsets iterate in rank order for free.
        """
        if len(order) != self.n:
            raise KernelBackendError("relabel order must cover all ids")
        remap = [0] * self.n
        for new, old in enumerate(order):
            remap[old] = new
        out = CompactGraph([self.labels[old] for old in order])
        for i, old in enumerate(order):
            out._set_row(
                i,
                [remap[j] for j in self.nbr_ids[old]],
                self.nbr_probs[old],
                self.nbr_nlogs[old],
            )
        return out

    def __repr__(self) -> str:
        return f"CompactGraph(n={self.n}, m={self.num_edges})"

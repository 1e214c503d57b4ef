"""Dense integer-id graph representation for the bitset kernel.

The dict-of-dicts :class:`~repro.uncertain.graph.UncertainGraph` is the
right structure for construction and for exact (Fraction) runs, but the
enumeration hot path only ever intersects neighborhoods and multiplies
edge probabilities.  :class:`CompactGraph` re-encodes a float-probability
graph for exactly that workload, in two encodings over dense ids
``0 .. n-1`` (insertion order of the source graph, so downstream
tie-breaking matches the dict path):

* each neighborhood is a Python big-int **bitset** — bit ``u`` of
  ``nbr_bits[v]`` is set iff ``(v, u)`` is an edge — so restricting a
  candidate set to ``N(v)`` is one word-parallel ``&``;
* each vertex has one ``{neighbor_id: p}`` row, ``prob[v]``, in
  source-graph neighbor order.  Iterating a row gives every scan and
  tie-break its order, and indexing it gives the exact float replays
  and the triangle peel their random access.

Nothing here takes a logarithm: the ``-log p`` table of the additive
threshold tests is built once, for the rank-ordered search graph, by
:meth:`repro.kernel.enumerate.KernelStateOps.prepare_ordering`.

Only ``float``/``int`` probabilities are supported: an exact
:class:`~fractions.Fraction` graph raises :class:`KernelBackendError`
(``effective_backend`` sends one to the dict backend first).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

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

    Each edge is encoded twice, in ``nbr_bits`` and ``prob``, and
    :meth:`_set_row` keeps the two in step.

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
    prob:
        Per-vertex ``{neighbor_id: p}`` rows in source-graph neighbor
        order: iteration order for the scans and tie-breaks, indexing
        for the exact replays and the triangle peel.
    """

    __slots__ = ("n", "labels", "index", "nbr_bits", "prob")

    def __init__(self, labels: Sequence[Vertex]):
        self.n = len(labels)
        self.labels: List[Vertex] = list(labels)
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(labels)}
        if len(self.index) != self.n:
            raise KernelBackendError("duplicate vertex labels")
        self.nbr_bits: List[int] = [0] * self.n
        self.prob: List[Dict[int, float]] = [{} for _ in range(self.n)]

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
            row: Dict[int, float] = {}
            for u, p in graph.neighbors(v).items():
                if not isinstance(p, (float, int)):
                    raise KernelBackendError(
                        f"kernel backend requires float probabilities, "
                        f"an edge at {v!r} has {type(p).__name__}"
                    )
                row[index[u]] = float(p)
            cg._set_row(index[v], row)
        return cg

    def _set_row(self, i: int, row: Dict[int, float]) -> None:
        """Install vertex ``i``'s ``{neighbor_id: p}`` row and bitset."""
        bits = 0
        for j in row:
            bits |= 1 << j
        self.nbr_bits[i] = bits
        self.prob[i] = row

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def degree(self, i: int) -> int:
        """Number of neighbors of id ``i``."""
        return len(self.prob[i])

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return sum(map(len, self.prob)) // 2

    def edges_in_insertion_order(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each edge once, mirroring ``UncertainGraph.edges()``.

        The scan order (outer vertex by id, neighbors in source order,
        first occurrence wins) reproduces the dict representation's edge
        iteration exactly, which downstream code relies on for
        deterministic, backend-identical tie-breaking.  Ids are
        insertion ranks, so an edge's first occurrence is at its
        smaller endpoint: no seen-set is needed.
        """
        for i, row in enumerate(self.prob):
            for j, p in row.items():
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
            row: Dict[int, float] = {}
            for j_old, p in self.prob[old].items():
                j = remap.get(j_old)
                if j is not None:
                    row[j] = p
            sub._set_row(i, row)
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
        rows: List[Dict[int, float]] = [{} for _ in order]
        for i, j in edge_list:
            p = self.prob[i][j]
            a, b = remap[i], remap[j]
            rows[a][b] = p
            rows[b][a] = p
        for i, row in enumerate(rows):
            sub._set_row(i, row)
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
                i, {remap[j]: p for j, p in self.prob[old].items()}
            )
        return out

    def __repr__(self) -> str:
        return f"CompactGraph(n={self.n}, m={self.num_edges})"

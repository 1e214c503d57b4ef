"""Kernel-backed graph reduction, orderings and coloring on int ids.

These are the int-id counterparts of :mod:`repro.reduction` and the
deterministic helpers the enumerator consults.  Every function here is
*tie-break compatible* with its dict sibling: given the same source
graph it produces the same vertex (label) sequences, same color
assignment and same surviving subgraph, so the kernel backend can swap
in without perturbing pivot choices or ``SearchStats`` counters.

Results are unique where the theory says so (the maximal
``(Top_k, η)``-core and ``(Top_k, η)``-triangle subgraphs do not depend
on peel order), but iteration order still leaks into downstream
insertion order — hence the explicit mirroring of the dict scan orders
documented in :class:`repro.kernel.compact.CompactGraph`.
"""

from __future__ import annotations

import heapq
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.kernel.compact import CompactGraph, bit_count


def prefix_count(sorted_desc: List[float], eta: float) -> int:
    """Longest prefix of a descending list whose product stays >= eta."""
    product = 1
    count = 0
    for p in sorted_desc:
        product = product * p
        if product >= eta:
            count += 1
        else:
            break
    return count


# ----------------------------------------------------------------------
# (Top_k, eta)-core
# ----------------------------------------------------------------------
def topk_core_ids(cg: CompactGraph, k: int, eta: float) -> List[int]:
    """Ids (ascending) of the maximal ``(Top_k, η)``-core of ``cg``."""
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    n = cg.n
    alive = (1 << n) - 1 if n else 0
    incident = [sorted(row, reverse=True) for row in cg.nbr_probs]
    topdeg = [prefix_count(incident[v], eta) for v in range(n)]
    queue = [v for v in range(n) if topdeg[v] < k]
    while queue:
        v = queue.pop()
        if not alive >> v & 1:
            continue
        alive &= ~(1 << v)
        for u, p in zip(cg.nbr_ids[v], cg.nbr_probs[v]):
            if not alive >> u & 1:
                continue
            incident[u].remove(p)
            if topdeg[u] >= k:
                topdeg[u] = prefix_count(incident[u], eta)
                if topdeg[u] < k:
                    queue.append(u)
    out = []
    while alive:
        low = alive & -alive
        out.append(low.bit_length() - 1)
        alive ^= low
    return out


# ----------------------------------------------------------------------
# (Top_k, eta)-triangle
# ----------------------------------------------------------------------
#: Recheck keys of the value peel outside the values' range [0, 1]:
#: ``key < 0`` marks a failed (queued) edge, ``key > 1`` a fast one.
_FAIL = -1.0
_FAST = 2.0


def topk_triangle_edge_ids(
    cg: CompactGraph,
    k: int,
    eta: float,
    within: Optional[Sequence[int]] = None,
) -> List[Tuple[int, int]]:
    """Surviving edges of the maximal ``(Top_k, η)``-triangle subgraph.

    ``within`` (ascending ids, default all) restricts the peel to the
    subgraph it induces, so ``topk_triangle_edge_ids(cg, k, eta,
    core)`` equals the peel of ``cg.induced(core)`` without building
    it.  Edges are canonical id pairs (label-ordered, see
    :meth:`CompactGraph.normalize_pair`) in deterministic edge-scan
    order, ready for :meth:`CompactGraph.edge_induced`.

    The peel keeps no per-edge triangle tables.  ``live[v]`` is the
    bitset of ``v``'s surviving edges, so the open triangles of edge
    ``(a, c)`` are exactly ``live[a] & live[c]``, and an apex's value
    ``p(a, x) * p(c, x)`` is recomputed when needed.  The top triangle
    degree never exceeds the open-triangle count, so a first pass
    peels on popcounts alone; only its survivors get a value verdict.
    Deleting the edges in either pass can only lower other degrees,
    and the maximal subgraph is unique, so the two passes in sequence
    reach the same survivors as any single peel.
    """
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    n = cg.n
    ids: Sequence[int] = range(n) if within is None else within
    bit_at = [1 << i for i in range(n)]
    mask = 0
    for i in ids:
        mask |= bit_at[i]
    live = [bits & mask for bits in cg.nbr_bits]
    nbr_ids = cg.nbr_ids
    if k:
        queue = [
            (i, j)
            for i in ids
            for j in nbr_ids[i]
            if j > i
            and live[i] & bit_at[j]
            and bit_count(live[i] & live[j]) < k
        ]
        _peel_counts(live, bit_at, queue, k)
        _peel_values(cg, live, bit_at, ids, k, eta)
    normalize = cg.normalize_pair
    return [
        normalize(i, j)
        for i in ids
        for j in nbr_ids[i]
        if j > i and live[i] & bit_at[j]
    ]


def _peel_counts(
    live: List[int], bit_at: List[int], queue: List[Tuple[int, int]], k: int
) -> None:
    """Delete the queued edges and every edge left with < k triangles.

    Deleting ``(u, v)`` takes exactly one open triangle from each side
    edge ``(u, w)``/``(v, w)``, so a side's count passes ``k - 1`` once:
    queueing on that value queues every edge at most once.
    """
    below = k - 1
    while queue:
        u, v = queue.pop()
        live[u] ^= bit_at[v]
        live[v] ^= bit_at[u]
        lu = live[u]
        lv = live[v]
        common = lu & lv
        while common:
            w = common.bit_length() - 1
            common ^= bit_at[w]
            lw = live[w]
            if bit_count(lu & lw) == below:
                queue.append((u, w))
            if bit_count(lv & lw) == below:
                queue.append((v, w))


def _peel_values(
    cg: CompactGraph,
    live: List[int],
    bit_at: List[int],
    ids: Sequence[int],
    k: int,
    eta: float,
) -> None:
    """Peel the live edges whose top triangle degree is below ``k``.

    The degree is the longest prefix of the descending open-triangle
    values whose product with ``p(e)`` stays >= η.  Factors are <= 1,
    so float prefix products never increase and "degree >= k" is
    exactly "the k-th prefix product >= η" — the only question asked.
    Each verdict leaves one recheck key per edge: the k-th largest
    value, or ``_FAST`` when the product over *all* open triangles
    clears η with a 1e-9 relative band (every prefix then clears it
    too; the band dwarfs the order-dependent rounding drift of
    ~2m·2⁻⁵³, and in-band cases take the sorted scan).  Losing a value
    below the key leaves the first k values, hence the verdict,
    unchanged; a fast edge keeps clearing the band as factors leave,
    so it rechecks only its count.
    """
    prob = cg.prob
    nbr_ids = cg.nbr_ids
    eta_hi = eta + eta * 1e-9
    kth = k - 1

    def verdict(a: int, c: int) -> float:
        common = live[a] & live[c]
        if bit_count(common) < k:
            return _FAIL
        pa = prob[a]
        pc = prob[c]
        values = []
        while common:
            x = common.bit_length() - 1
            common ^= bit_at[x]
            values.append(pa[x] * pc[x])
        p_e = pa[c]
        if prod(values, start=p_e) >= eta_hi:
            return _FAST
        # prod multiplies left to right in IEEE doubles: this is the
        # float the dict path's sorted scan reaches after k factors.
        values.sort(reverse=True)
        return values[kth] if prod(values[:k], start=p_e) >= eta else _FAIL

    # One key per edge, mirrored so either endpoint's row reads it.  An
    # edge is queued once, when its key turns _FAIL, and never revisited.
    keys: List[Dict[int, float]] = [{} for _ in live]
    queue = []
    for i in ids:
        row = keys[i]
        for j in nbr_ids[i]:
            if j > i and live[i] & bit_at[j]:
                row[j] = keys[j][i] = key = verdict(i, j)
                if key < 0.0:
                    queue.append((i, j))
    while queue:
        u, v = queue.pop()
        live[u] ^= bit_at[v]
        live[v] ^= bit_at[u]
        lu = live[u]
        lv = live[v]
        common = lu & lv
        while common:
            w = common.bit_length() - 1
            common ^= bit_at[w]
            row = keys[w]
            pw = prob[w]
            lw = live[w]
            # Side (a, w) lost the triangle at apex ``lost``.
            for a, lost in ((u, v), (v, u)):
                key = row[a]
                if key < 0.0:
                    continue
                if key > 1.0:
                    if bit_count(live[a] & lw) >= k:
                        continue
                    key = _FAIL
                elif prob[a][lost] * pw[lost] < key:
                    continue
                else:
                    key = verdict(a, w)
                row[a] = keys[a][w] = key
                if key < 0.0:
                    queue.append((a, w))


# ----------------------------------------------------------------------
# orderings
# ----------------------------------------------------------------------
def topk_core_ordering_ids(cg: CompactGraph, eta: float) -> List[int]:
    """Minimum η-topdegree peeling order over int ids.

    Heap ties break on ``repr`` of the *original labels*, exactly like
    :func:`repro.reduction.ordering.topk_core_ordering`.
    """
    n = cg.n
    # One repr per vertex, not one per requeue push — peeling pushes
    # each vertex O(degree) times.
    reprs = [repr(label) for label in cg.labels]
    incident = [sorted(row, reverse=True) for row in cg.nbr_probs]
    topdeg = [prefix_count(incident[v], eta) for v in range(n)]
    heap = [(topdeg[v], reprs[v], v) for v in range(n)]
    heapq.heapify(heap)
    alive = (1 << n) - 1 if n else 0
    order: List[int] = []
    while heap:
        d, _tie, v = heapq.heappop(heap)
        if not alive >> v & 1 or d != topdeg[v]:
            continue
        alive &= ~(1 << v)
        order.append(v)
        for u, p in zip(cg.nbr_ids[v], cg.nbr_probs[v]):
            if alive >> u & 1:
                incident[u].remove(p)
                new_deg = prefix_count(incident[u], eta)
                if new_deg != topdeg[u]:
                    topdeg[u] = new_deg
                    heapq.heappush(heap, (new_deg, reprs[u], u))
    return order


def degeneracy_ordering_ids(cg: CompactGraph) -> List[int]:
    """Minimum-degree peeling order, bucket-queue, on int ids.

    Mirrors :func:`repro.deterministic.core.degeneracy_ordering` on the
    backbone, including its neighbor iteration order (global edge-scan
    order, see :meth:`CompactGraph.backbone_adjacency`).
    """
    n = cg.n
    adj = cg.backbone_adjacency()
    degree = [len(adj[v]) for v in range(n)]
    max_deg = max(degree, default=0)
    buckets: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    removed = 0
    order: List[int] = []
    pointer = 0
    while len(order) < n:
        while pointer <= max_deg and not buckets[pointer]:
            pointer += 1
        v = buckets[pointer].pop()
        if removed >> v & 1:
            continue
        if degree[v] != pointer:
            continue
        removed |= 1 << v
        order.append(v)
        for u in adj[v]:
            if not removed >> u & 1:
                degree[u] -= 1
                buckets[degree[u]].append(u)
                if degree[u] < pointer:
                    pointer = degree[u]
    return order


def vertex_ordering_ids(cg: CompactGraph, name: str, eta=None) -> List[int]:
    """Dispatch an ordering by configuration name, over int ids."""
    if name == "as-is":
        return list(range(cg.n))
    if name == "degeneracy":
        return degeneracy_ordering_ids(cg)
    if name == "topk-core":
        if eta is None:
            raise ParameterError("topk-core ordering requires eta")
        return topk_core_ordering_ids(cg, eta)
    raise ParameterError(f"unknown ordering {name!r}")


# ----------------------------------------------------------------------
# coloring
# ----------------------------------------------------------------------
def greedy_coloring_ids(cg: CompactGraph) -> List[int]:
    """Greedy coloring in descending-degree order (stable by id).

    Same processing order as the dict path (Python's stable sort breaks
    degree ties by insertion order = id), hence identical colors.
    """
    n = cg.n
    order = sorted(range(n), key=cg.degree, reverse=True)
    colors = [-1] * n
    for v in order:
        taken = {colors[u] for u in cg.nbr_ids[v] if colors[u] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors

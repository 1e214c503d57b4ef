"""Seeded random weighted-graph generators.

These supply the topologies onto which
:mod:`repro.datasets.probability` models are applied to form uncertain
graphs.  All generators are deterministic given a seed and return a
``{(u, v): weight}`` edge-weight dictionary over integer vertices
``0 .. n-1``.

The community generator plants overlapping dense groups — the regime
where maximal-clique enumeration is non-trivial and where the paper's
pivot pruning pays off — while the ER and preferential-attachment
generators provide sparse backgrounds mimicking communication
networks (whose edge weights count repeated interactions).
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.exceptions import DatasetError

EdgeWeights = Dict[Tuple[int, int], float]


def gnm_weighted(
    n: int, m: int, seed: int = 0, max_weight: int = 10
) -> EdgeWeights:
    """Erdős–Rényi G(n, m) with geometric interaction weights."""
    _check(n >= 0 and m >= 0, "n and m must be non-negative")
    _check(m <= n * (n - 1) // 2, "m exceeds the number of vertex pairs")
    rng = random.Random(seed)
    edges: EdgeWeights = {}
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = _interaction_weight(rng, max_weight)
    return edges


def barabasi_albert_weighted(
    n: int, attachment: int, seed: int = 0, max_weight: int = 10
) -> EdgeWeights:
    """Preferential attachment: each new vertex attaches to ``attachment``
    existing vertices chosen proportionally to degree (plus smoothing)."""
    _check(n > attachment >= 1, "need n > attachment >= 1")
    rng = random.Random(seed)
    edges: EdgeWeights = {}
    targets = list(range(attachment))
    repeated: list = list(range(attachment))
    for v in range(attachment, n):
        chosen = set()
        while len(chosen) < attachment:
            pick = rng.choice(repeated) if repeated and rng.random() < 0.9 else rng.randrange(v)
            if pick != v:
                chosen.add(pick)
        # Sorting `chosen` would reorder the _interaction_weight draws and
        # change every committed random-graph fixture.
        # repro-lint: ok REP001 a set of small ints has unsalted hashes, so its order is reproducible
        for u in chosen:
            edges[(min(u, v), max(u, v))] = _interaction_weight(rng, max_weight)
            repeated.append(u)
            repeated.append(v)
    del targets
    return edges


def planted_communities_weighted(
    n: int,
    communities: int,
    community_size: int,
    p_in: float = 0.85,
    p_out_edges: int = 0,
    seed: int = 0,
    max_weight: int = 10,
    overlap: int = 0,
) -> EdgeWeights:
    """Overlapping dense communities over a sparse background.

    ``communities`` groups of ``community_size`` vertices are chosen
    (consecutive blocks shifted by ``community_size - overlap`` so that
    adjacent groups share ``overlap`` vertices).  Pairs inside a group
    are connected with probability ``p_in`` and carry high weights;
    ``p_out_edges`` random background edges with low weights are added
    on top.
    """
    _check(communities >= 0 and community_size >= 2, "bad community shape")
    rng = random.Random(seed)
    edges: EdgeWeights = {}
    stride = max(community_size - overlap, 1)
    for c in range(communities):
        start = (c * stride) % max(n - community_size + 1, 1)
        group = list(range(start, min(start + community_size, n)))
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                if rng.random() < p_in:
                    key = (min(u, v), max(u, v))
                    # Dense-community interactions are frequent: high weight.
                    edges[key] = max(
                        edges.get(key, 0), _interaction_weight(rng, max_weight, heavy=True)
                    )
    added = 0
    attempts = 0
    while added < p_out_edges and attempts < 20 * (p_out_edges + 1):
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = _interaction_weight(rng, max_weight)
            added += 1
    return edges


def sample_vertices(edges: EdgeWeights, fraction: float, seed: int = 0) -> EdgeWeights:
    """Vertex-induced subsample used by the scalability experiment."""
    _check(0 < fraction <= 1, "fraction must be in (0, 1]")
    rng = random.Random(seed)
    vertices = {v for e in edges for v in e}
    keep = {v for v in vertices if rng.random() < fraction}
    return {e: w for e, w in edges.items() if e[0] in keep and e[1] in keep}


def sample_edges(edges: EdgeWeights, fraction: float, seed: int = 0) -> EdgeWeights:
    """Edge subsample used by the scalability experiment."""
    _check(0 < fraction <= 1, "fraction must be in (0, 1]")
    rng = random.Random(seed)
    return {e: w for e, w in edges.items() if rng.random() < fraction}


def _interaction_weight(rng: random.Random, max_weight: int, heavy: bool = False) -> int:
    """Geometric-ish interaction count; heavy edges skew larger.

    Heavy (intra-community) edges represent pairs with many repeated
    interactions: under the exponential CDF model they map to
    probabilities around 0.95-0.995, which is what lets the planted
    communities host large η-cliques — the regime where the paper's
    datasets live and where pivot pruning matters.
    """
    if heavy:
        weight = min(6 + _geometric_tail(rng, 0.55), max_weight)
        return max(weight, 1)
    return min(1 + _geometric_tail(rng, 0.45), max_weight)


def _geometric_tail(rng: random.Random, keep_going: float) -> int:
    extra = 0
    while extra < 30 and rng.random() < keep_going:
        extra += 1
    return extra


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise DatasetError(message)

"""A full parameter study with the session and parallel APIs.

Sweeps k on one dataset three ways and reports the cost of each:

1. naive — a fresh ``PMUC+`` run (reduction included) per k;
2. session — one :class:`CliqueQuerySession` whose core/triangle
   decompositions are computed once and sliced per k;
3. partitioned — the k=6 query split into 4 independent seed chunks,
   run one after another in this process (``processes=1``); more
   processes fan the same chunks out to a process pool.

Also exports the largest community of the final query as GraphViz DOT.

Run:  python examples/parameter_study.py
"""

import time

from repro.applications import community_to_dot
from repro.core import (
    CliqueQuerySession,
    enumerate_maximal_cliques,
    enumerate_parallel,
)
from repro.datasets import load_dataset

ETA = 0.1
KS = (4, 5, 6, 7, 8, 9, 10)


def main() -> None:
    graph = load_dataset("soflow")
    print(f"dataset: {graph}\n")

    start = time.perf_counter()
    naive_counts = {}
    for k in KS:
        naive_counts[k] = len(enumerate_maximal_cliques(graph, k, ETA).cliques)
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    session = CliqueQuerySession(graph, ETA)
    session_counts = session.size_profile(KS)
    session_seconds = time.perf_counter() - start

    assert session_counts == naive_counts
    print("k-sweep (maximal cliques per k):")
    for k in KS:
        print(f"  k={k:2d}: {naive_counts[k]}")
    print(f"\nnaive sweep:   {naive_seconds:.2f}s "
          f"(re-reduces the graph {len(KS)} times)")
    print(f"session sweep: {session_seconds:.2f}s "
          f"(one decomposition, sliced per k)")

    start = time.perf_counter()
    merged = enumerate_parallel(graph, 6, ETA, parts=4, processes=1)
    print(f"\npartitioned k=6 run: {len(merged)} cliques in "
          f"{time.perf_counter() - start:.2f}s across 4 independent chunks")

    biggest = max(merged.cliques, key=len)
    dot = community_to_dot(graph, biggest, query=sorted(biggest)[0],
                           name="largest_clique")
    print(f"\nlargest clique has {len(biggest)} members; "
          f"DOT drawing is {len(dot)} bytes (pipe to `dot -Tpng`)")


if __name__ == "__main__":
    main()

"""Multi-query sessions: amortize reductions across many ``k`` values.

A parameter study (like the paper's Fig. 3 k-sweep) runs many queries
with the same ``η`` and different ``k``.  The reduction decompositions
make that cheap: the ``(Top_k, η)``-core decomposition assigns every
vertex the largest ``k`` whose core contains it, and the
``(Top_k, η)``-triangle decomposition does the same per edge — so after
one decomposition pass, *any* ``k``'s reduced graph is a dictionary
slice instead of a fresh peeling.

:class:`CliqueQuerySession` precomputes both decompositions once and
answers ``query(k)`` by slicing and enumerating with the reduction
switched off (it already happened).

With a :class:`~repro.store.store.RunStore` attached, the session
becomes the service layer's reuse surface:

* the decompositions are loaded from (or published to) the store's
  shared reduction cache, keyed by the exact ``(dataset fingerprint,
  η, engine salt)`` — so *any* number of sessions and serve-loop
  batches at the same η pay for one decomposition total;
* ``query(k)`` answers through the store's one path,
  :func:`~repro.store.records.replay_or_run`, under the run's
  canonical :class:`~repro.store.key.RunKey` (procedure ``"slice"``):
  a hit returns the stored cliques with the stored counters and
  performs **zero engine recursion** (no enumerator, no observer, no
  search); a miss enumerates, persists, and returns the live result.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from dataclasses import replace

from repro.core.config import (
    PMUC_PLUS_CONFIG, PivotConfig, require_eta, require_k,
)
from repro.core.pmuc import PivotEnumerator
from repro.core.stats import EnumerationResult
from repro.reduction.topk_core import topk_core_decomposition
from repro.reduction.topk_triangle import top_triangle_decomposition
from repro.uncertain.graph import UncertainGraph, normalize_edge


class CliqueQuerySession:
    """Answer maximal ``(k, η)``-clique queries for many ``k`` at fixed η.

    Parameters
    ----------
    graph:
        The uncertain graph (not copied; do not mutate during the
        session).
    eta:
        The probability threshold shared by all queries.
    config:
        Enumeration configuration; its ``reduction`` field is ignored
        (the session's sliced subgraph already is the reduced graph).
    store:
        Optional :class:`~repro.store.store.RunStore`: reuse stored
        query results and share the decompositions through the store's
        reduction cache (see the module docstring).
    dataset_fingerprint:
        Optional precomputed :func:`repro.store.key.graph_fingerprint`
        of ``graph`` (skips rehashing when the caller already paid for
        it); ignored without ``store``.

    Examples
    --------
    >>> from repro.datasets import figure1_graph
    >>> session = CliqueQuerySession(figure1_graph(), eta=0.53)
    >>> len(session.query(4).cliques)
    2
    >>> len(session.query(5).cliques)
    1
    """

    def __init__(
        self,
        graph: UncertainGraph,
        eta,
        config: PivotConfig = PMUC_PLUS_CONFIG,
        store=None,
        dataset_fingerprint: Optional[str] = None,
    ):
        require_eta(eta)
        self._graph = graph
        self._eta = eta
        self._config = replace(config, reduction="off")
        self._store = store
        self._fingerprint = dataset_fingerprint
        #: The first query's RunKey; only ``k`` and the env-dependent
        #: ``variant`` change after it.
        self._slice_key = None
        #: Store interaction counts for this session (queries answered
        #: from the store / enumerated live; reduction cache reuse).
        self.query_hits = 0
        self.query_misses = 0
        self.reduction_reused = False
        if store is None:
            self._core_shell = topk_core_decomposition(graph, eta)
            self._triangle_shell = top_triangle_decomposition(graph, eta)
        else:
            self._load_or_compute_decompositions()

    def _load_or_compute_decompositions(self) -> None:
        from repro.store.key import graph_fingerprint, reduction_key_for

        if self._fingerprint is None:
            self._fingerprint = graph_fingerprint(self._graph)
        rkey = reduction_key_for(
            self._graph, self._eta,
            dataset_fingerprint=self._fingerprint,
        )
        cached = self._store.get_reduction(rkey)
        if cached is not None:
            self._core_shell, self._triangle_shell = cached
            self.reduction_reused = True
            return
        self._core_shell = topk_core_decomposition(self._graph, self._eta)
        self._triangle_shell = top_triangle_decomposition(
            self._graph, self._eta
        )
        self._store.put_reduction(
            rkey, self._core_shell, self._triangle_shell
        )

    # ------------------------------------------------------------------
    def reduced_graph(self, k: int) -> UncertainGraph:
        """The ``(Top_{k-2}, η)``-triangle (inside the core) for query ``k``.

        Falls back to the core slice for ``k == 2`` and to the full
        graph for ``k == 1`` (where reductions are unsound).
        """
        require_k(k)
        if k == 1:
            return self._graph
        core_vertices = {
            v for v, shell in self._core_shell.items() if shell >= k - 1
        }
        core = self._graph.subgraph(core_vertices)
        if k == 2:
            return core
        # The core's edge-scan order, not the shell dict's: that is
        # removal order when computed and store order when loaded, and
        # the slice's vertex order steers coloring tie-breaks and with
        # them the run's effort counters.
        shell = self._triangle_shell
        surviving = [
            e
            for e in (normalize_edge(u, v) for u, v, _p in core.edges())
            if shell[e] >= k - 2
        ]
        return core.edge_subgraph(surviving)

    def query_key(self, k: int):
        """The canonical :class:`~repro.store.key.RunKey` of ``query(k)``.

        Procedure ``"slice"``: the decomposition slice is a sound
        superset of the direct peeling, so clique sets agree with
        ``"peel"`` runs but effort counters are procedure-specific —
        the key keeps the two replay surfaces separate.
        """
        from repro.store.key import run_key_for, variant_class

        if self._slice_key is None:
            self._slice_key = run_key_for(
                self._graph, k, self._eta, self._config,
                procedure="slice",
                dataset_fingerprint=self._fingerprint,
                reduction="triangle",
            )
        return replace(
            self._slice_key, k=k, variant=variant_class(self._config)
        )

    def query(
        self,
        k: int,
        on_clique: Optional[Callable[[frozenset], None]] = None,
    ) -> EnumerationResult:
        """Enumerate all maximal ``(k, η)``-cliques using the cache.

        With a store attached (and no streaming sink), a repeated key
        is answered from storage: stored cliques, stored counters, no
        recursion.  A streaming ``on_clique`` always enumerates live —
        the caller asked for emission callbacks, not a result set.
        """
        if self._store is None or on_clique is not None:
            reduced = self.reduced_graph(k)
            return PivotEnumerator(
                reduced, k, self._eta, self._config, on_clique
            ).run()
        return self.lookup(k)[2]

    def lookup(self, k: int) -> tuple:
        """``query(k)`` through the store: ``(key, record, result, hit)``.

        ``record`` is the stored one on a hit and the one just written
        on a miss, so callers never read the entry back.
        """
        from repro.store.records import replay_or_run, run_stamped

        key = self.query_key(k)
        result, record, stored = replay_or_run(
            self._store,
            key,
            lambda: run_stamped(
                "session",
                PivotEnumerator(
                    self.reduced_graph(k), k, self._eta, self._config
                ),
                k,
                self._eta,
            ),
        )
        hit = stored is not None
        if hit:
            self.query_hits += 1
        else:
            self.query_misses += 1
        return key, record, result, hit

    def size_profile(self, k_values) -> Dict[int, int]:
        """Number of maximal cliques per ``k`` (a Fig.-3-style sweep)."""
        return {k: len(self.query(k).cliques) for k in k_values}

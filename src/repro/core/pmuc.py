"""``PMUC`` / ``PMUC+`` — pivot-based enumeration (Algorithm 3).

The search itself — the ``R / C / X`` recursion with the M-pivot
periphery pruning of Section 4 and the K-pivot size stopping of
Section 5 — lives exactly once, in :mod:`repro.engine.driver`.  This
module contributes two things:

* :class:`DictStateOps` — the reference **dict backend** of the
  engine's :class:`~repro.engine.protocol.StateOps` protocol.  ``C``
  and ``X`` are dictionaries ``{vertex: r}`` over arbitrary hashable
  labels and arbitrary numeric probability types (including exact
  :class:`~fractions.Fraction`), projected by the ``GenerateSet``
  kernel of :mod:`repro.core.candidates`.
* :class:`PivotEnumerator` — the public facade: argument validation,
  backend selection (:func:`repro.kernel.enumerate.effective_backend`:
  ``config.backend == "kernel"`` runs the bitset backend when
  :func:`repro.kernel.enumerate.supports` allows, silently falling
  back to the dict backend otherwise), and the ``pmuc`` /
  ``pmuc_plus`` convenience wrappers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import ParameterError
from repro.core.candidates import generate_set, initial_candidates
from repro.core.config import (
    PMUC_CONFIG, PMUC_PLUS_CONFIG, PivotConfig, require_eta, require_k,
)
from repro.core.pivot import PivotContext, get_strategy
from repro.core.stats import EnumerationResult, SearchStats
from repro.engine.protocol import SearchOps, StateOps, checked_order
from repro.reduction.ordering import vertex_ordering
from repro.reduction.topk_core import topk_core
from repro.reduction.topk_triangle import topk_triangle
from repro.uncertain.graph import UncertainGraph, Vertex

Sink = Callable[[frozenset], None]


def reduce_graph(
    graph: UncertainGraph, k: int, eta, config: PivotConfig
) -> UncertainGraph:
    """Apply the configured pre-enumeration graph reduction.

    Reductions drop vertices that cannot appear in any maximal
    ``(k, η)``-clique; they are only sound for ``k >= 2`` (core) and
    ``k >= 3`` (triangle), because smaller cliques need no incident
    structure at all.  Exposed at module level so the parallel driver
    can reduce once and ship the result to every chunk.
    """
    mode = config.reduction
    if mode == "off" or k < 2:
        return graph
    reduced = topk_core(graph, k - 1, eta)
    if mode == "triangle" and k >= 3:
        reduced = topk_triangle(reduced, k - 2, eta)
    return reduced


class DictStateOps(StateOps):
    """Dict/set state algebra for the search engine (the reference).

    Candidate and exclusion sets are dictionaries ``{vertex: r}``
    where ``r`` is the product of the probabilities of the edges
    joining the vertex to every member of the current clique ``R``
    (the invariant of :mod:`repro.core.candidates`); the accumulated
    clique probability ``q = Pr(R)`` threads through as a plain
    product, exact for whatever numeric type the graph carries.
    """

    name = "dict"
    log_domain = False
    unit = 1

    def __init__(self, graph: UncertainGraph, k: int, eta, config):
        self.graph = graph
        self._k = k
        self._eta = eta
        self._config = config
        self._strategy = get_strategy(config.pivot)
        self.ctx: PivotContext = PivotContext({}, {}, {}, {}, k)
        self.rank: Dict[Vertex, int] = {}
        self.search_graph = graph
        self._order: List[Vertex] = []
        self._backbone = None

    # -- prelude -------------------------------------------------------
    def prepare_reduction(self) -> None:
        self.search_graph = reduce_graph(
            self.graph, self._k, self._eta, self._config
        )

    def prepare_ordering(self, order) -> None:
        if order is None:
            order = vertex_ordering(
                self.search_graph, self._config.ordering, self._eta
            )
        else:
            order = checked_order(order, self.search_graph.vertices())
        self._order = list(order)
        self.rank = {v: i for i, v in enumerate(self._order)}
        self._backbone = self.search_graph.to_deterministic()
        self.ctx = PivotContext.from_backbone(self._backbone, self._k)

    def search_size(self) -> int:
        return self.search_graph.num_vertices

    def context(self):
        return (
            list(self.search_graph.vertices()),
            self.ctx.color,
            list(self._backbone.edges()),
        )

    def roots(self, seeds):
        if seeds is None:
            return self._order
        seed_set = set(seeds)
        return [v for v in self._order if v in seed_set]

    def root_state(self, v):
        return initial_candidates(self.search_graph, v, self._eta, self.rank)

    # -- hot path ------------------------------------------------------
    def search_ops(self) -> SearchOps:
        graph = self.search_graph
        eta = self._eta
        ctx = self.ctx
        strategy = self._strategy
        color = ctx.color
        rank_of = self.rank.__getitem__
        raise_lower_bound = ctx.raise_lower_bound
        color_bound = self._config.kpivot == "color"

        def open_node(c, size):
            keys = sorted(c, key=rank_of)
            raise_lower_bound(keys, size)
            if len(keys) == 1:
                return keys, keys[0]
            return keys, strategy(keys, ctx)

        def color_reaches(vertices, need):
            return len({color[v] for v in vertices}) >= need

        def expand(u, c, x, q, r, need1):
            q_new = q * c[u]
            c_new = generate_set(graph, u, c, q_new, eta)
            if need1 <= 0:
                viable = True
            elif len(c_new) < need1:
                viable = False
            elif color_bound:
                viable = len({color[v] for v in c_new}) >= need1
            else:
                viable = True
            # A size-pruned branch never reads X, so the projection is
            # deferred into the viable case.
            x_new = generate_set(graph, u, x, q_new, eta) if viable else None
            return q_new, c_new, x_new, None, viable

        def retract(u, c, x, c_child, x_token):
            x[u] = c.pop(u)
            return c, x

        return SearchOps(
            open_node=open_node,
            lb_refresh=raise_lower_bound,
            color_reaches=color_reaches,
            expand=expand,
            retract=retract,
            decode=frozenset,
        )


class PivotEnumerator:
    """One configured enumeration run over an uncertain graph.

    Parameters
    ----------
    graph:
        The uncertain graph to search.
    k:
        Minimum clique size (positive integer).
    eta:
        Probability threshold in ``(0, 1]``.
    config:
        A :class:`~repro.core.config.PivotConfig`; defaults to the
        paper's ``PMUC+`` settings.
    on_clique:
        Optional streaming sink; suppresses accumulation when given.
    limit:
        Optional cap on the number of cliques to emit; the search stops
        cleanly once reached (useful for existence checks and top-k
        style probing of enormous result sets).
    """

    def __init__(
        self,
        graph: UncertainGraph,
        k: int,
        eta,
        config: PivotConfig = PMUC_PLUS_CONFIG,
        on_clique: Optional[Sink] = None,
        limit: Optional[int] = None,
    ):
        require_k(k)
        require_eta(eta)
        if limit is not None and limit < 1:
            raise ParameterError(f"limit must be positive, got {limit!r}")
        self._limit = limit
        self._graph = graph
        self._k = k
        self._eta = eta
        self._config = config
        self._result = EnumerationResult()
        self._on_clique = on_clique
        self._san = None
        #: The run's :class:`~repro.obs.observer.Observer` (or None);
        #: populated by :meth:`run`, left in place afterwards so
        #: callers can read the collected metrics.
        self.obs = None
        #: Which backend :meth:`run` actually executed on ("dict" or
        #: "kernel") — the configured backend may silently fall back.
        self.backend_used = "dict"
        #: :func:`~repro.engine.driver.variant_id` of the compiled
        #: recursion variant :meth:`run` executed (None before any
        #: run).  Bench records stamp this: timings compare only
        #: within one variant.
        self.variant_used: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> SearchStats:
        """Search counters of the latest run (final after :meth:`run`)."""
        return self._result.stats

    def run(
        self,
        seeds=None,
        *,
        order: Optional[Sequence[Vertex]] = None,
    ) -> EnumerationResult:
        """Execute the enumeration and return cliques plus statistics.

        Parameters
        ----------
        seeds:
            Optional collection of vertices: only outer-loop roots in
            ``seeds`` are expanded.  Each maximal clique is emitted by
            exactly one root (its minimum vertex in the global
            ordering), so running disjoint seed sets covering ``V`` and
            taking the union reproduces the full result — the basis of
            the parallel driver in :mod:`repro.core.partition`.
        order:
            Optional precomputed vertex ordering over the reduced
            graph; skips the in-run ordering computation.  It must
            list every vertex of the reduced graph exactly once, or
            the run raises :class:`ParameterError` before any root
            runs.  The parallel driver hands every chunk the parent's
            ordering (and the parent's reduced graph with
            ``reduction="off"``), so all chunks agree on each clique's
            emitting seed.
        """
        # Imported lazily: the engine driver reaches into repro.sanitize
        # / repro.obs, which pull repro.core.config back in — a
        # module-level import would close the cycle through the
        # repro.core package __init__.
        from repro.engine.driver import SearchEngine
        from repro.kernel.enumerate import KernelStateOps, effective_backend

        # The kernel needs float (or int) probabilities and ``eta``;
        # exact Fraction runs silently keep the dict backend.
        self.backend_used = effective_backend(
            self._graph, self._eta, self._config
        )
        ops: StateOps
        if self.backend_used == "kernel":
            eta = float(self._eta)
            ops = KernelStateOps(self._graph, self._k, eta, self._config)
        else:
            eta = self._eta
            ops = DictStateOps(self._graph, self._k, eta, self._config)
        # Each run fills a fresh result: a second run must not add its
        # cliques and counters to the first run's.
        self._result = EnumerationResult()
        engine = SearchEngine(
            ops,
            self._k,
            eta,
            self._config,
            self._result,
            self._on_clique,
            self._limit,
        )
        try:
            return engine.run(seeds, order=order)
        finally:
            self._san = engine.san
            self.obs = engine.obs
            self.variant_used = engine.variant


def pmuc(
    graph: UncertainGraph,
    k: int,
    eta,
    on_clique: Optional[Sink] = None,
) -> EnumerationResult:
    """Run the paper's ``PMUC`` configuration (Section 4 techniques)."""
    return PivotEnumerator(graph, k, eta, PMUC_CONFIG, on_clique).run()


def pmuc_plus(
    graph: UncertainGraph,
    k: int,
    eta,
    on_clique: Optional[Sink] = None,
) -> EnumerationResult:
    """Run the paper's ``PMUC+`` configuration (Sections 4 and 5)."""
    return PivotEnumerator(graph, k, eta, PMUC_PLUS_CONFIG, on_clique).run()

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
  backend selection (``config.backend == "kernel"`` delegates to the
  bitset backend when :func:`repro.kernel.enumerate.supports` allows,
  silently falling back to the dict backend otherwise), and the
  ``pmuc`` / ``pmuc_plus`` convenience wrappers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import ParameterError
from repro.core.candidates import generate_set, initial_candidates
from repro.core.config import PMUC_CONFIG, PMUC_PLUS_CONFIG, PivotConfig
from repro.core.pivot import PivotContext, get_strategy
from repro.core.stats import EnumerationResult, SearchStats
from repro.engine.protocol import SearchOps, StateOps, register_backend
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
    structure at all.  Exposed at module level so the partitioned and
    parallel drivers can reduce once and ship the result to workers.
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
    def prepare_reduction(self, reduced_graph) -> None:
        self.search_graph = (
            reduced_graph
            if reduced_graph is not None
            else reduce_graph(self.graph, self._k, self._eta, self._config)
        )

    def prepare_ordering(self, order) -> None:
        if order is None:
            order = vertex_ordering(
                self.search_graph, self._config.ordering, self._eta
            )
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

    def bind_observer(self, obs) -> None:
        # Recursion paths already carry vertex labels; nothing to wire.
        pass

    def bind_sanitizer(self, san):
        return san

    def bind_sink(self, sink, cliques):
        # ``decode`` is ``frozenset``: the reference keeps its sets.
        return cliques.sink() if sink is None else sink

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


register_backend("dict", DictStateOps)


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
        if not isinstance(k, int) or k < 1:
            raise ParameterError(f"k must be a positive integer, got {k!r}")
        if not 0 < eta <= 1:
            raise ParameterError(f"eta must lie in (0, 1], got {eta!r}")
        if limit is not None and limit < 1:
            raise ParameterError(f"limit must be positive, got {limit!r}")
        self._limit = limit
        self._graph = graph
        self._k = k
        self._eta = eta
        self._config = config
        self._result = EnumerationResult()
        self._on_clique = on_clique
        self._ctx: PivotContext = PivotContext({}, {}, {}, {}, k)
        self._rank: Dict[Vertex, int] = {}
        self._search_graph = graph
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
        #: run).  Bench records stamp this so ``repro.obs diff`` can
        #: refuse cross-variant comparisons.
        self.variant_used: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> SearchStats:
        """Search counters of the run (final after :meth:`run`)."""
        return self._result.stats

    def run(
        self,
        seeds=None,
        *,
        reduced_graph: Optional[UncertainGraph] = None,
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
            the partitioned/parallel driver in
            :mod:`repro.core.partition`.
        reduced_graph:
            Optional pre-reduced graph (as returned by
            :func:`reduce_graph` for this configuration); skips the
            in-run reduction.  Used by the parallel driver so workers
            do not repeat the reduction.
        order:
            Optional precomputed vertex ordering over
            ``reduced_graph``; skips the in-run ordering computation.
        """
        if self._config.backend == "kernel":
            kernel = self._make_kernel()
            if kernel is not None:
                self.backend_used = "kernel"
                try:
                    return kernel.run(
                        seeds, reduced_graph=reduced_graph, order=order
                    )
                finally:
                    self.obs = kernel.obs
                    self.variant_used = kernel.variant_used
        # Imported lazily: the engine driver reaches into repro.sanitize
        # / repro.obs, which pull repro.core.config back in — a
        # module-level import would close the cycle through the
        # repro.core package __init__.
        from repro.engine.driver import SearchEngine

        ops = DictStateOps(self._graph, self._k, self._eta, self._config)
        engine = SearchEngine(
            ops,
            self._k,
            self._eta,
            self._config,
            self._result,
            self._on_clique,
            self._limit,
        )
        self.backend_used = "dict"
        try:
            return engine.run(
                seeds, reduced_graph=reduced_graph, order=order
            )
        finally:
            self._san = engine.san
            self.obs = engine.obs
            self.variant_used = engine.variant
            self._ctx = ops.ctx
            self._rank = ops.rank
            self._search_graph = ops.search_graph

    # ------------------------------------------------------------------
    def _make_kernel(self):
        """Build the bitset fast path, or None when unsupported.

        The kernel requires float (or int) probabilities and ``eta``;
        exact :class:`~fractions.Fraction` runs silently keep the dict
        path, which handles arbitrary numeric types.
        """
        from repro.kernel.enumerate import KernelEnumerator, supports

        if not supports(self._graph, self._eta):
            return None
        return KernelEnumerator(
            self._graph,
            self._k,
            self._eta,
            self._config,
            self._result,
            self._on_clique,
            self._limit,
        )


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

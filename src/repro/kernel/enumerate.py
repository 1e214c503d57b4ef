"""Bitset/integer fast path of the pivot enumerator.

This module is the **kernel backend** of the shared search engine
(:mod:`repro.engine`): the recursion control flow runs once, in
:func:`repro.engine.driver.build_search`, and this module supplies the
state algebra over the :class:`~repro.kernel.compact.CompactGraph`
representation as one ``fast_ops`` namespace, which the engine's
``bitset`` recursion inlines on every kernel run, hooked or not:

* ``C`` and ``X`` are **bitsets** (Python big-ints).  The
  ``GenerateSet`` kernel of Algorithm 1 becomes one word-parallel
  ``bits & nbr_bits[u]`` followed by a per-survivor threshold test —
  non-neighbors cost one AND for the whole set instead of one hash
  probe each.
* Per-candidate clique probabilities are tracked **additively** in the
  log domain: the shared array ``sv[w]`` holds
  ``-log Pr(R ∪ {w})/Pr(R)`` (the dict backend's ``r`` value) and the
  scalar ``nlq`` holds ``-log Pr(R)``, so the η-threshold test is one
  addition and one comparison.
* Vertices are relabeled so that **id order equals enumeration rank**:
  iterating a candidate bitset from the lowest bit up yields the
  rank-sorted work list with no sorting at all.

**Exactness guard.** The dict backend decides ``q_new * r_new >= eta``
with IEEE-754 products; log-domain sums round differently.  Whenever
the additive test lands within a conservative error band of the
threshold (``REL_GUARD`` — orders of magnitude wider than the maximal
accumulated float error), the kernel replays the dict backend's exact
multiplication sequence for that candidate and uses *its* verdict.
Outside the band the two tests provably agree, so the kernel emits
byte-identical clique sets and identical ``SearchStats`` counters.

Only float (or int) probabilities and thresholds are supported;
:class:`~fractions.Fraction` graphs raise
:class:`~repro.exceptions.KernelBackendError` at compile time and the
caller falls back to the dict backend.
"""

from __future__ import annotations

from itertools import repeat
from math import log
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence

from repro.exceptions import KernelBackendError
from repro.core.stats import EnumerationResult
from repro.engine.protocol import StateOps, register_backend
from repro.kernel.compact import CompactGraph, bit_count
from repro.kernel.reduction import (
    greedy_coloring_ids,
    topk_core_ids,
    topk_triangle_edge_ids,
    vertex_ordering_ids,
)
from repro.uncertain.graph import UncertainGraph

#: Relative half-width of the boundary band inside which the additive
#: log-domain test defers to an exact float replay.  Accumulated
#: floating-point error across both domains is bounded well below
#: ``1e-12 * (1 + |total|)`` for any feasible recursion depth; the
#: guard is ~1000x wider.
REL_GUARD = 1e-9


def supports(graph: UncertainGraph, eta) -> bool:
    """True when ``graph``/``eta`` can run on the kernel backend."""
    if not isinstance(eta, (float, int)):
        return False
    # Adjacency maps, not edges(), which normalizes and dedups each edge.
    numeric = repeat((float, int))
    return all(
        all(map(isinstance, graph.neighbors(v).values(), numeric))
        for v in graph
    )


def effective_backend(graph: UncertainGraph, eta, config) -> str:
    """The backend ``PivotEnumerator.run`` would actually execute.

    ``config.backend == "kernel"`` silently falls back to the dict
    backend when :func:`supports` refuses the inputs, so any identity
    derived from the *configured* backend would split cache keys that
    produce byte-identical runs (and merge keys that do not).  The run
    store keys on this resolved value instead.
    """
    if config.backend == "kernel" and supports(graph, eta):
        return "kernel"
    return "dict"


class KernelStateOps(StateOps):
    """Bitset/log-domain state algebra for the search engine.

    The candidate handle is ``None`` when empty, else a two-slot
    ``[c_bits, c_list]`` pair (bitset plus its ascending-id survivor
    list — the invariant ``c_bits == 0  <=>  c_list == []`` makes
    ``None`` the only falsy form).  The exclusion handle is the bare
    bitset.  The one hot path is :meth:`fast_ops`: every run, hooked or
    not, executes the engine's bitset recursion, which inlines these
    arrays and keeps the shared ``sv`` array in step with ``R``.
    """

    name = "kernel"
    log_domain = True
    unit = 0.0

    def __init__(self, graph: UncertainGraph, k: int, eta, config):
        if not isinstance(eta, (float, int)):
            raise KernelBackendError(
                f"kernel backend requires a float eta, got {type(eta).__name__}"
            )
        self.graph = graph
        self._k = k
        self._eta = float(eta)
        self._nl_eta = -log(self._eta) if self._eta < 1.0 else 0.0
        # Constant half-width of the exactness guard band.  Near the
        # decision boundary ``|total| ~ nl_eta``, so a band scaled to
        # ``nl_eta`` dominates the accumulated float error (~1e-12
        # relative) by three orders of magnitude while staying narrow
        # enough that exact replays are rare.
        self._guard = REL_GUARD * (2.0 + 2.0 * self._nl_eta)
        self._config = config
        # Populated by the prepare_* prelude:
        self._cg: CompactGraph = CompactGraph([])
        self._cg_red: Optional[CompactGraph] = None
        self._sv: List[float] = []
        self._deg: List[int] = []
        self._color: List[int] = []
        self._colnum: List[int] = []
        self._lb: List[int] = []

    # -- prelude: reduction, ordering, coloring — all on int ids -------
    def _reduce_ids(self, cg: CompactGraph) -> CompactGraph:
        """Kernel counterpart of :func:`repro.core.pmuc.reduce_graph`."""
        mode = self._config.reduction
        k = self._k
        if mode == "off" or k < 2:
            return cg
        core = topk_core_ids(cg, k - 1, self._eta)
        if mode == "triangle" and k >= 3:
            # Peel inside the core's vertex set: no induced copy.
            return cg.edge_induced(
                topk_triangle_edge_ids(cg, k - 2, self._eta, core)
            )
        return cg.induced(core)

    def prepare_reduction(self, reduced_graph) -> None:
        if reduced_graph is not None:
            self._cg_red = CompactGraph.from_uncertain(reduced_graph)
        else:
            self._cg_red = self._reduce_ids(
                CompactGraph.from_uncertain(self.graph)
            )

    def prepare_ordering(self, order_labels) -> None:
        cg_red = self._cg_red
        if order_labels is not None:
            order = [cg_red.index[v] for v in order_labels]
        else:
            order = vertex_ordering_ids(
                cg_red, self._config.ordering, self._eta
            )
        # Pivot context (degree / color / color number) is computed in
        # the reduced graph's insertion-order ids — the same processing
        # order as the dict path — then permuted into rank ids.
        colors_red = greedy_coloring_ids(cg_red)
        self._cg = cg_red.relabeled(order)
        self._deg = [cg_red.degree(old) for old in order]
        self._color = [colors_red[old] for old in order]
        self._colnum = [
            len({colors_red[u] for u in cg_red.nbr_ids[old]})
            for old in order
        ]
        n = self._cg.n
        self._lb = [1] * n
        self._sv = [0.0] * n
        # Fused integer sort keys for the hybrid pivot rule: comparing
        # ``colnum * (n + 1) + lb`` (resp. ``deg * (n + 1) + colnum``)
        # is the lexicographic comparison of the pairs because both
        # minor terms are bounded by ``n < n + 1``.  ``max`` over a
        # list-indexing key runs at C speed and keeps the dict
        # backend's first-max-wins tie-breaking.
        m = n + 1
        self._cn_base = [c * m for c in self._colnum]
        self._cn_lb = [base + 1 for base in self._cn_base]
        self._deg_cn = [
            d * m + c for d, c in zip(self._deg, self._colnum)
        ]
        # Dense ``-log p`` rows: ``nlogr[u][w]`` is read millions of
        # times per run, and list indexing beats dict probing.  Only
        # neighbor slots are ever read (survivors come out of
        # ``bits & nbr_bits[u]``), so the 0.0 filler is never seen.
        # O(n^2) pointers is fine at benchmark scale; huge graphs keep
        # the sparse per-vertex dicts.
        if n <= 2048:
            nbr_ids = self._cg.nbr_ids
            nbr_nlogs = self._cg.nbr_nlogs
            rows: List[List[float]] = []
            for u in range(n):
                row = [0.0] * n
                for j, nl in zip(nbr_ids[u], nbr_nlogs[u]):
                    row[j] = nl
                rows.append(row)
            self._nlogr = rows
        else:
            self._nlogr = self._cg.nlog
        self._hi_base = self._nl_eta + self._guard
        self._guard2 = self._guard + self._guard

    def search_size(self) -> int:
        return self._cg.n

    def context(self):
        # The coloring is checked in rank-id space: proper is proper
        # under any relabeling, and the recursion's covers arrive
        # id-translated through the IdSanitizer anyway.
        cg = self._cg
        return (
            list(cg.labels),
            dict(enumerate(self._color)),
            [
                (u, w)
                for u in range(cg.n)
                for w in cg.nbr_ids[u]
                if w > u
            ],
        )

    def bind_observer(self, obs) -> None:
        if obs is not None:
            # The recursion passes raw int-id paths; translation to
            # labels happens only for sampled nodes.
            obs.set_labels(self._cg.labels)

    def bind_sanitizer(self, san):
        from repro.sanitize.sanitizer import IdSanitizer

        return IdSanitizer(san, self._cg.labels)

    def bind_sink(self, sink, cliques):
        # The recursion emits rank-id tuples.  Collected, they stay id
        # rows over the rank-ordered label table; a caller's sink gets
        # each clique as a frozenset of labels.
        labels = self._cg.labels
        if sink is None:
            return cliques.sink(labels)
        label_of = labels.__getitem__
        return lambda row: sink(frozenset(map(label_of, row)))

    def roots(self, seeds):
        n = self._cg.n
        if seeds is None:
            return range(n)
        index = self._cg.index
        ids = set()
        for v in seeds:
            i = index.get(v)
            if i is not None:
                ids.add(i)
        return sorted(ids)

    def root_state(self, v):
        cg = self._cg
        eta = self._eta
        sv = self._sv
        nlog_v = cg.nlog[v]
        c_bits = 0
        x_bits = 0
        for u, p in cg.prob[v].items():
            if p >= eta:
                sv[u] = nlog_v[u]
                if u > v:
                    c_bits |= 1 << u
                else:
                    x_bits |= 1 << u
        c_list: List[int] = []
        b = c_bits
        while b:
            low = b & -b
            b ^= low
            c_list.append(low.bit_length() - 1)
        return ([c_bits, c_list] if c_bits else None), x_bits

    # -- hot path ------------------------------------------------------
    def _exact_accept(self, w: int, r: List[int]) -> bool:
        """Replay the dict backend's float decision for candidate ``w``.

        Recomputes ``r_w`` (edge products in the order clique members
        were added) and ``q`` (the threaded clique probability) with
        the exact multiplication sequence of the dict backend, then
        applies its ``q_new * r_new >= eta`` test verbatim.
        """
        prob = self._cg.prob
        r_val = 1.0
        prob_w = prob[w]
        for t in r:
            r_val = r_val * prob_w[t]
        q = 1.0
        for idx in range(1, len(r)):
            row = prob[r[idx]]
            r_t = 1.0
            for jdx in range(idx):
                r_t = r_t * row[r[jdx]]
            q = q * r_t
        return q * r_val >= self._eta

    def _exact_x_member(self, w: int, r: List[int]) -> bool:
        """Replay the dict backend's per-level float verdicts for ``w``.

        The deferred exclusion test (lazy ``X``, see the engine's
        bitset variant) only consults ``X`` at leaves; the dict
        backend, by contrast, filters ``X`` at every level.  Exact
        values are monotone nonincreasing along the path, so outside
        the guard band the leaf verdict decides every level at once —
        but *inside* the band each level's IEEE-754 product sequence
        must be replayed individually: ``w`` is still an exclusion
        witness iff ``q_m * r_m >= eta`` held at every prefix
        ``r[:m]``.  The groupings below are exactly the dict
        backend's (incremental products in member-addition order).
        """
        prob = self._cg.prob
        eta = self._eta
        prob_w = prob[w]
        r_val = 1.0 * prob_w[r[0]]
        q = 1.0
        if q * r_val < eta:
            return False
        for idx in range(1, len(r)):
            row = prob[r[idx]]
            r_t = 1.0
            for jdx in range(idx):
                r_t = r_t * row[r[jdx]]
            q = q * r_t
            r_val = r_val * prob_w[r[idx]]
            if q * r_val < eta:
                return False
        return True

    def fast_ops(self) -> SimpleNamespace:
        """Raw bitset hot state for the engine's bitset recursion.

        Everything the bitset recursion template needs, as one flat
        namespace the specializer binds to locals: the shared ``sv``
        array, bitset adjacency, dense ``-log`` rows, the fused pivot
        keys, per-color bit masks for the Lemma-6 popcount bound,
        per-vertex bit singletons, the guard-band constants, and the
        exact-replay deciders.  Never cached on ``self``: its bound
        methods would close a cycle that keeps a finished run's graph
        and O(n²) ``-log p`` rows alive until a full collection.
        """
        deg = self._deg
        colnum = self._colnum
        pivot_name = self._config.pivot

        if pivot_name == "degree":
            def select_pivot(keys):
                return max(keys, key=deg.__getitem__)
        elif pivot_name == "color":
            def select_pivot(keys):
                return max(keys, key=colnum.__getitem__)
        else:
            # "first"; the template inlines the "hybrid" rule (fused
            # with the lower-bound refresh) and never calls this.
            def select_pivot(keys):
                return keys[0]

        # Past ~512 vertices a singleton-mask membership test costs
        # many 30-bit words, so ask the engine for the wide-scan
        # GenerateSet variant (set-bit extraction) instead of the
        # parent-list walk that wins on narrow graphs.
        return SimpleNamespace(
            wide_scan=self._cg.n > 512,
            sv=self._sv,
            nbr_bits=self._cg.nbr_bits,
            nlogr=self._nlogr,
            lb=self._lb,
            cn_lb=self._cn_lb,
            cn_base=self._cn_base,
            deg_cn=self._deg_cn,
            color_bit=[1 << cw for cw in self._color],
            bit_at=[1 << i for i in range(self._cg.n)],
            hi_base=self._hi_base,
            guard2=self._guard2,
            exact_accept=self._exact_accept,
            exact_x_member=self._exact_x_member,
            popcount=bit_count,
            select_pivot=select_pivot,
        )


register_backend("kernel", KernelStateOps)


class KernelEnumerator:
    """One kernel-backend enumeration run (facade over the engine).

    Shares the recursion with the dict backend — both run
    :func:`repro.engine.driver.build_search` — so clique sets,
    ``SearchStats`` counters, and hook streams are identical by
    construction; see ``tests/test_kernel_parity.py`` and
    ``tests/test_engine_differential.py``.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        k: int,
        eta,
        config,
        result: EnumerationResult,
        sink: Optional[Callable[[frozenset], None]],
        limit: Optional[int],
    ):
        # Raises KernelBackendError for non-float eta.
        self._ops = KernelStateOps(graph, k, eta, config)
        self._k = k
        self._eta = float(eta)
        self._config = config
        self._result = result
        self._sink = sink
        self._limit = limit
        #: The run's :class:`~repro.obs.observer.Observer` (or None);
        #: populated by :meth:`run`, mirrored onto the delegating
        #: ``PivotEnumerator`` afterwards.
        self.obs = None
        #: :func:`~repro.engine.driver.variant_id` of the compiled
        #: recursion variant :meth:`run` executed; mirrored like
        #: ``obs``.
        self.variant_used: Optional[str] = None

    def run(
        self,
        seeds=None,
        reduced_graph: Optional[UncertainGraph] = None,
        order: Optional[Sequence] = None,
    ) -> EnumerationResult:
        """Execute the enumeration; same contract as the dict backend."""
        from repro.engine.driver import SearchEngine

        engine = SearchEngine(
            self._ops,
            self._k,
            self._eta,
            self._config,
            self._result,
            self._sink,
            self._limit,
        )
        try:
            return engine.run(
                seeds, reduced_graph=reduced_graph, order=order
            )
        finally:
            self.obs = engine.obs
            self.variant_used = engine.variant

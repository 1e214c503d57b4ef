"""The ``StateOps`` backend protocol of the search engine.

The engine (:mod:`repro.engine.driver`) owns everything the paper
specifies once: the recursion control flow of Algorithm 3, the M-pivot
stop (Theorem 4.2), the K-pivot size pruning (Lemmas 5–6), emission,
the sanitizer/observer hook sites, and counter flushing.  A backend
owns everything representation-specific: how ``C``/``X`` are stored,
how ``GenerateSet`` projects them, how ``Pr(R)`` accumulates (plain
products, ``-log`` sums, exact :class:`~fractions.Fraction`), how
pivots are scored, and how a recursion path decodes to vertex labels.

A backend is a :class:`StateOps` subclass.  The driver calls its
*prelude* methods once per run (reduction, ordering, hook wiring, seed
states) and then asks for the backend's one **hot path**, which also
picks the recursion shape the engine compiles for it:

* ``search_ops()`` returns a :class:`SearchOps` bundle — plain closures
  the ``generic`` recursion calls millions of times (the dict backend);
* ``fast_ops()`` returns a namespace of raw bitset hot state (bitset
  adjacency, ``-log`` rows, the shared ``sv`` array, per-color bit
  masks, popcount, the exact-replay deciders, ...) that the ``bitset``
  recursion inlines (the kernel).

A backend defines exactly one of the two (:data:`HOT_PATHS`), with or
without hooks: there is no second state algebra that only hooked runs
execute.  ``PROTOCOL_METHODS``, ``PROTOCOL_ATTRS`` and ``HOT_PATHS``
below are the single source of truth for the protocol surface; the
REP005 lint rule checks every registered backend against them
statically, and :func:`validate_state_ops` repeats the check at runtime
before a search starts.

Backend value conventions the engine relies on:

* ``C`` and ``X`` handles must be **falsy when empty** (the engine's
  leaf tests are ``if not c`` / ``if not x``).  The dict backend uses
  plain dicts; the kernel uses ``None`` / ``0``-bit handles.
* ``unit`` is the accumulated probability of a single-vertex clique
  (``1`` for products, ``0.0`` for ``-log`` sums) and ``log_domain``
  tells the sanitizer how to read emitted values.
* ``expand`` may mutate backend-shared state; the engine guarantees a
  matching ``retract`` for every ``expand``, including size-pruned
  branches.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

#: Class-level attributes every backend must define.
PROTOCOL_ATTRS = ("name", "log_domain", "unit")

#: Methods every backend must implement (see :class:`StateOps` for the
#: per-method contracts).
PROTOCOL_METHODS = (
    "prepare_reduction",
    "prepare_ordering",
    "search_size",
    "context",
    "bind_observer",
    "bind_sanitizer",
    "bind_sink",
    "roots",
    "root_state",
)

#: The hot paths; a backend defines exactly one.  ``search_ops`` runs
#: the engine's ``generic`` shape, ``fast_ops`` its ``bitset`` shape.
HOT_PATHS = ("search_ops", "fast_ops")

#: Hot-path operations of the compiled recursion (see
#: :class:`SearchOps`).
SEARCH_OPS = (
    "open_node",
    "lb_refresh",
    "color_reaches",
    "expand",
    "retract",
    "decode",
)


class SearchOps:
    """The closure bundle the compiled recursion calls per node.

    Each field is a plain callable (typically a closure over the
    backend's precomputed arrays) — the engine loads them into closure
    cells once per run, so a call costs no attribute dispatch.

    ``open_node(c, size)``
        Return ``(keys, pivot)``: the rank-ordered candidate work list
        of handle ``c`` and the pivot chosen by the configured
        strategy.  Must also fold the lower-bound refresh for ``size``
        (= ``len(R) + 1``) over the candidates — every candidate ``v``
        participates in the η-clique ``R ∪ {v}``.
    ``lb_refresh(vertices, size)``
        Record that an η-clique of ``size`` contains ``vertices``
        (leaf-node refresh; may be a no-op when no strategy reads it).
    ``color_reaches(vertices, need)``
        True when ``vertices`` span at least ``need`` distinct colors
        (the Lemma-6 color bound; only called under ``kpivot=color``).
    ``expand(u, c, x, q, r, need1)``
        Expand candidate ``u`` (already appended to ``r``): return
        ``(q_new, c_child, x_child, x_token, viable)``.  ``c_child``
        is the projected candidate handle, ``viable`` the K-pivot
        size-bound verdict ``bound(c_child) >= need1``; ``x_child`` is
        only required when ``viable`` (a pruned branch never reads
        ``X``).  ``x_token`` is backend-private restore state handed
        back to ``retract``.
    ``retract(u, c, x, c_child, x_token)``
        Undo ``expand``: return the parent's ``(c, x)`` handles with
        ``u`` moved from the candidate set to the exclusion set.
        Called exactly once per ``expand``, viable or not.
    ``decode(r)``
        The argument the recursion emits for path ``r`` (see
        :meth:`StateOps.bind_sink`): the dict backend's ``frozenset``
        of vertex labels.
    """

    __slots__ = SEARCH_OPS

    def __init__(
        self,
        *,
        open_node: Callable,
        lb_refresh: Callable,
        color_reaches: Callable,
        expand: Callable,
        retract: Callable,
        decode: Callable,
    ) -> None:
        self.open_node = open_node
        self.lb_refresh = lb_refresh
        self.color_reaches = color_reaches
        self.expand = expand
        self.retract = retract
        self.decode = decode


class StateOps:
    """Abstract base of the backend protocol.

    Subclasses must define the :data:`PROTOCOL_ATTRS` class attributes,
    implement every :data:`PROTOCOL_METHODS` method, and define exactly
    one of the :data:`HOT_PATHS` (the base defines neither).  Both are
    called once per run, after the ``prepare_*`` methods.  Instances
    additionally carry ``graph`` — the original (unreduced) uncertain
    graph, which the driver hands to the sanitizer.
    """

    #: Backend name, as accepted by ``PivotConfig(backend=...)`` and
    #: stamped into observation artifacts.
    name = ""
    #: True when accumulated probabilities are ``-log`` sums.
    log_domain = False
    #: Accumulated probability of a single-vertex clique.
    unit: object = 1

    def prepare_reduction(self, reduced_graph) -> None:
        """Apply (or adopt) the pre-enumeration graph reduction.

        ``reduced_graph`` is an optional already-reduced uncertain
        graph (the partitioned/parallel drivers reduce once and ship
        the result to workers); ``None`` means reduce here.
        """
        raise NotImplementedError

    def prepare_ordering(self, order) -> None:
        """Compute (or adopt) the vertex ordering and pivot context.

        ``order`` is an optional precomputed label sequence over the
        reduced graph.  Runs after :meth:`prepare_reduction`.
        """
        raise NotImplementedError

    def search_size(self) -> int:
        """Number of vertices in the (reduced) search graph."""
        raise NotImplementedError

    def context(self) -> Tuple[List, Dict, List]:
        """``(vertices, color, edges)`` for the sanitizer's context
        hooks — the surviving vertex labels, the pivot coloring, and
        the backbone edge list (each in the backend's native id
        space; see :meth:`bind_sanitizer`)."""
        raise NotImplementedError

    def bind_observer(self, obs) -> None:
        """Give the observer backend-specific decoding state (or no-op).

        ``obs`` is the observer bound into the recursion; it is None
        when observation is off or lifecycle-only (``light``).
        """
        raise NotImplementedError

    def bind_sanitizer(self, san):
        """Return the sanitizer adapter the recursion should call.

        Backends whose recursion works on translated ids wrap ``san``
        in an id→label adapter here; others return it unchanged.
        """
        raise NotImplementedError

    def bind_sink(self, sink, cliques):
        """Return the callable the recursion emits each clique into.

        The recursion emits the backend's own form of a clique —
        ``decode(r)`` on the generic shape, the id tuple ``tuple(r)``
        on the bitset shape.  ``sink`` is the caller's streaming
        callback, which receives frozensets of vertex labels, or None:
        collect into ``cliques``, the run's
        :class:`~repro.core.stats.CliqueList`, in whatever form it
        can hold without building sets.
        """
        raise NotImplementedError

    def roots(self, seeds):
        """The outer-loop seed vertices, in enumeration order.

        ``seeds`` is an optional collection of vertex labels
        restricting the roots (see ``PivotEnumerator.run``).
        """
        raise NotImplementedError

    def root_state(self, v) -> Tuple[object, object]:
        """Initial ``(C, X)`` handles for seed ``v`` (Algorithm 3,
        lines 3–4): neighbors ordered after/before ``v`` whose edge
        survives the η threshold."""
        raise NotImplementedError


#: Registered backend factories: ``name -> callable(graph, k, eta,
#: config) -> StateOps``.  Registration happens at backend-module
#: import time; the registry is the discovery surface for the
#: differential tests and the docs recipe — the enumerator facades
#: keep their explicit dispatch (the kernel needs a support check
#: before it can be chosen).
_BACKENDS: Dict[str, Callable] = {}


def register_backend(name: str, factory: Callable) -> None:
    """Register a backend factory under ``name`` (last wins)."""
    _BACKENDS[name] = factory


def backend_factory(name: str) -> Callable:
    """Look up a registered backend factory by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"no backend registered under {name!r}; "
            f"known: {sorted(_BACKENDS)}"
        ) from None


def registered_backends() -> List[str]:
    """Names of all currently registered backends, sorted."""
    return sorted(_BACKENDS)


def validate_state_ops(ops) -> None:
    """Runtime conformance check mirrored statically by REP005.

    Raises :class:`TypeError` when ``ops`` is missing a protocol
    method/attribute or does not define exactly one hot path.
    """
    missing = [
        attr
        for attr in PROTOCOL_ATTRS + PROTOCOL_METHODS
        if not hasattr(ops, attr)
    ]
    if missing:
        raise TypeError(
            f"{type(ops).__name__} does not implement the StateOps "
            f"protocol: missing {missing}"
        )
    hot = [name for name in HOT_PATHS if hasattr(ops, name)]
    if len(hot) != 1:
        raise TypeError(
            f"{type(ops).__name__} must define exactly one hot path of "
            f"{HOT_PATHS}, defines {hot or 'neither'}"
        )
    if not hasattr(ops, "graph"):
        raise TypeError(
            f"{type(ops).__name__} instances must carry the original "
            "graph as .graph (the sanitizer checks against it)"
        )

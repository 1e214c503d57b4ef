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
*prelude* methods once per run (reduction, ordering, seed states) and
then asks for the backend's one **hot path**, which also picks the
recursion shape the engine compiles for it:

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
REP005 lint rule checks every ``StateOps`` subclass against them
statically, and :func:`validate_state_ops` repeats the check at runtime
before a search starts.

Backend value conventions the engine relies on:

* ``C`` and ``X`` handles must be **falsy when empty** (the engine's
  leaf tests are ``if not c`` / ``if not x``).  The dict backend uses
  plain dicts; the kernel uses ``None`` / ``0``-bit handles.
* ``unit`` is the accumulated probability of a single-vertex clique
  (``1`` for products, ``0.0`` for ``-log`` sums) and ``log_domain``
  tells the sanitizer how to read emitted values.
* ``labels`` is None when recursion paths and emitted cliques hold
  vertex labels.  A backend whose recursion works on int ids sets it
  to its id -> label table in ``prepare_ordering``; the engine then
  installs it in a recursion-hooked observer, wraps the sanitizer in
  the id-translating adapter and translates what reaches the caller's
  sink, so no backend wires a hook or a sink itself.
* ``expand`` may mutate backend-shared state; the engine guarantees a
  matching ``retract`` for every ``expand``, including size-pruned
  branches.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ParameterError

#: Class-level attributes every backend must define.
PROTOCOL_ATTRS = ("name", "log_domain", "unit")

#: Methods every backend must implement (see :class:`StateOps` for the
#: per-method contracts).
PROTOCOL_METHODS = (
    "prepare_reduction",
    "prepare_ordering",
    "search_size",
    "context",
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
        The clique the recursion emits for path ``r``: a ``frozenset``
        of vertex labels, or an id tuple over ``StateOps.labels`` when
        the backend sets them (the bitset shape always emits
        ``tuple(r)``).
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
    #: The id -> label table of a backend whose recursion paths and
    #: emitted cliques hold int ids, set by ``prepare_ordering``; this
    #: default None means they hold vertex labels.
    labels: Optional[List] = None

    def prepare_reduction(self) -> None:
        """Apply the configured pre-enumeration graph reduction.

        A caller that already holds a reduced graph (a session slice,
        a parallel chunk) runs it with ``reduction="off"``, which
        makes this the identity.
        """
        raise NotImplementedError

    def prepare_ordering(self, order) -> None:
        """Compute (or adopt) the vertex ordering and pivot context.

        ``order`` is an optional precomputed label sequence over the
        reduced graph, which :func:`checked_order` vets.  Runs after
        :meth:`prepare_reduction`.  A backend whose recursion works on
        int ids sets ``labels`` here.
        """
        raise NotImplementedError

    def search_size(self) -> int:
        """Number of vertices in the (reduced) search graph."""
        raise NotImplementedError

    def context(self) -> Tuple[List, Dict, List]:
        """``(vertices, color, edges)`` for the sanitizer's context
        hooks — the surviving vertex labels, the pivot coloring, and
        the backbone edge list (the last two in the backend's native
        id space; see ``labels``)."""
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


def checked_order(order, vertices) -> List:
    """``order`` as a list, once it lists each of ``vertices`` exactly
    once.

    ``prepare_ordering`` checks a caller's ``order`` here before any
    root runs: a repeated vertex would run its root twice, and a
    missing or foreign one has no rank.
    """
    order = list(order)
    if len(order) != len(vertices) or set(order) != set(vertices):
        raise ParameterError(
            "order must list every search-graph vertex exactly once"
        )
    return order


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

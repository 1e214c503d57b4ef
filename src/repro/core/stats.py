"""Search-tree instrumentation shared by all enumerators.

The paper's central claim is about *search effort*: the set-enumeration
baseline explores every subset of each maximal clique, while the pivot
algorithms skip most of them.  :class:`SearchStats` counts exactly the
quantities that claim is about, so tests and benchmarks can assert the
reduction directly instead of relying on wall-clock noise.
"""

from __future__ import annotations

from collections.abc import MutableSequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq


@dataclass
class SearchStats:
    """Counters describing one enumeration run.

    Attributes
    ----------
    calls:
        Number of recursive-procedure invocations (nodes of the search
        tree, including the root calls of the outer loop).
    expansions:
        Number of candidate vertices actually expanded into a child
        branch.
    outputs:
        Number of maximal ``(k, η)``-cliques emitted.
    mpivot_skips:
        Candidates skipped because they belonged to the current
        M-pivot periphery (the recorded maximum η-clique).
    kpivot_stops:
        Recursive calls cut short by the size-constraint (K-pivot)
        stopping rule.
    size_prunes:
        Child branches skipped because ``|R'| + bound(C')`` could not
        reach ``k``.
    max_depth:
        Deepest recursion level reached (root call = depth 1).
    """

    calls: int = 0
    expansions: int = 0
    outputs: int = 0
    mpivot_skips: int = 0
    kpivot_stops: int = 0
    size_prunes: int = 0
    max_depth: int = 0

    def observe_depth(self, depth: int) -> None:
        """Record a visit at ``depth`` of the search tree."""
        if depth > self.max_depth:
            self.max_depth = depth

    def as_dict(self) -> dict:
        """Plain-dict view (used by the bench harness)."""
        return {
            "calls": self.calls,
            "expansions": self.expansions,
            "outputs": self.outputs,
            "mpivot_skips": self.mpivot_skips,
            "kpivot_stops": self.kpivot_stops,
            "size_prunes": self.size_prunes,
            "max_depth": self.max_depth,
        }


class CliqueList(MutableSequence):
    """The cliques of a result: a ``list[frozenset]`` kept as id rows.

    A *row-backed* list holds a vertex ``table`` and one id row per
    clique (a tuple or list of table ids) and builds a clique's
    frozenset each time that clique is read.  Producers that think in
    ids — the kernel's default sink, a store hit, a parallel worker —
    therefore never build sets that nobody reads: a caller that only
    takes ``len`` pays for none.  A *set-backed* list (no table) holds
    the cliques themselves, exactly like a plain list.

    Both kinds index, slice, iterate, compare (order-sensitively, with
    lists and with each other), concatenate with ``+``, pickle and edit
    like a list.  ``pop``, ``del``, ``clear`` and ``reverse`` keep the
    rows; an edit that a row cannot express (``append``, ``insert``,
    item assignment, ``sort``) first turns a row-backed list
    set-backed, building every clique once.  It is not a ``list``
    subclass and has no ``<``/``>`` or ``*``; ``list(cliques)`` gives
    a plain list.
    """

    __slots__ = ("_table", "_items")
    __hash__ = None

    def __init__(self, cliques=()):
        self._table = None
        self._items = list(cliques)

    @classmethod
    def of_rows(cls, table, rows) -> "CliqueList":
        """A list over ``table`` that adopts ``rows`` (not copied).

        ``table`` is a label sequence and each row a sequence of ids
        into it; ``table=None`` makes ``rows`` the cliques themselves.
        """
        self = cls.__new__(cls)
        self._table = table
        self._items = rows
        return self

    def id_rows(self):
        """``(table, rows)`` of a row-backed list, else None."""
        return None if self._table is None else (self._table, self._items)

    def sink(self, table=None):
        """A callable that appends one clique per call.

        Each call passes an id row over ``table``, or with ``table``
        None the clique itself.  The fast path — an empty list, or one
        already over ``table`` — is the items list's own ``append``,
        which builds no set; a list holding other cliques first turns
        set-backed and then builds each passed row's set.
        """
        if self._items and self._table is not table:
            self._set_backed()
            if table is not None:
                label_of = table.__getitem__
                append = self._items.append
                return lambda row: append(frozenset(map(label_of, row)))
        self._table = table
        return self._items.append

    def _set_backed(self) -> None:
        """Build every clique in place (the rows list object stays)."""
        if self._table is not None:
            self._items[:] = list(self)
            self._table = None

    # -- reading -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        if self._table is None:
            return iter(self._items)
        return map(frozenset, map(map, repeat(self._table.__getitem__),
                                  self._items))

    def __getitem__(self, index):
        item = self._items[index]
        if isinstance(index, slice):
            return CliqueList.of_rows(self._table, item)
        if self._table is None:
            return item
        return frozenset(map(self._table.__getitem__, item))

    def __eq__(self, other):
        if not isinstance(other, (CliqueList, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        return (CliqueList.of_rows, (self._table, self._items))

    def copy(self) -> "CliqueList":
        return CliqueList.of_rows(self._table, list(self._items))

    __copy__ = copy

    # -- editing -------------------------------------------------------
    def __setitem__(self, index, value) -> None:
        self._set_backed()
        self._items[index] = value

    def __delitem__(self, index) -> None:
        del self._items[index]

    def insert(self, index, clique) -> None:
        self._set_backed()
        self._items.insert(index, clique)

    def append(self, clique) -> None:
        self._set_backed()
        self._items.append(clique)

    def extend(self, cliques) -> None:
        """Append ``cliques``; rows over an equal table join as rows."""
        other = cliques.id_rows() if isinstance(cliques, CliqueList) else None
        if other is not None and (
            not self._items
            or (self._table is not None and self._table == other[0])
        ):
            if not self._items:
                self._table = other[0]
            self._items.extend(other[1])
            return
        self._set_backed()
        self._items.extend(cliques)

    def clear(self) -> None:
        del self._items[:]

    def reverse(self) -> None:
        self._items.reverse()

    def sort(self, *, key=None, reverse=False) -> None:
        self._set_backed()
        self._items.sort(key=key, reverse=reverse)

    def __add__(self, other):
        if not isinstance(other, (CliqueList, list)):
            return NotImplemented
        joined = self.copy()
        joined.extend(other)
        return joined

    def __radd__(self, other):
        if not isinstance(other, list):
            return NotImplemented
        return CliqueList(other) + self


@dataclass
class EnumerationResult:
    """Outcome of an enumeration run: the cliques plus search counters.

    ``cliques`` is a :class:`CliqueList` — it reads like a list of
    frozensets, but the kernel's default sink, a store hit and the
    parallel workers fill it with id rows, and each clique's frozenset
    is built only when that clique is read.

    Monolithic runs leave ``shards``/``fleet`` empty.  The parallel
    driver (:mod:`repro.core.partition`) fills them: one
    breakdown dict per seed chunk (its own counters, wall seconds,
    pid, peak RSS, optional metrics snapshot and flight-log path) plus
    the cross-worker imbalance/utilization summary of
    :func:`repro.obs.fleet.fleet_summary` — so the merged ``stats``
    stop being the only surviving view of a fan-out.

    ``phases`` holds the engine's per-phase seconds (``reduction``,
    ``ordering``, ``recursion``, ``sanitize``), recorded on every
    engine run whether or not an observer is bound; merged results sum
    them over shards.  Wall time is never part of result equality, so
    ``shards``, ``fleet`` and ``phases`` (which all carry it) are left
    out of ``==``: two results are equal when their cliques and
    ``stats`` are.
    """

    cliques: CliqueList = field(default_factory=CliqueList)
    stats: SearchStats = field(default_factory=SearchStats)
    shards: list = field(default_factory=list, compare=False)
    fleet: dict = field(default_factory=dict, compare=False)
    phases: dict = field(default_factory=dict, compare=False)

    def __iter__(self):
        return iter(self.cliques)

    def __len__(self) -> int:
        return len(self.cliques)

    def as_sorted_sets(self) -> list:
        """Canonical, order-independent view for comparisons in tests."""
        return sorted(
            (frozenset(c) for c in self.cliques),
            key=lambda s: (len(s), sorted(map(repr, s))),
        )

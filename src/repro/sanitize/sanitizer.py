"""The runtime sanitizer: in-flight invariant checks for the enumerators.

The search engine calls the same small hook protocol on every backend,
from inside its recursion (``on_node`` / ``on_emit`` / ``on_cover``)
and around it (``on_reduced`` / ``on_context`` / ``on_finish``); the
:class:`Sanitizer` behind the hooks asserts the paper's dynamic
correctness properties as the search runs:

========  ====================  =========================================
check     name                  invariant
========  ====================  =========================================
``S1``    eta-clique            every emitted set is a (k, η)-clique,
                                recomputed from the *original* graph with
                                an exact guard-banded verdict
``S2``    maximality-dedup      emitted sets are maximal (single-vertex
                                extension test) and never repeated
                                (streaming dedup)
``S3``    pivot-cover           at every M-pivot stop, the claimed
                                periphery ``Q`` is an η-clique containing
                                ``R`` and every skipped candidate
                                (Theorem 4.2's cover condition)
``S4``    numeric-drift         the backend's accumulated probability
                                (dict: ``Pr(R)``; kernel: ``-log Pr(R)``)
                                matches a recomputation at each emission
``S5``    reduction-safety      a completed run over a small graph is
                                cross-checked against a shadow unreduced
                                ``muc-basic`` run
========  ====================  =========================================

Levels: ``light`` checks S1/S2/S4 on every emission and S3 only at
stops whose node emitted something; ``full`` additionally checks S3 at
every stop, validates the pivot coloring, and runs the S5 shadow.

A failed check raises :class:`~repro.exceptions.SanitizerViolation`
carrying a :class:`~repro.sanitize.report.ViolationReport` with the
recursion path serialized for :func:`replay`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.exceptions import ParameterError
from repro.core.config import SANITIZE_CHOICES, PMUC_PLUS_CONFIG, hook_level
from repro.core.pivot import improper_coloring_pairs
from repro.reduction import reduction_victims
from repro.sanitize.checks import (
    drift_message,
    eta_verdict,
    find_extension,
    is_eta_clique_checked,
    reference_probability,
)
from repro.sanitize.dedup import CliqueStreamIndex, clique_key
from repro.sanitize.report import ViolationReport, fail

#: Shadow-run ceiling for S5: the unreduced ``muc-basic`` reference is
#: exponential in the worst case, so the cross-check only fires on
#: graphs where it is certainly cheap (every tier-1 fixture qualifies).
SHADOW_MAX_VERTICES = 64
SHADOW_MAX_EDGES = 512

#: Cover-cache ceiling: η-clique verdicts for periphery sets are heavily
#: repeated (the same ``Q`` covers many stops), but the cache must not
#: grow without bound on huge runs.
_COVER_CACHE_MAX = 65536


def build_sanitizer(graph, k, eta, config, backend: str = "dict"):
    """A :class:`Sanitizer` for this run, or None when disabled.

    The level is :func:`repro.core.config.hook_level`'s, so
    ``REPRO_SANITIZE`` applies when the config leaves it at ``"off"``.
    """
    level = hook_level(config, "sanitize")
    if level == "off":
        return None
    return Sanitizer(graph, k, eta, level=level, backend=backend)


class Sanitizer:
    """Receives enumeration hooks and asserts invariants S1–S5.

    All checks run against the **original** (unreduced) ``graph``:
    emitted cliques must be η-cliques and maximal in the input the user
    asked about, which folds the most common reduction bugs into the
    cheap S1/S2 checks; S5 catches the rest (whole cliques silently
    dropped by over-pruning).
    """

    def __init__(self, graph, k: int, eta, level: str, backend: str):
        if level not in SANITIZE_CHOICES or level == "off":
            raise ParameterError(
                f"sanitize level must be 'light' or 'full', got {level!r}"
            )
        self._graph = graph
        self._k = k
        self._eta = eta
        self.level = level
        self._backend = backend
        self._emitted = CliqueStreamIndex()
        self._entry_emitted: Dict[int, int] = {}
        self._cover_cache: Dict[frozenset, bool] = {}
        self._survivors: Optional[List] = None
        #: How many times each check actually ran (surfaced by the
        #: bench harness so "zero violations" is distinguishable from
        #: "zero checks").
        self.checks_run = {c: 0 for c in ("S1", "S2", "S3", "S4", "S5")}

    # -- lifecycle hooks (outside the recursions) ----------------------
    def on_reduced(self, vertices) -> None:
        """Record the vertices that survived graph reduction (for S5)."""
        self._survivors = list(vertices)

    def on_context(self, color, edges) -> None:
        """Validate the pivot coloring over the backbone edges.

        The color K-pivot bound (Lemma 6) counts color classes as a
        clique-size upper bound, which is only sound for a *proper*
        coloring; an improper one silently over-prunes.  Full level
        only — the check is linear in the edge count.
        """
        if self.level != "full":
            return
        self.checks_run["S3"] += 1
        bad = improper_coloring_pairs(color, edges)
        if bad:
            u, v = bad[0]
            fail(
                "S3",
                f"pivot coloring is improper: edge ({u!r}, {v!r}) is "
                f"monochromatic ({len(bad)} such edge(s))",
                (),
                self._k,
                self._eta,
                self.level,
                self._backend,
                kind="coloring",
                monochromatic_edges=len(bad),
            )

    def on_finish(self, complete: bool) -> None:
        """S5: cross-check a completed run against an unreduced shadow.

        Only meaningful when the run visited every seed and was not
        truncated by a limit (``complete``), and only affordable on
        small graphs; otherwise the hook is a no-op.
        """
        if self.level != "full" or not complete:
            return
        g = self._graph
        if (
            g.num_vertices > SHADOW_MAX_VERTICES
            or g.num_edges > SHADOW_MAX_EDGES
        ):
            return
        self.checks_run["S5"] += 1
        truth = _shadow_cliques(g, self._k, self._eta)
        emitted = self._emitted.seen()
        missing = sorted(truth - emitted, key=repr)
        spurious = sorted(emitted - truth, key=repr)
        if missing or spurious:
            witness = missing[0] if missing else spurious[0]
            fail(
                "S5",
                f"run disagrees with the unreduced shadow: "
                f"{len(missing)} clique(s) missing, "
                f"{len(spurious)} spurious; first "
                f"{'missing' if missing else 'spurious'} clique "
                f"{sorted(witness, key=repr)!r}",
                clique_key(witness),
                self._k,
                self._eta,
                self.level,
                self._backend,
                missing=[list(clique_key(c)) for c in missing[:10]],
                spurious=[list(clique_key(c)) for c in spurious[:10]],
                pruned_vertices=(
                    None
                    if self._survivors is None
                    else reduction_victims(g, self._survivors)
                ),
            )

    # -- recursion hooks (REP013 requires every engine call site) -----
    def on_node(self, depth: int) -> None:
        """Entering a recursion node at ``depth``."""
        self._entry_emitted[depth] = len(self._emitted)

    def on_emit(self, r, value, log_domain: bool) -> None:
        """An emission of the clique ``R``: checks S1, S4 and S2.

        ``r`` is the recursion path in expansion order; ``value`` is
        the backend's accumulated probability for it — the threaded
        ``q = Pr(R)`` on the dict backend, ``nlq = -log Pr(R)`` on the
        kernel (``log_domain=True``).
        """
        members = list(r)
        path = tuple(members)
        k = self._k
        eta = self._eta
        level = self.level
        backend = self._backend
        self.checks_run["S1"] += 1
        if len(members) < k or len(set(members)) != len(members):
            fail(
                "S1",
                f"emitted set is not a valid k-set: {len(members)} "
                f"member(s), k={k}",
                path,
                k, eta, level, backend,
            )
        ref, exact = reference_probability(self._graph, members)
        if not eta_verdict(ref, exact, self._graph, members, eta):
            fail(
                "S1",
                "emitted set is not an eta-clique: recomputed "
                f"probability {float(ref)!r} < eta",
                path,
                k, eta, level, backend,
                probability=ref,
            )
        self.checks_run["S4"] += 1
        drift = drift_message(ref, exact, value, log_domain)
        if drift is not None:
            fail(
                "S4", drift, path, k, eta, level, backend,
                accumulated=value,
                log_domain=log_domain,
            )
        self.checks_run["S2"] += 1
        outcome = self._emitted.add(frozenset(members))
        if outcome.duplicate:
            fail(
                "S2",
                "clique emitted more than once",
                path,
                k, eta, level, backend,
            )
        extension = find_extension(self._graph, members, eta)
        if extension is not None:
            fail(
                "S2",
                f"emitted clique is not maximal: extensible by "
                f"{extension!r}",
                path,
                k, eta, level, backend,
                extension=extension,
            )

    def on_cover(self, depth: int, r, unexpanded, periphery) -> None:
        """An M-pivot stop: every remaining candidate sits in ``Q``.

        On ``light``, the cover is validated only when the stopping
        node's subtree emitted at least one clique (``on_node``
        snapshots the emission count per depth; the search is a DFS,
        so the snapshot at ``depth`` always belongs to the current
        node); ``full`` validates every stop.
        """
        if not unexpanded:
            # Natural exhaustion of the candidate list (every candidate
            # was expanded — e.g. under mpivot=off the periphery stays
            # empty): nothing was skipped, so there is no cover claim
            # to verify and Theorem 4.2 is vacuous.
            return
        if self.level != "full" and len(self._emitted) == (
            self._entry_emitted.get(depth, 0)
        ):
            return
        self.checks_run["S3"] += 1
        path = tuple(r)
        k = self._k
        eta = self._eta
        cover = set(periphery)
        missing_r = [v for v in r if v not in cover]
        if missing_r:
            fail(
                "S3",
                f"periphery does not contain the recursion path: "
                f"missing {missing_r!r}",
                path,
                k, eta, self.level, self._backend,
                cover=sorted(cover, key=repr),
            )
        outside = [v for v in unexpanded if v not in cover]
        if outside:
            fail(
                "S3",
                f"skipped candidates fall outside the periphery: "
                f"{outside!r}",
                path,
                k, eta, self.level, self._backend,
                cover=sorted(cover, key=repr),
            )
        key = frozenset(cover)
        verdict = self._cover_cache.get(key)
        if verdict is None:
            verdict = is_eta_clique_checked(
                self._graph, sorted(cover, key=repr), eta
            )
            if len(self._cover_cache) >= _COVER_CACHE_MAX:
                self._cover_cache.clear()
            self._cover_cache[key] = verdict
        if not verdict:
            fail(
                "S3",
                "claimed periphery is not an eta-clique (Theorem 4.2 "
                "cover condition violated)",
                path,
                k, eta, self.level, self._backend,
                cover=sorted(cover, key=repr),
            )


class IdSanitizer:
    """Id-space adapter: translates int ids to labels, then forwards.

    The kernel recursion works on rank ids; the wrapped
    :class:`Sanitizer` (shared with the dict backend) wants the
    original vertex labels, so every hook payload is mapped through the
    backend's ``labels`` table on the way in.  ``SearchEngine.run``
    wraps the sanitizer in it whenever the backend publishes one.
    """

    def __init__(self, inner: Sanitizer, labels):
        self._inner = inner
        self._labels = labels

    def on_node(self, depth: int) -> None:
        self._inner.on_node(depth)

    def on_emit(self, r, value, log_domain: bool) -> None:
        labels = self._labels
        self._inner.on_emit([labels[i] for i in r], value, log_domain)

    def on_cover(self, depth: int, r, unexpanded, periphery) -> None:
        # The bitset recursion hands ``Q`` over as a bitset of ids.
        labels = self._labels
        cover = set()
        while periphery:
            low = periphery & -periphery
            periphery ^= low
            cover.add(labels[low.bit_length() - 1])
        self._inner.on_cover(
            depth,
            [labels[i] for i in r],
            [labels[i] for i in unexpanded],
            cover,
        )


def _shadow_cliques(graph, k, eta) -> set:
    """Unreduced reference result for S5.

    ``muc-basic`` runs no :class:`SearchEngine
    <repro.engine.driver.SearchEngine>`, so it never builds a
    sanitizer: the shadow cannot sanitize (and shadow) itself, even
    under ``REPRO_SANITIZE=full``.
    """
    from repro.core.api import enumerate_maximal_cliques

    return set(enumerate_maximal_cliques(graph, k, eta, "muc-basic").cliques)


def replay(graph, report: ViolationReport, config=None):
    """Re-run the subtree named by a violation report at ``full``.

    The report's recursion path starts at the outer-loop seed that
    roots the offending subtree, so re-running with ``seeds=[path[0]]``
    (same backend, sanitizer forced to ``full``) revisits just that
    part of the search — the violation reproduces in a fraction of the
    original run time.  Returns the :class:`EnumerationResult` when the
    violation does *not* reproduce (e.g. after a fix).
    """
    from repro.core.pmuc import PivotEnumerator

    base = config if config is not None else PMUC_PLUS_CONFIG
    cfg = replace(base, sanitize="full", backend=report.backend)
    enumerator = PivotEnumerator(graph, report.k, report.eta, cfg)
    seeds = [report.path[0]] if report.path else None
    return enumerator.run(seeds=seeds)

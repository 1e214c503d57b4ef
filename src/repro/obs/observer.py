"""The observer: the hook protocol both enumeration backends call.

Mirrors the runtime sanitizer's seam exactly (see
:mod:`repro.sanitize.sanitizer`): each backend binds the observer to a
local named ``obs`` and calls the same hooks from the same control-flow
positions, guarded by ``if obs is not None`` so a disabled observer
costs nothing.  The REP008 lint rule compares the two hook streams
statically, like REP007 does for the sanitizer.

Recursion hooks (hot path, bound only for the
:data:`RECURSION_HOOK_LEVELS` — counters only, plus 1-in-N sampling):

=================================  ===================================
hook                               meaning
=================================  ===================================
``on_node(depth, path)``           one recursion node entered; ``path``
                                   is the current ``R`` (labels on the
                                   dict backend, int ids on the kernel
                                   — see :meth:`Observer.set_labels`)
``on_emit(depth, size)``           one maximal clique of ``size``
                                   vertices emitted at ``depth``
``on_expand(depth)``               one candidate branch expanded
``on_prune(kind, depth, count)``   one pruning decision: ``kind`` is
                                   ``"kpivot"``, ``"mpivot"`` (with
                                   ``count`` skipped candidates) or
                                   ``"size"``
=================================  ===================================

Driver hooks (once per run, plus once per outer-loop root; every
level):

``on_gauge(name, value)``, ``on_phase(name, seconds)`` for the fixed
phase sequence reduction / ordering / recursion / sanitize,
``on_root(index, total, candidates)`` once per root of the outer seed
loop (feeds the progress estimator and flight heartbeats — see
:mod:`repro.obs.progress` and :mod:`repro.obs.flight`), and
``on_finish(stats)`` which folds the flat
:class:`~repro.core.stats.SearchStats` counters into the registry.
``on_root`` lives in the run lifecycle, not the recursion template,
so REP009's guarantee is untouched: hooks-off compiled variants carry
no progress or flight branches (REP008 covers the lifecycle site).

Levels: ``"light"`` is lifecycle-only — flat counters, gauges, phase
timers, progress and flight heartbeats, all from the driver hooks —
so a light observer never forces the hooked recursion variant
(per-worker telemetry for parallel runs); ``"metrics"`` takes the
recursion hooks for the per-depth histograms; ``"full"``
additionally records Chrome-trace phase spans, sampled node instants,
and folded stacks for flamegraphs.  :data:`RECURSION_HOOK_LEVELS` is
the one place that says which levels take the recursion hooks (the
engine's variant choice and the run store's variant class both read
it).  Node sampling is counter-based (every ``sample_every``-th
``on_node``), never random, so traces are deterministic.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.exceptions import ParameterError
from repro.core.config import OBS_CHOICES
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import FoldedStacks, Tracer

#: Default node-sampling period for ``full`` observation: every N-th
#: ``on_node`` contributes a folded-stack sample and a trace instant.
DEFAULT_SAMPLE_EVERY = 64

#: Root frame of every folded stack.
ROOT_FRAME = "enumerate"

#: Emission-milestone cadence: every N-th emitted clique writes a
#: flight-recorder breadcrumb when a recorder is attached.
MILESTONE_EVERY = 256

#: Observation levels whose observers take the per-node recursion
#: hooks (``on_node``/``on_emit``/``on_expand``/``on_prune``).  Binding
#: such an observer compiles the ``generic+hooks`` recursion variant;
#: every other level is lifecycle-only and leaves the run on the
#: production variant.
RECURSION_HOOK_LEVELS = ("metrics", "full")


def resolve_level(config) -> str:
    """The effective observation level for ``config``.

    The ``REPRO_OBS`` environment variable applies only when the config
    leaves the level at ``"off"`` — an explicit ``PivotConfig(obs=...)``
    always wins, mirroring ``REPRO_SANITIZE``.
    """
    level = getattr(config, "obs", "off")
    if level == "off":
        env = os.environ.get("REPRO_OBS", "").strip()
        if env:
            level = env
            if level not in OBS_CHOICES:
                raise ParameterError(
                    f"REPRO_OBS must be one of {OBS_CHOICES}, "
                    f"got {level!r}"
                )
    return level


def build_observer(config, backend: str = "dict") -> Optional["Observer"]:
    """An :class:`Observer` for this run, or None when disabled.

    When an :func:`~repro.obs.session.observe` session is active, the
    observer inherits the session's clock and sampling period and is
    registered with it, so the session can write the combined trace,
    folded-stack, and metrics artifacts on exit.
    """
    level = resolve_level(config)
    if level == "off":
        return None
    # Imported lazily so a metrics-only consumer never pays for the
    # session module (and to keep the import graph acyclic when the
    # enumerators import this module lazily from run()).
    from repro.obs.session import current_session

    session = current_session()
    observer = Observer(
        level=level,
        backend=backend,
        clock=session.clock if session is not None else None,
        sample_every=(
            session.sample_every
            if session is not None
            else DEFAULT_SAMPLE_EVERY
        ),
    )
    if session is not None:
        session.register(observer)
    return observer


class Observer:
    """Receives enumeration hooks; accumulates metrics and traces."""

    def __init__(
        self,
        level: str = "metrics",
        backend: str = "dict",
        clock=None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ) -> None:
        if level not in OBS_CHOICES or level == "off":
            raise ParameterError(
                "obs level must be 'light', 'metrics' or 'full', "
                f"got {level!r}"
            )
        self.level = level
        self.backend = backend
        #: Optional :class:`~repro.obs.progress.ProgressTracker` and
        #: :class:`~repro.obs.flight.FlightRecorder`; attached by the
        #: session (:meth:`repro.obs.session.ObsSession.register`) so
        #: the engine seam stays a plain hook call.
        self.progress = None
        self.flight = None
        #: :func:`repro.engine.driver.variant_id` of the compiled
        #: recursion variant this run executed; stamped by
        #: ``SearchEngine.run`` before the search starts and copied
        #: into session and bench documents so ``repro.obs diff`` can
        #: refuse cross-variant comparisons.
        self.variant: Optional[str] = None
        #: Whether the engine binds this observer into the recursion
        #: (see :data:`RECURSION_HOOK_LEVELS`).  A lifecycle-only
        #: observer gets its flat counters via ``on_finish`` and never
        #: sees a per-node hook; called directly, those hooks record
        #: nothing but flight milestones.
        self.recursion_hooks = level in RECURSION_HOOK_LEVELS
        self.metrics = MetricsRegistry()
        self._full = level == "full"
        self._sample_every = max(1, int(sample_every))
        self._labels: Optional[List] = None
        self._node_seq = 0
        self._emit_seq = 0
        self._phase_cursor_us = 0
        self.tracer: Optional[Tracer] = None
        self.folded: Optional[FoldedStacks] = None
        if self._full:
            self.tracer = Tracer(clock=clock)
            self.folded = FoldedStacks()
            self.tracer.metadata("process_name", {"name": "repro"})
            self.tracer.metadata(
                "thread_name", {"name": f"{backend} backend"}
            )
            # Machine-readable backend stamp: trace consumers (and the
            # diff gate) should not have to parse the display name.
            self.tracer.metadata("backend", {"name": backend})

    def set_labels(self, labels: Sequence) -> None:
        """Install the id -> label table of the kernel backend.

        The kernel recursion passes raw int-id paths to ``on_node``;
        translation happens only for the 1-in-N sampled nodes, so the
        hot path never pays for it.
        """
        self._labels = list(labels)

    def _frames(self, path) -> List[str]:
        labels = self._labels
        if labels is None:
            return [ROOT_FRAME] + [str(v) for v in path]
        return [ROOT_FRAME] + [str(labels[v]) for v in path]

    # -- recursion hooks (hot path) ------------------------------------
    def on_node(self, depth: int, path) -> None:
        if self.recursion_hooks:
            self.metrics.observe_depth("nodes", depth)
        if self._full:
            seq = self._node_seq
            self._node_seq = seq + 1
            if not seq % self._sample_every:
                frames = self._frames(path)
                self.folded.add(frames)
                self.tracer.instant(
                    "node",
                    self.tracer.now_us(),
                    {"depth": depth, "stack": ";".join(frames)},
                )

    def on_emit(self, depth: int, size: int) -> None:
        if self.recursion_hooks:
            self.metrics.observe_depth("emits", depth)
            self.metrics.observe_depth("clique_size", size)
        seq = self._emit_seq = self._emit_seq + 1
        flight = self.flight
        if flight is not None and not seq % MILESTONE_EVERY:
            flight.milestone(outputs=seq)

    def on_expand(self, depth: int) -> None:
        if self.recursion_hooks:
            self.metrics.observe_depth("expansions", depth)

    def on_prune(self, kind: str, depth: int, count: int = 1) -> None:
        # A zero count (an mpivot cover that skipped nothing) records
        # no histogram entry — the backends reach such no-op sites from
        # different control flow, and "nothing pruned" must look
        # identical either way.
        if count and self.recursion_hooks:
            self.metrics.observe_depth("prune_" + kind, depth, count)

    # -- driver hooks (once per run) -----------------------------------
    def on_gauge(self, name: str, value) -> None:
        self.metrics.set_gauge(name, value)

    def on_root(self, index: int, total: int, candidates) -> None:
        """One outer-loop root is about to be searched.

        ``candidates`` is the root's candidate frontier in the
        backend's own shape — a dict on the dict backend, a
        ``[bits, members]`` pair (or None when empty) on the kernel —
        used only for its size, the subtree-mass proxy the progress
        estimator consumes.  Throttling lives in the attached tracker
        and recorder, so the per-root cost without them is two
        attribute loads.
        """
        if not index:
            self.metrics.set_gauge("roots_total", total)
        progress = self.progress
        flight = self.flight
        if progress is not None:
            progress.on_root(index, total, _root_weight(candidates))
        if flight is not None:
            gauges = {"roots_done": index, "roots_total": total}
            if progress is not None:
                snap = progress.snapshot()
                gauges["fraction"] = round(
                    float(snap["fraction"]), 4
                )
            flight.heartbeat(**gauges)

    def on_phase(self, name: str, seconds: float) -> None:
        """Record one named phase; ``full`` also emits a trace span.

        Spans are laid out back to back on a synthetic timeline (the
        phases are measured, not traced live), so the trace viewer
        shows their relative widths without wall-clock noise between
        them.
        """
        self.metrics.add_time(name, seconds)
        if self._full:
            dur = int(round(seconds * 1e6))
            self.tracer.complete_span(name, self._phase_cursor_us, dur)
            self._phase_cursor_us += dur

    def on_finish(self, stats=None) -> None:
        """Fold the run's flat ``SearchStats`` into the registry."""
        if stats is not None:
            flat = stats.as_dict()
            for name in sorted(flat):
                if name == "max_depth":
                    self.metrics.set_gauge("max_depth", flat[name])
                else:
                    self.metrics.inc(name, flat[name])
        if self._full:
            self.metrics.set_gauge(
                "sampled_nodes", self.folded.total_weight()
            )


def _root_weight(candidates) -> int:
    """Frontier mass of one root: ``|C| + 1`` across backend shapes."""
    if candidates is None:
        return 1
    if isinstance(candidates, list):
        # Kernel state: ``[bits, members]``; the member list is the
        # iteration view whose length is the frontier size.
        return len(candidates[1]) + 1
    try:
        return len(candidates) + 1
    except TypeError:
        return 1

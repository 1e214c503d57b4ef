"""Configuration of the pivot-based enumerator.

Every design axis the paper evaluates is a field here, so the ablation
benchmarks (Figures 4, 5 and the pivot ablation) are one-liner config
changes rather than separate code paths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.exceptions import ParameterError

#: Accepted values per axis.
ORDERING_CHOICES = ("as-is", "degeneracy", "topk-core")
PIVOT_CHOICES = ("first", "degree", "color", "hybrid")
MPIVOT_CHOICES = ("off", "basic", "improved")
KPIVOT_CHOICES = ("off", "plain", "color")
REDUCTION_CHOICES = ("off", "core", "triangle")
BACKEND_CHOICES = ("dict", "kernel")
SANITIZE_CHOICES = ("off", "light", "full")
OBS_CHOICES = ("off", "light", "metrics", "full")


def _default_backend() -> str:
    """Default ``backend``: the ``REPRO_BACKEND`` env var, else ``dict``.

    Evaluated at construction time (not import time), so the CI backend
    matrix can flip a whole test process onto one backend without
    touching any config literal; explicit ``backend=...`` arguments are
    unaffected.
    """
    return os.environ.get("REPRO_BACKEND") or "dict"


def _require(value: str, choices, name: str) -> None:
    if value not in choices:
        raise ParameterError(
            f"{name} must be one of {choices}, got {value!r}"
        )


@dataclass(frozen=True)
class PivotConfig:
    """Knobs of :class:`repro.core.pmuc.PivotEnumerator`.

    Attributes
    ----------
    ordering:
        Outer-loop vertex ordering (Section 4.5): ``"as-is"``,
        ``"degeneracy"`` or ``"topk-core"``.
    pivot:
        Pivot-selection strategy (Section 4.6): ``"first"`` (no
        heuristic), ``"degree"``, ``"color"`` or ``"hybrid"``.
    mpivot:
        M-pivot pruning (Sections 4.2–4.3): ``"off"``, ``"basic"``
        (periphery fixed by the first pivot branch) or ``"improved"``
        (periphery refined whenever a larger η-clique is found).
    kpivot:
        Size-constraint pruning (Section 5.1): ``"off"``, ``"plain"``
        (candidate count) or ``"color"`` (color-class count).
    reduction:
        Pre-enumeration graph reduction (Section 5.2): ``"off"``,
        ``"core"`` ((Top_{k-1}, η)-core) or ``"triangle"``
        ((Top_{k-2}, η)-triangle applied after the core).
    backend:
        Execution backend: ``"dict"`` (hashable vertices, arbitrary
        numeric probabilities, e.g. :class:`~fractions.Fraction`) or
        ``"kernel"`` (dense int ids + neighbor bitsets, float
        probabilities only; see :mod:`repro.kernel`).  The kernel
        backend produces identical clique sets and statistics, and
        falls back to ``"dict"`` automatically when the graph or
        ``eta`` is not float-valued.  When not set explicitly, the
        default is taken from the ``REPRO_BACKEND`` environment
        variable (``dict`` when unset/empty) — the hook the CI backend
        matrix uses to run the whole suite on each backend.
    sanitize:
        Runtime invariant sanitizer (see :mod:`repro.sanitize`):
        ``"off"`` (default; no hooks fire), ``"light"`` (checks on
        emitted cliques and emitting subtrees) or ``"full"`` (every
        recursion node, plus shadow cross-checks on small inputs).
        When left at ``"off"``, the ``REPRO_SANITIZE`` environment
        variable can still switch a level on process-wide.
    obs:
        Observability layer (see :mod:`repro.obs`): ``"off"``
        (default; no hooks fire), ``"light"`` (flat counters, gauges,
        phase timers and progress from the run-lifecycle hooks only —
        the run keeps the production recursion variant; used for
        per-worker telemetry in parallel runs), ``"metrics"`` (adds
        per-depth histograms through the per-node recursion hooks,
        which select the ``generic+hooks`` variant) or ``"full"``
        (metrics plus Chrome-trace phase spans, sampled recursion
        instants, and folded stacks).
        When left at ``"off"``, the ``REPRO_OBS`` environment variable
        can still switch a level on process-wide.
    """

    ordering: str = "topk-core"
    pivot: str = "hybrid"
    mpivot: str = "improved"
    kpivot: str = "off"
    reduction: str = "core"
    backend: str = field(default_factory=_default_backend)
    sanitize: str = "off"
    obs: str = "off"

    def __post_init__(self) -> None:
        _require(self.ordering, ORDERING_CHOICES, "ordering")
        _require(self.pivot, PIVOT_CHOICES, "pivot")
        _require(self.mpivot, MPIVOT_CHOICES, "mpivot")
        _require(self.kpivot, KPIVOT_CHOICES, "kpivot")
        _require(self.reduction, REDUCTION_CHOICES, "reduction")
        _require(self.backend, BACKEND_CHOICES, "backend")
        _require(self.sanitize, SANITIZE_CHOICES, "sanitize")
        _require(self.obs, OBS_CHOICES, "obs")


#: The paper's ``PMUC``: every Section-4 technique, core reduction for a
#: fair comparison with MUC.
PMUC_CONFIG = PivotConfig(
    ordering="topk-core",
    pivot="hybrid",
    mpivot="improved",
    kpivot="off",
    reduction="core",
)

#: The paper's ``PMUC+``: PMUC plus the Section-5 optimizations
#: (color K-pivot and the (Top_k, η)-triangle reduction), running on
#: the bitset kernel backend (parity-tested against the dict backend).
PMUC_PLUS_CONFIG = PivotConfig(
    ordering="topk-core",
    pivot="hybrid",
    mpivot="improved",
    kpivot="color",
    reduction="triangle",
    backend="kernel",
)


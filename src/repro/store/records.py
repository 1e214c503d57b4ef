"""Run records and the one stamping writer every producer shares.

:class:`RunRecord` moved here from ``repro.bench.harness`` (which
re-exports it — public API unchanged).  Before the store existed,
every bench producer hand-rolled the same stamping dance: resolve the
*actually executed* backend, merge the env fingerprint, keep seconds
at full precision.  That logic now lives exactly once:

* :func:`stamped_record` — build a :class:`RunRecord` with the
  backend/variant stamps and the :func:`repro.obs.runtime.run_env`
  fingerprint merged into ``extra``;
* :func:`run_stamped` — run an enumerator and stamp its record, phase
  seconds included (the service's and the sessions' store misses);
* :func:`document_stamp` — the document-level ``env`` block for
  benchmark artifacts (speedup documents, trajectory meta), so every
  artifact ``repro.obs diff`` reads says where it ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.runtime import run_env


@dataclass
class RunRecord:
    """One timed enumeration run."""

    label: str
    seconds: float
    num_cliques: int
    stats: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        # Full precision: rows feed machine-readable artifacts (JSON
        # dumps, trajectory diffs); rounding happens only at
        # text-render time (``_fmt`` in bench.harness / bench.report).
        row: Dict[str, object] = {
            "run": self.label,
            "seconds": self.seconds,
            "cliques": self.num_cliques,
        }
        row.update({f"stat_{k}": v for k, v in self.stats.items()})
        row.update(self.extra)
        return row


def stamped_record(
    label: str,
    seconds: float,
    num_cliques: int,
    stats: Optional[Dict[str, int]] = None,
    extra: Optional[Dict[str, object]] = None,
    backend: Optional[str] = None,
    variant: Optional[str] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` with the standard stamps applied.

    ``backend`` must be the backend that *actually ran* (e.g.
    ``PivotEnumerator.backend_used`` — the kernel silently falls back
    to dict on unsupported inputs, and downstream diff tooling refuses
    cross-backend comparisons).  ``seconds`` is stored at full
    precision; the env fingerprint (python/platform/peak RSS) is
    merged last so a caller-provided ``extra`` cannot shadow it.
    """
    merged: Dict[str, object] = dict(extra or {})
    if backend is not None:
        merged["backend"] = backend
    if variant is not None:
        merged["variant"] = variant
    merged.update(run_env())
    return RunRecord(
        label, seconds, num_cliques, dict(stats or {}), merged
    )


def run_stamped(label: str, enumerator, k: int, eta) -> tuple:
    """Run ``enumerator``: ``(result, record)``, phases in ``extra``."""
    start = time.perf_counter()
    result = enumerator.run()
    seconds = time.perf_counter() - start
    return result, stamped_record(
        label,
        seconds,
        len(result.cliques),
        result.stats.as_dict(),
        extra={"k": k, "eta": repr(eta), "phases": result.phases},
        backend=enumerator.backend_used,
        variant=enumerator.variant_used,
    )


def document_stamp() -> Dict[str, object]:
    """The per-document environment block for benchmark artifacts."""
    return run_env()

"""Canonical run identity: content fingerprints and the RunKey.

Every persisted enumeration is addressed by a :class:`RunKey` — a
frozen record of *everything that determines the result bytes*:

* ``dataset`` — a sha256 fingerprint of the uncertain graph itself
  (sorted vertices, sorted normalized edges, type-tagged probability
  tokens), so renaming or re-generating a dataset never aliases a
  stored run and a single changed edge probability changes the key;
* ``k`` and the type-tagged canonical ``eta`` token (``float:0.05`` is
  a different key than ``fraction:1/20`` — the dict backend computes
  with exact Fractions, so the numeric *type* is part of the result
  semantics, not presentation);
* the **effective** ``backend`` (fallback-aware, see
  :func:`repro.kernel.enumerate.effective_backend`) and the hook
  ``variant`` class (``lean``/``hooked`` — hooked runs produce
  identical counters, but they are a different execution family and
  the stored wall-clock must never be served across the two);
* every :class:`~repro.core.config.PivotConfig` search axis
  (``ordering``/``pivot``/``mpivot``/``kpivot``/``reduction``);
* the ``procedure`` that shaped the search space — ``peel`` (direct
  reduction), ``slice`` (a :class:`~repro.core.session
  .CliqueQuerySession` decomposition slice) or ``peel/parts=N`` (the
  parallel driver's chunked run).  Clique sets agree across
  procedures, but effort counters are procedure-dependent (the slice
  is a sound superset of the peel, and parallel counters depend on
  chunking), and a stored record must replay byte-identically;
* the engine version ``salt`` — a hash over the verified source
  manifest of :func:`repro.engine.driver.engine_source_manifest` plus
  :data:`STORE_VERSION`, mirroring the analysis cache's
  ``salted_sources`` pattern: a missing module fails the salt loudly,
  and any engine change orphans every stored run.

Everything in this module must itself satisfy REP015 (the lint rule
this PR ships): only sorted iteration feeds a digest, and no
wall-clock, pid, absolute path or hash-ordered content ever enters a
key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.uncertain.graph import UncertainGraph, normalize_edge

#: Human-readable schema salt, folded into :func:`engine_salt`.  Bump
#: whenever the store's serialization or key semantics change in a way
#: that must orphan existing entries (the hashed engine sources cover
#: engine changes automatically; this is the escape hatch for store
#: changes).
STORE_VERSION = "2026.08-store-1"

_engine_salt_memo: Optional[str] = None


def probability_token(value) -> str:
    """Type-tagged canonical token for a probability (or ``eta``).

    ``repr`` round-trips floats exactly; Fractions are serialized from
    their normalized integer pair.  The type tag keeps ``0.05`` and
    ``Fraction(1, 20)`` distinct: they are different computations (log
    domain float versus exact rational) that merely happen to agree
    numerically.
    """
    if isinstance(value, Fraction):
        return "fraction:%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, bool):
        raise TypeError("bool is not a probability")
    if isinstance(value, int):
        return "int:%d" % value
    if isinstance(value, float):
        return "float:" + repr(value)
    return "repr:" + repr(value)


def canonical_eta(eta) -> str:
    """The RunKey's ``eta`` field (see :func:`probability_token`)."""
    return probability_token(eta)


def graph_fingerprint(graph: UncertainGraph) -> str:
    """Content hash of an uncertain graph (structure + probabilities).

    Vertices and normalized edges are folded in sorted-by-``repr``
    order, so the fingerprint is independent of construction history
    and hash seed; probabilities use the type-tagged token, so a
    single perturbed edge weight changes the fingerprint.
    """
    digest = hashlib.sha256()
    for vertex in sorted(graph.vertices(), key=repr):
        digest.update(b"v\x00")
        digest.update(repr(vertex).encode())
        digest.update(b"\n")
    lines = []
    for u, v, p in graph.edges():
        a, b = normalize_edge(u, v)
        lines.append(
            "%s\x1f%s\x1f%s" % (repr(a), repr(b), probability_token(p))
        )
    for line in sorted(lines):
        digest.update(b"e\x00")
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def engine_salt() -> str:
    """Hash of the engine's verified source manifest (memoized).

    Consumes :func:`repro.engine.driver.engine_source_manifest`, which
    raises rather than returning a partial module list — the same
    refuse-to-narrow contract as the analysis cache's
    ``salted_sources``.
    """
    global _engine_salt_memo
    if _engine_salt_memo is None:
        from repro.engine.driver import engine_source_manifest

        digest = hashlib.sha256()
        digest.update(STORE_VERSION.encode())
        digest.update(b"\x00")
        for name, blob in engine_source_manifest():
            digest.update(name.encode())
            digest.update(b"\x00")
            digest.update(blob)
            digest.update(b"\x00")
        _engine_salt_memo = digest.hexdigest()
    return _engine_salt_memo


def variant_class(config) -> str:
    """``"hooked"`` when sanitize/obs hooks compile into the recursion.

    Resolved through the same env-aware level resolution the engine
    itself uses (``REPRO_SANITIZE``/``REPRO_OBS`` apply when the
    config leaves a level at ``"off"``), so the key says what would
    actually run: any sanitizer, or an observer at one of the
    :data:`~repro.obs.observer.RECURSION_HOOK_LEVELS`.  A lifecycle-only
    ``obs="light"`` run executes the lean variant and is keyed with
    it.  Hooked and lean variants are counter-identical (REP013
    proves it) but belong to different timing families.
    """
    from repro.obs.observer import RECURSION_HOOK_LEVELS
    from repro.obs.observer import resolve_level as obs_level
    from repro.sanitize.sanitizer import resolve_level as sanitize_level

    hooked = (
        sanitize_level(config) != "off"
        or obs_level(config) in RECURSION_HOOK_LEVELS
    )
    return "hooked" if hooked else "lean"


@dataclass(frozen=True)
class RunKey:
    """Canonical identity of one enumeration run (all fields strings
    except ``k``; see the module docstring for field semantics)."""

    dataset: str
    k: int
    eta: str
    backend: str
    variant: str
    ordering: str
    pivot: str
    mpivot: str
    kpivot: str
    reduction: str
    procedure: str
    salt: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "k": self.k,
            "eta": self.eta,
            "backend": self.backend,
            "variant": self.variant,
            "ordering": self.ordering,
            "pivot": self.pivot,
            "mpivot": self.mpivot,
            "kpivot": self.kpivot,
            "reduction": self.reduction,
            "procedure": self.procedure,
            "salt": self.salt,
        }

    def digest(self) -> str:
        """Content address of this key (sha256 of its sorted JSON)."""
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "RunKey":
        return cls(**{name: raw[name] for name in cls.__dataclass_fields__})


def run_key_for(
    graph: UncertainGraph,
    k: int,
    eta,
    config,
    procedure: str = "peel",
    dataset_fingerprint: Optional[str] = None,
    reduction: Optional[str] = None,
) -> RunKey:
    """Build the :class:`RunKey` for one configured enumeration.

    ``dataset_fingerprint`` short-circuits the graph hash when the
    caller already computed it (sessions and the serve loop fingerprint
    once per graph, not once per query).  ``reduction`` overrides the
    config's reduction field for producers that apply a reduction
    outside the enumerator (the session slices with the enumerator's
    own reduction off; its key must still say ``triangle``).
    """
    from repro.kernel.enumerate import effective_backend

    return RunKey(
        dataset=(
            dataset_fingerprint
            if dataset_fingerprint is not None
            else graph_fingerprint(graph)
        ),
        k=k,
        eta=canonical_eta(eta),
        backend=effective_backend(graph, eta, config),
        variant=variant_class(config),
        ordering=config.ordering,
        pivot=config.pivot,
        mpivot=config.mpivot,
        kpivot=config.kpivot,
        reduction=reduction if reduction is not None else config.reduction,
        procedure=procedure,
        salt=engine_salt(),
    )


@dataclass(frozen=True)
class ReductionKey:
    """Identity of one shared ``(Top_k, η)`` decomposition.

    Valid for every ``k`` (the decompositions carry per-``k`` shells)
    and for every backend/variant (they are pure graph structure), but
    only for an *exact* ``dataset``/``eta``/``salt`` match: the shell
    values are functions of the probability threshold, so there is no
    sound cross-``eta`` reuse — the key proves validity by equality,
    never by approximation.
    """

    dataset: str
    eta: str
    salt: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "eta": self.eta,
            "salt": self.salt,
        }

    def digest(self) -> str:
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def reduction_key_for(
    graph: UncertainGraph,
    eta,
    dataset_fingerprint: Optional[str] = None,
) -> ReductionKey:
    """The shared-reduction cache key for ``(graph, eta)``."""
    return ReductionKey(
        dataset=(
            dataset_fingerprint
            if dataset_fingerprint is not None
            else graph_fingerprint(graph)
        ),
        eta=canonical_eta(eta),
        salt=engine_salt(),
    )

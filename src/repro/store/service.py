"""Enumeration-as-a-service: store-backed reuse plus a serve loop.

:class:`EnumerationService` is the façade the CLI (and any embedding
caller) drives.  It owns a :class:`~repro.store.store.RunStore` and
answers enumeration requests through it:

* :meth:`EnumerationService.enumerate` — the ``peel`` procedure (the
  configured reduction applied directly, exactly what the bench
  harness runs), through :func:`~repro.store.records.replay_or_run`.
  A repeated key returns the stored cliques with the stored counters
  and performs **zero engine recursion**.
* :meth:`EnumerationService.query` — the ``slice`` procedure through a
  memoized :class:`~repro.core.session.CliqueQuerySession`; every
  request sharing a ``(dataset, η)`` pair reuses one decomposition
  (loaded from the store's shared reduction cache when present).

:class:`ServeLoop` wraps the service in a JSON-lines request protocol
(one request object per line, one response object per line) for
``repro.store serve`` — stdin/stdout by default, a TCP socket when
asked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional

from repro.core.config import PMUC_PLUS_CONFIG, PivotConfig
from repro.core.pmuc import PivotEnumerator
from repro.core.session import CliqueQuerySession
from repro.store.key import (
    RunKey,
    canonical_eta,
    graph_fingerprint,
    run_key_for,
    variant_class,
)
from repro.store.records import RunRecord, replay_or_run, run_stamped
from repro.store.store import RunStore


@dataclass
class ServiceOutcome:
    """One answered enumeration request."""

    key: RunKey
    digest: str
    hit: bool
    record: RunRecord
    result: object  # EnumerationResult
    reduction_reused: bool = False

    def counters(self) -> Dict[str, int]:
        return self.result.stats.as_dict()


class EnumerationService:
    """Store-backed enumeration with reduction sharing."""

    def __init__(
        self,
        store: RunStore,
        config: PivotConfig = PMUC_PLUS_CONFIG,
    ):
        self.store = store
        self.config = config
        self._sessions: Dict[tuple, CliqueQuerySession] = {}
        #: The first ``peel`` key per ``(fingerprint, η, config)``.
        self._peel_keys: Dict[tuple, RunKey] = {}

    @staticmethod
    def _memo(graph, eta, config, dataset_fingerprint) -> tuple:
        """``(fingerprint, η token, config)``: what a key shares across k."""
        fingerprint = (
            dataset_fingerprint
            if dataset_fingerprint is not None
            else graph_fingerprint(graph)
        )
        return fingerprint, canonical_eta(eta), config

    # ------------------------------------------------------------------
    def enumerate(
        self,
        graph,
        k: int,
        eta,
        config: Optional[PivotConfig] = None,
        label: str = "enumerate",
        dataset_fingerprint: Optional[str] = None,
    ) -> ServiceOutcome:
        """Run (or replay) one direct ``peel``-procedure enumeration.

        The key is built once per ``(fingerprint, η, config)``: its
        ``backend`` walks every edge.  Only ``k`` and the env-dependent
        ``variant`` change per request, as in
        :meth:`~repro.core.session.CliqueQuerySession.query_key`.
        """
        config = config if config is not None else self.config
        memo = self._memo(graph, eta, config, dataset_fingerprint)
        base = self._peel_keys.get(memo)
        if base is None:
            base = self._peel_keys[memo] = run_key_for(
                graph, k, eta, config,
                procedure="peel",
                dataset_fingerprint=memo[0],
            )
        key = replace(base, k=k, variant=variant_class(config))
        result, record, stored = replay_or_run(
            self.store,
            key,
            lambda: run_stamped(
                label, PivotEnumerator(graph, k, eta, config), k, eta
            ),
        )
        return ServiceOutcome(
            key=key, digest=key.digest(), hit=stored is not None,
            record=record, result=result,
        )

    # ------------------------------------------------------------------
    def session(
        self,
        graph,
        eta,
        config: Optional[PivotConfig] = None,
        dataset_fingerprint: Optional[str] = None,
    ) -> CliqueQuerySession:
        """The memoized store-backed session for ``(graph, η, config)``.

        Requests sharing the pair share one decomposition — computed
        (or loaded from the store's reduction cache) exactly once.
        """
        config = config if config is not None else self.config
        memo = self._memo(graph, eta, config, dataset_fingerprint)
        if memo not in self._sessions:
            self._sessions[memo] = CliqueQuerySession(
                graph, eta, config,
                store=self.store, dataset_fingerprint=memo[0],
            )
        return self._sessions[memo]

    def query(
        self,
        graph,
        k: int,
        eta,
        config: Optional[PivotConfig] = None,
        dataset_fingerprint: Optional[str] = None,
    ) -> ServiceOutcome:
        """Run (or replay) one ``slice``-procedure query via a session."""
        session = self.session(
            graph, eta, config, dataset_fingerprint=dataset_fingerprint
        )
        key, record, result, hit = session.lookup(k)
        return ServiceOutcome(
            key=key,
            digest=key.digest(),
            hit=hit,
            record=record,
            result=result,
            reduction_reused=session.reduction_reused,
        )


# ----------------------------------------------------------------------
# JSON-lines protocol
# ----------------------------------------------------------------------
def parse_eta(raw):
    """Accept ``0.1``, ``"0.1"`` and ``"1/10"`` (exact Fraction)."""
    if isinstance(raw, bool):
        raise ValueError("eta must be a number, got a bool")
    if isinstance(raw, str):
        if "/" in raw:
            try:
                return Fraction(raw)
            except ZeroDivisionError:
                raise ValueError("eta %r divides by zero" % raw) from None
        return float(raw)
    if isinstance(raw, (int, float, Fraction)):
        return raw
    raise ValueError("unsupported eta: %r" % (raw,))


@dataclass
class ServeLoop:
    """Line-oriented request handling over an :class:`EnumerationService`.

    Requests (one JSON object per line)::

        {"op": "ping"}
        {"op": "enumerate", "dataset": "enron", "k": 5,
         "eta": 0.1, "seed": 0, "procedure": "slice"}
        {"op": "query", "digest": "<digest or unique prefix>"}
        {"op": "batch", "requests": [...]}

    Graphs load through :func:`repro.datasets.load_dataset` and are
    cached per ``(dataset, seed, probability_model)``; enumeration
    responses carry ``digest``/``hit``/``cliques``/``counters``.
    """

    service: EnumerationService
    _graphs: Dict[tuple, tuple] = field(default_factory=dict)

    def _graph(self, name: str, seed: int, model: str):
        memo = (name, seed, model)
        if memo not in self._graphs:
            from repro.datasets import load_dataset

            graph = load_dataset(name, seed=seed, probability_model=model)
            self._graphs[memo] = (graph, graph_fingerprint(graph))
        return self._graphs[memo]

    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        try:
            return self._dispatch(request)
        except Exception as error:  # protocol surface: report, don't die
            return {
                "error": "%s: %s" % (type(error).__name__, error),
                "op": request.get("op") if isinstance(request, dict) else None,
            }

    def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        op = request.get("op")
        if op == "ping":
            from repro.store.key import engine_salt

            return {
                "op": "ping",
                "ok": True,
                "store": self.service.store.root,
                "salt": engine_salt()[:12],
            }
        if op == "enumerate":
            return self._enumerate(request)
        if op == "query":
            return self._query(request)
        if op == "batch":
            return {
                "op": "batch",
                "responses": self.handle_batch(
                    list(request.get("requests") or [])
                ),
            }
        raise ValueError("unknown op: %r" % (op,))

    def _enumerate(self, request: Dict[str, object]) -> Dict[str, object]:
        name = request["dataset"]
        k = request["k"]
        eta = parse_eta(request["eta"])
        seed = int(request.get("seed", 0))
        model = request.get("probability_model", "exponential")
        procedure = request.get("procedure", "slice")
        if procedure not in ("slice", "peel"):
            raise ValueError("procedure must be 'slice' or 'peel'")
        graph, fingerprint = self._graph(name, seed, model)
        if procedure == "peel":
            outcome = self.service.enumerate(
                graph, k, eta,
                label="serve:%s" % name,
                dataset_fingerprint=fingerprint,
            )
        else:
            outcome = self.service.query(
                graph, k, eta, dataset_fingerprint=fingerprint
            )
        return {
            "op": "enumerate",
            "dataset": name,
            "k": k,
            "eta": outcome.key.eta,
            "procedure": outcome.key.procedure,
            "backend": outcome.key.backend,
            "digest": outcome.digest,
            "hit": outcome.hit,
            "reduction_reused": outcome.reduction_reused,
            "cliques": len(outcome.result.cliques),
            "counters": outcome.counters(),
            "seconds": outcome.record.seconds,
        }

    def _query(self, request: Dict[str, object]) -> Dict[str, object]:
        digest = str(request["digest"])
        stored = self.service.store.get_by_digest(digest, with_cliques=False)
        if stored is None:
            return {"op": "query", "digest": digest, "found": False}
        return {
            "op": "query",
            "digest": stored.digest,
            "found": True,
            "key": stored.key.as_dict(),
            "label": stored.record.label,
            "seconds": stored.record.seconds,
            "cliques": stored.record.num_cliques,
            "counters": stored.record.stats,
            "violation": stored.violation is not None,
        }

    # ------------------------------------------------------------------
    def handle_batch(
        self, requests: List[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Answer a batch in input order.

        Slice requests that share a ``(dataset, η)`` pair share one
        decomposition wherever they sit in the batch: the service keeps
        one session per ``(fingerprint, η, config)`` for its whole life.
        """
        return [self.handle(request) for request in requests]

    def handle_line(self, line: str) -> str:
        """One protocol round: JSON request line in, response line out."""
        try:
            request = json.loads(line)
        except ValueError as error:
            return json.dumps({"error": "bad request: %s" % error})
        return json.dumps(self.handle(request), sort_keys=True, default=str)

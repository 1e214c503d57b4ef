"""Content-addressed run store and the enumeration service layer.

The store answers one question: *has this exact enumeration already
happened?* — where "exact" is the canonical :class:`~repro.store.key
.RunKey` (dataset content fingerprint, ``k``, type-tagged η, effective
backend, hook variant class, every search axis, the shaping procedure,
and the engine source salt).  Entries are published crash-safely
(staged + atomic rename), verified on read (per-file sha256 against a
manifest), and any damage degrades to a cache miss.

One path serves every producer.  :meth:`RunStore.get_run` is the one
hit rule (an intact entry for the key that holds a clique set),
:meth:`StoredRun.result` the one replay (cliques, counters, phase
seconds, shards and fleet), :func:`~repro.store.records.result_record`
the one record writer (:func:`~repro.store.records.run_stamped` times
an ``enumerator.run()`` and writes through it), and
:func:`~repro.store.records.replay_or_run` answers the session, the
service and the parallel driver through them.

Layers:

* :mod:`repro.store.key` — canonical identity (RunKey/ReductionKey);
* :mod:`repro.store.records` — :class:`RunRecord`, the record writer
  and the replay-or-run path;
* :mod:`repro.store.store` — the on-disk store itself;
* :mod:`repro.store.service` — :class:`EnumerationService` (store-hit
  enumeration, shared-reduction sessions) and the JSON-lines
  :class:`ServeLoop`;
* :mod:`repro.store.cli` — ``repro-store run / query / serve``.
"""

from repro.store.key import (
    STORE_VERSION,
    ReductionKey,
    RunKey,
    canonical_eta,
    engine_salt,
    graph_fingerprint,
    probability_token,
    reduction_key_for,
    run_key_for,
    variant_class,
)
from repro.store.records import RunRecord, stamped_record
from repro.store.service import EnumerationService, ServeLoop, parse_eta
from repro.store.store import DEFAULT_STORE_DIR, RunStore, StoredRun

__all__ = [
    "STORE_VERSION",
    "ReductionKey",
    "RunKey",
    "canonical_eta",
    "engine_salt",
    "graph_fingerprint",
    "probability_token",
    "reduction_key_for",
    "run_key_for",
    "variant_class",
    "RunRecord",
    "stamped_record",
    "EnumerationService",
    "ServeLoop",
    "parse_eta",
    "DEFAULT_STORE_DIR",
    "RunStore",
    "StoredRun",
]

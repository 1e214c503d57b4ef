"""Content-addressed run store and the enumeration service layer.

The store answers one question: *has this exact enumeration already
happened?* — where "exact" is the canonical :class:`~repro.store.key
.RunKey` (dataset content fingerprint, ``k``, type-tagged η, effective
backend, hook variant class, every search axis, the shaping procedure,
and the engine source salt).  Entries are published crash-safely
(staged + atomic rename), verified on read (per-file sha256 against a
manifest), and any damage degrades to a cache miss.

Layers:

* :mod:`repro.store.key` — canonical identity (RunKey/ReductionKey);
* :mod:`repro.store.records` — :class:`RunRecord` plus the one
  stamping writer all producers share;
* :mod:`repro.store.store` — the on-disk store itself;
* :mod:`repro.store.service` — :class:`EnumerationService` (store-hit
  enumeration, shared-reduction sessions) and the JSON-lines
  :class:`ServeLoop`;
* :mod:`repro.store.cli` — ``repro-store run / query / serve``;
* :mod:`repro.store.gate` — the CI end-to-end cache demo.
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

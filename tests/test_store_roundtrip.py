"""Store round-trips: what goes in comes back, or misses cleanly.

Three families:

* **round-trip** — a stored run replays with the producing run's exact
  clique set and counters, on random graphs (hypothesis) and across
  both backends (whose runs live under *different* keys but must store
  *identical* clique bytes);
* **corruption-as-miss** — any damage (flipped byte, truncated tail,
  missing file, tampered key) makes ``get_run`` return None, never an
  exception and never wrong data; a re-put heals the entry;
* **reductions** — the shared decomposition cache round-trips its
  shell maps exactly, including tuple vertices.
"""

import json
import os
from dataclasses import replace
from fractions import Fraction

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.pmuc import PivotEnumerator
from repro.datasets.figure1 import figure1_graph
from repro.reduction import (
    top_triangle_decomposition,
    topk_core_decomposition,
)
from repro.store.key import reduction_key_for, run_key_for
from repro.store.records import stamped_record
from repro.store.store import RunStore
from repro.uncertain import UncertainGraph
from tests.conftest import EXACT_PROBABILITIES, as_sorted_sets


def run_and_store(store, graph, k, eta, config=PMUC_PLUS_CONFIG):
    enumerator = PivotEnumerator(graph, k, eta, config)
    result = enumerator.run()
    key = run_key_for(graph, k, eta, config)
    record = stamped_record(
        "test", 0.25, len(result.cliques), result.stats.as_dict(),
        extra={"k": k, "eta": repr(eta)},
        backend=enumerator.backend_used,
        variant=enumerator.variant_used,
    )
    digest = store.put_run(key, record, cliques=result.cliques)
    return key, digest, result


@st.composite
def small_graphs(draw):
    n = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 5_000))
    rng = random.Random(seed)
    g = UncertainGraph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                g.add_edge(u, v, rng.choice(EXACT_PROBABILITIES))
    return g


# ----------------------------------------------------------------------
# round-trip
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(small_graphs(), st.integers(1, 3))
def test_roundtrip_replays_exact_cliques_and_counters(tmp_path_factory, graph, k):
    store = RunStore(str(tmp_path_factory.mktemp("store")))
    eta = Fraction(1, 4)
    key, digest, result = run_and_store(store, graph, k, eta)
    stored = store.get_run(key)
    assert stored is not None
    assert stored.digest == digest
    replayed = stored.result()
    assert as_sorted_sets(replayed.cliques) == as_sorted_sets(result.cliques)
    assert replayed.stats.as_dict() == result.stats.as_dict()


def test_both_backends_store_identical_clique_bytes(tmp_path):
    """dict and kernel runs key differently but must agree on content."""
    store = RunStore(str(tmp_path / "store"))
    graph, k, eta = figure1_graph(), 3, 0.1
    digests = {}
    for backend in ("dict", "kernel"):
        config = replace(PMUC_PLUS_CONFIG, backend=backend)
        key, digest, _result = run_and_store(store, graph, k, eta, config)
        assert key.backend == backend
        digests[backend] = digest
    assert digests["dict"] != digests["kernel"]
    blobs = {}
    for backend, digest in digests.items():
        path = os.path.join(store.run_dir(digest), "cliques.jsonl")
        with open(path, "rb") as handle:
            blobs[backend] = handle.read()
    assert blobs["dict"] == blobs["kernel"]


def test_hooked_variant_stores_the_same_cliques_under_its_own_key(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    graph, k, eta = figure1_graph(), 3, 0.1
    lean_key, lean_digest, lean = run_and_store(store, graph, k, eta)
    hooked_config = replace(PMUC_PLUS_CONFIG, obs="metrics")
    hooked_key, hooked_digest, hooked = run_and_store(
        store, graph, k, eta, hooked_config
    )
    assert lean_key.variant == "lean" and hooked_key.variant == "hooked"
    assert lean_digest != hooked_digest
    assert as_sorted_sets(lean.cliques) == as_sorted_sets(hooked.cliques)
    assert lean.stats.as_dict() == hooked.stats.as_dict()


def test_put_is_idempotent_and_first_write_wins(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    key, digest, _ = run_and_store(store, figure1_graph(), 3, 0.1)
    again_key, again_digest, _ = run_and_store(store, figure1_graph(), 3, 0.1)
    assert key == again_key and digest == again_digest
    assert len(store.list_runs()) == 1


def test_violation_round_trips_without_a_clique_set(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    report = {"check": "maximality", "name": "figure1", "witness": [1, 2]}
    record = stamped_record("sanitize:test", 0.1, 0, extra={"k": 3})
    store.put_run(key, record, cliques=None, violation=report)
    stored = store.get_run(key)
    assert stored is not None
    assert stored.cliques is None
    assert stored.violation == report


# ----------------------------------------------------------------------
# corruption degrades to a miss (and heals on re-put)
# ----------------------------------------------------------------------
def corrupt(path, how):
    if how == "flip":
        with open(path, "r+b") as handle:
            blob = handle.read()
            handle.seek(0)
            handle.write(bytes([blob[0] ^ 0xFF]) + blob[1:])
    elif how == "truncate":
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(0, size - 7))
    elif how == "remove":
        os.remove(path)


def test_every_damage_mode_is_a_miss_and_reput_heals(tmp_path):
    for name in ("cliques.jsonl", "record.json", "key.json", "MANIFEST.json"):
        for how in ("flip", "truncate", "remove"):
            store = RunStore(str(tmp_path / ("s-%s-%s" % (name, how))))
            key, digest, result = run_and_store(
                store, figure1_graph(), 3, 0.1
            )
            corrupt(os.path.join(store.run_dir(digest), name), how)
            assert store.get_run(key) is None, (name, how)
            assert store.get_by_digest(digest) is None, (name, how)
            assert not store.has(key), (name, how)
            # The damaged entry must not pin its digest forever: a
            # fresh put evicts it and the key hits again.
            healed_key, healed_digest, _ = run_and_store(
                store, figure1_graph(), 3, 0.1
            )
            assert healed_digest == digest
            healed = store.get_run(key)
            assert healed is not None, (name, how)
            assert as_sorted_sets(healed.cliques) == as_sorted_sets(
                result.cliques
            ), (name, how)


def test_tampered_key_file_is_a_miss(tmp_path):
    """A key.json rewritten (with a matching manifest) to different
    fields must not serve under the requested key."""
    store = RunStore(str(tmp_path / "store"))
    key, digest, _ = run_and_store(store, figure1_graph(), 3, 0.1)
    entry = store.run_dir(digest)
    forged = dict(key.as_dict(), k=99)
    body = (json.dumps(forged, indent=2, sort_keys=True) + "\n").encode()
    with open(os.path.join(entry, "key.json"), "wb") as handle:
        handle.write(body)
    manifest_path = os.path.join(entry, "MANIFEST.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    import hashlib

    manifest["files"]["key.json"] = hashlib.sha256(body).hexdigest()
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    assert store.get_run(key) is None
    assert store.misses >= 1


def test_missing_store_directory_is_just_a_miss(tmp_path):
    store = RunStore(str(tmp_path / "never-created"))
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    assert store.get_run(key) is None
    assert store.list_runs() == []
    assert store.get_by_digest("feed") is None


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def test_reduction_cache_round_trips_shell_maps(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    graph, eta = figure1_graph(), 0.1
    core_shell = topk_core_decomposition(graph, eta)
    triangle_shell = top_triangle_decomposition(graph, eta)
    key = reduction_key_for(graph, eta)
    store.put_reduction(key, core_shell, triangle_shell)
    loaded = store.get_reduction(key)
    assert loaded is not None
    assert loaded[0] == core_shell
    assert loaded[1] == triangle_shell
    # No cross-eta service.
    assert store.get_reduction(reduction_key_for(graph, 0.05)) is None


def test_corrupted_reduction_is_a_miss(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    graph, eta = figure1_graph(), 0.1
    key = reduction_key_for(graph, eta)
    digest = store.put_reduction(
        key,
        topk_core_decomposition(graph, eta),
        top_triangle_decomposition(graph, eta),
    )
    path = os.path.join(
        store._entry_dir("reductions", digest), "core.jsonl"
    )
    corrupt(path, "flip")
    assert store.get_reduction(key) is None

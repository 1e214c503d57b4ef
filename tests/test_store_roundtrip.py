"""Store round-trips: what goes in comes back, or misses cleanly.

Four families:

* **round-trip** — a stored run replays with the producing run's exact
  clique set and counters, on random graphs (hypothesis) and across
  both backends (whose runs live under *different* keys but must store
  *identical* clique bytes);
* **the codec** — the vertex-table encoding round-trips mixed labels,
  is canonical (one set, one byte string) and keeps the (size, member
  reprs) order;
* **corruption-as-miss** — any damage (flipped byte, truncated tail,
  missing file, tampered key, undecodable content, an entry of the
  previous store format) makes ``get_run`` return None, never an
  exception and never wrong data; a re-put heals the entry;
* **reductions** — the shared decomposition cache round-trips its
  shell maps exactly, including tuple vertices.
"""

import hashlib
import json
import os
from dataclasses import replace
from fractions import Fraction

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.pmuc import PivotEnumerator
from repro.datasets.figure1 import figure1_graph
from repro.reduction import (
    top_triangle_decomposition,
    topk_core_decomposition,
)
from repro.store.key import reduction_key_for, run_key_for
from repro.store.records import stamped_record
from repro.store.store import RunStore, _decode_cliques, _encode_cliques
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
# the codec
# ----------------------------------------------------------------------
vertex_labels = st.recursive(
    st.integers(-3, 12) | st.sampled_from(["1", "2", "10", "a", ""]),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.frozensets(vertex_labels, min_size=1, max_size=5), max_size=8),
    st.randoms(use_true_random=False),
)
@example({frozenset({1, "1", (1, "1")}), frozenset({"1", (1, (2,))})}, None)
@example(set(), None)
def test_clique_codec_round_trips_mixed_labels_canonically(cliques, rng):
    ordered = list(cliques)
    blob = _encode_cliques(ordered)
    # JSON lines: the vertex table, then one line per clique.
    assert blob.count(b"\n") == 1 + len(cliques)
    decoded = _decode_cliques(blob)
    # Ids follow repr rank: rows come back in the canonical order.
    assert decoded == sorted(
        cliques, key=lambda c: (len(c), sorted(map(repr, c)))
    )
    if rng is not None:
        rng.shuffle(ordered)
        rebuilt = [frozenset(rng.sample(list(c), len(c))) for c in ordered]
        assert _encode_cliques(rebuilt) == blob


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


def write_entry(entry, files, store_format=None):
    """Write ``files`` into ``entry`` with a manifest that matches them.

    Files already in the manifest keep their hashes; ``store_format``
    replaces the manifest's format number.
    """
    manifest_path = os.path.join(entry, "MANIFEST.json")
    manifest = {"files": {}}
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    if store_format is not None:
        manifest["format"] = store_format
    os.makedirs(entry, exist_ok=True)
    for name, body in files.items():
        with open(os.path.join(entry, name), "wb") as handle:
            handle.write(body)
        manifest["files"][name] = hashlib.sha256(body).hexdigest()
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


def test_tampered_key_file_is_a_miss(tmp_path):
    """A key.json rewritten (with a matching manifest) to different
    fields must not serve under the requested key."""
    store = RunStore(str(tmp_path / "store"))
    key, digest, _ = run_and_store(store, figure1_graph(), 3, 0.1)
    forged = dict(key.as_dict(), k=99)
    body = (json.dumps(forged, indent=2, sort_keys=True) + "\n").encode()
    write_entry(store.run_dir(digest), {"key.json": body})
    assert store.get_run(key) is None
    assert store.misses >= 1


@pytest.mark.parametrize(
    "name, body",
    [
        ("cliques.jsonl", b"[1, 2\n"),
        ("cliques.jsonl", b'[1, 2, 3]\n[0, 3]\n'),
        ("cliques.jsonl", b'[1, 2, 3]\n[-1, 0]\n'),
        ("cliques.jsonl", b'[1, 2, 3]\n[true, 0]\n'),
        ("cliques.jsonl", b'[1, 2, 3]\n[1.0, 0]\n'),
        ("cliques.jsonl", b'[1, 2, 3]\n[0]\n[ ]\n'),
        ("cliques.jsonl", b'[1, 2, 3]\n[[0], 1]\n'),
        ("violation.json", b"{not json\n"),
    ],
    ids=[
        "cliques-unparsable", "id-past-table", "id-negative", "id-bool",
        "id-float", "row-empty", "row-nested", "violation",
    ],
)
def test_undecodable_entry_is_a_miss(tmp_path, name, body):
    """Content that matches its manifest but does not decode is damage."""
    store = RunStore(str(tmp_path / "store"))
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    store.put_run(
        key,
        stamped_record("test", 0.1, 1),
        cliques=[frozenset({1, 2})],
        violation={"check": "maximality"},
    )
    write_entry(store.run_dir(key.digest()), {name: body})
    assert store.get_run(key) is None
    assert store.get_by_digest(key.digest()) is None


def test_format_1_entry_is_a_miss_everywhere(tmp_path):
    """An entry left by the previous store format never reaches the
    decoder: not by key, not by digest, not in listings."""
    store = RunStore(str(tmp_path / "store"))
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    record = {
        "label": "old", "seconds": 0.1, "num_cliques": 2,
        "stats": {}, "extra": {},
    }
    write_entry(
        store.run_dir(key.digest()),
        {
            "key.json": json.dumps(key.as_dict(), sort_keys=True).encode(),
            "record.json": json.dumps(record, sort_keys=True).encode(),
            "cliques.jsonl": b"[1, 2, 3]\n[2, 3, 4]\n",
        },
        store_format=1,
    )
    assert store.get_run(key) is None
    assert store.get_by_digest(key.digest()) is None
    assert store.get_by_digest(key.digest()[:12]) is None
    assert not store.has(key)
    assert store.list_runs() == []


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


@pytest.mark.parametrize(
    "name, body",
    [
        ("core.jsonl", b'[1, 2]\n[3]\n'),
        ("triangle.jsonl", b'[1, 2]\n[0, 2, 1]\n'),
        ("triangle.jsonl", b'[1, 2]\n[-1, 0, 1]\n'),
        ("triangle.jsonl", b'[1, 2]\n[true, 0, 1]\n'),
        ("triangle.jsonl", b'[1, 2]\n[1.0, 0, 1]\n'),
    ],
    ids=[
        "core-shell-count", "id-past-table", "id-negative", "id-bool",
        "id-float",
    ],
)
def test_undecodable_reduction_is_a_miss(tmp_path, name, body):
    store = RunStore(str(tmp_path / "store"))
    graph, eta = figure1_graph(), 0.1
    key = reduction_key_for(graph, eta)
    digest = store.put_reduction(
        key,
        topk_core_decomposition(graph, eta),
        top_triangle_decomposition(graph, eta),
    )
    write_entry(store._entry_dir("reductions", digest), {name: body})
    assert store.get_reduction(key) is None


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

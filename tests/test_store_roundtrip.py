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
  shell maps exactly, including tuple vertices;
* **killed writers** — a child interpreter that dies after each file
  it stages, after the manifest, before the publish rename or in an
  eviction leaves a miss, never a partial hit, and the next put heals
  the key; one that dies after the rename leaves the whole entry.  A
  dead writer's stage goes with a later put once it is stale, and
  never while it is fresh.  Two writers racing on one key publish one entry,
  and a reader racing an evicting writer sees a miss or the whole
  entry.
"""

import glob
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

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
import repro.store.store as store_module
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
    # No clique set: a miss for a request, readable by digest.
    assert store.get_run(key) is None
    stored = store.get_by_digest(key.digest())
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
    assert store.list_runs() == []


def test_missing_store_directory_is_just_a_miss(tmp_path):
    store = RunStore(str(tmp_path / "never-created"))
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    assert store.get_run(key) is None
    assert store.list_runs() == []
    assert store.get_by_digest("feed") is None


# ----------------------------------------------------------------------
# killed writers
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parents[1]

#: What every writer child imports, and the one put it makes: the
#: figure-1 k=3, η=0.1 run (``run``, or ``run+artifacts`` with one flight
#: log) or the figure-1 η=0.1 decompositions (``reduction``).
WRITER = r"""
import os, shutil, sys, time

from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.pmuc import PivotEnumerator
from repro.datasets.figure1 import figure1_graph
from repro.reduction import top_triangle_decomposition, topk_core_decomposition
from repro.store.key import reduction_key_for, run_key_for
from repro.store.records import stamped_record
import repro.store.store as store_module

graph = figure1_graph()
key = run_key_for(graph, 3, 0.1, PMUC_PLUS_CONFIG)
cliques = PivotEnumerator(graph, 3, 0.1, PMUC_PLUS_CONFIG).run().cliques
reduction = (
    reduction_key_for(graph, 0.1),
    topk_core_decomposition(graph, 0.1),
    top_triangle_decomposition(graph, 0.1),
)
store = store_module.RunStore(sys.argv[1])


def put(what, artifact=None):
    if what == "reduction":
        store.put_reduction(*reduction)
        return
    artifacts = {"flight-0.jsonl": artifact} if what == "run+artifacts" else None
    store.put_run(
        key, stamped_record("writer", 0.1, len(cliques)),
        cliques=cliques, artifacts=artifacts,
    )


def wait_for(path):
    deadline = time.monotonic() + 60
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            sys.exit("no " + path)
        time.sleep(0.001)


def touch(path):
    open(path, "w").close()
"""

#: Exit status of a writer child that died where it was told to.
KILLED = 3

#: ``argv``: store root, what to put, where to die and the artifact's
#: path.  ``write-N`` dies once the N-th file the store writes is
#: closed (the manifest is the last), ``rename`` just before the
#: publish rename, ``renamed`` just after it, ``evict`` between an
#: eviction's ``shutil.rmtree`` and the rename.  ``os._exit`` is
#: patched in here, the child, only.
KILLED_WRITER = WRITER + "KILLED = %d\n" % KILLED + r"""
what, step, artifact = sys.argv[2:5]
real_open, real_rename, real_rmtree = open, os.rename, shutil.rmtree
closed = 0


class DiesOnClose:
    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self.handle

    def __exit__(self, *exc):
        global closed
        self.handle.close()
        closed += 1
        if step == "write-%d" % closed:
            os._exit(KILLED)


def dying_open(path, mode="r", *args, **kwargs):
    handle = real_open(path, mode, *args, **kwargs)
    return DiesOnClose(handle) if "w" in mode else handle


def renaming_then_dying(*args):
    real_rename(*args)
    os._exit(KILLED)


def dying_rmtree(path, *args, **kwargs):
    real_rmtree(path, *args, **kwargs)
    if not os.path.basename(path).startswith("stage-"):
        os._exit(KILLED)


store_module.open = dying_open
if step == "rename":
    os.rename = lambda *args: os._exit(KILLED)
elif step == "renamed":
    os.rename = renaming_then_dying
elif step == "evict":
    shutil.rmtree = dying_rmtree
put(what, artifact)
"""

#: Files each put stages before its manifest.
STAGED_FILES = {"run": 3, "run+artifacts": 4, "reduction": 3}


def spawn(script, *args):
    """Start a child interpreter on ``script``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.Popen([sys.executable, "-c", script, *args], env=env)


def finish(child):
    """``child``'s exit status, once it has exited."""
    try:
        return child.wait(timeout=120)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise


def put(store, what, artifact):
    """The put of ``WRITER``, made in this process."""
    graph = figure1_graph()
    if what == "reduction":
        store.put_reduction(
            reduction_key_for(graph, 0.1),
            topk_core_decomposition(graph, 0.1),
            top_triangle_decomposition(graph, 0.1),
        )
        return
    cliques = PivotEnumerator(graph, 3, 0.1, PMUC_PLUS_CONFIG).run().cliques
    artifacts = None
    if what == "run+artifacts":
        artifacts = {"flight-0.jsonl": str(artifact)}
    store.put_run(
        run_key_for(graph, 3, 0.1, PMUC_PLUS_CONFIG),
        stamped_record("writer", 0.1, len(cliques)),
        cliques=cliques, artifacts=artifacts,
    )


def read_back(store, what):
    """What a reader gets for the entry ``put`` writes: None on a miss,
    else the cliques (or shells) and artifact bytes it holds."""
    graph = figure1_graph()
    if what == "reduction":
        return store.get_reduction(reduction_key_for(graph, 0.1))
    stored = store.get_run(run_key_for(graph, 3, 0.1, PMUC_PLUS_CONFIG))
    if stored is None:
        return None
    artifacts = {
        name: Path(path).read_bytes()
        for name, path in stored.artifacts.items()
    }
    return as_sorted_sets(stored.cliques), artifacts


def whole_entry(tmp_path, what, artifact):
    """:func:`read_back` of a fresh store after one ``put``."""
    reference = RunStore(str(tmp_path / "reference"))
    put(reference, what, artifact)
    whole = read_back(reference, what)
    assert whole is not None
    return whole


def staged(store):
    """The files in the one stage a killed writer left in ``store``."""
    (stage,) = glob.glob(os.path.join(store.root, "*", "*", "stage-*"))
    return sorted(
        os.path.relpath(os.path.join(folder, name), stage)
        for folder, _, names in os.walk(stage)
        for name in names
    )


def kill_a_writer(store, age):
    """The stage a killed writer left in ``store``, backdated by ``age``
    seconds, and the key it was writing."""
    child = spawn(KILLED_WRITER, store.root, "run", "rename", "")
    assert finish(child) == KILLED
    (stage,) = glob.glob(os.path.join(store.root, "runs", "*", "stage-*"))
    then = time.time() - age
    os.utime(stage, (then, then))
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    assert store.get_run(key) is None
    return stage, key


@pytest.mark.parametrize("what", sorted(STAGED_FILES))
def test_a_writer_killed_at_each_step_leaves_a_miss_the_next_put_heals(
    tmp_path, what
):
    artifact = tmp_path / "flight-0.jsonl"
    artifact.write_bytes(b'{"event": "finish"}\n')
    whole = whole_entry(tmp_path, what, artifact)
    # After each staged file, after the manifest, before the rename.
    files = STAGED_FILES[what] + 1
    steps = [("write-%d" % n, n) for n in range(1, files + 1)]
    for step, written in steps + [("rename", files)]:
        store = RunStore(str(tmp_path / step))
        child = spawn(KILLED_WRITER, store.root, what, step, str(artifact))
        assert finish(child) == KILLED, step
        left = staged(store)
        assert len(left) == written, (step, left)
        assert ("MANIFEST.json" in left) == (written == files), step
        # Nothing was published: a clean miss, never a partial hit.
        assert read_back(store, what) is None, step
        put(store, what, artifact)
        assert read_back(store, what) == whole, step
    # Killed just after the rename: the entry is published and whole.
    store = RunStore(str(tmp_path / "renamed"))
    child = spawn(KILLED_WRITER, store.root, what, "renamed", str(artifact))
    assert finish(child) == KILLED
    assert read_back(store, what) == whole


def test_a_writer_killed_while_evicting_leaves_a_miss_the_next_put_heals(
    tmp_path,
):
    # A clean run replaces a violation-only entry: kill it after the
    # eviction's rmtree, before its rename.
    store = RunStore(str(tmp_path / "store"))
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    store.put_run(
        key, stamped_record("violation", 0.1, 0),
        violation={"check": "maximality"},
    )
    child = spawn(KILLED_WRITER, store.root, "run", "evict", "")
    assert finish(child) == KILLED
    assert len(staged(store)) == STAGED_FILES["run"] + 1
    assert read_back(store, "run") is None
    assert store.get_by_digest(key.digest()) is None
    put(store, "run", None)
    assert read_back(store, "run") == whole_entry(tmp_path, "run", None)


#: ``argv``: store root, sync directory, this writer's name and the
#: other's.  Both writers stage the same run and meet at the publish
#: rename, so both renames race for one entry.
RACING_WRITER = WRITER + r"""
sync, me, other = sys.argv[2:5]
real_rename = os.rename


def meeting_rename(src, dst):
    touch(os.path.join(sync, me))
    wait_for(os.path.join(sync, other))
    real_rename(src, dst)


os.rename = meeting_rename
put("run")
"""

#: ``argv``: store root and sync directory.  Replaces a damaged entry,
#: pausing before and after the eviction's ``shutil.rmtree`` until the
#: reader has read there; ``published`` marks the put done.
EVICTING_WRITER = WRITER + r"""
sync = sys.argv[2]
real_rmtree = shutil.rmtree


def pausing_rmtree(path, *args, **kwargs):
    evicting = not os.path.basename(path).startswith("stage-")
    if evicting:
        touch(os.path.join(sync, "evicting"))
        wait_for(os.path.join(sync, "read-damaged"))
    real_rmtree(path, *args, **kwargs)
    if evicting:
        touch(os.path.join(sync, "evicted"))
        wait_for(os.path.join(sync, "read-evicted"))


shutil.rmtree = pausing_rmtree
put("run")
touch(os.path.join(sync, "published"))
"""

#: ``argv``: store root, sync directory and the output path.  Reads the
#: entry before the eviction, after it, until the writer has published
#: and once after, and writes what each read saw: ``miss``, ``whole``
#: or ``partial``.
READER = WRITER + r"""
import json

sync, out = sys.argv[2:4]
seen = []
want = sorted(map(sorted, cliques))


def read():
    stored = store.get_run(key)
    if stored is None:
        seen.append("miss")
    elif sorted(map(sorted, stored.cliques)) == want:
        seen.append("whole")
    else:
        seen.append("partial")


wait_for(os.path.join(sync, "evicting"))
read()
touch(os.path.join(sync, "read-damaged"))
wait_for(os.path.join(sync, "evicted"))
read()
touch(os.path.join(sync, "read-evicted"))
while not os.path.exists(os.path.join(sync, "published")):
    read()
read()
with open(out, "w") as handle:
    json.dump(seen, handle)
"""


def assert_one_verified_entry(tmp_path, store, key):
    fan = os.path.dirname(store.run_dir(key.digest()))
    assert os.listdir(fan) == [key.digest()]
    assert read_back(store, "run") == whole_entry(tmp_path, "run", None)


def test_two_writers_racing_on_one_key_publish_one_entry(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    sync = tmp_path / "sync"
    sync.mkdir()
    children = [
        spawn(RACING_WRITER, store.root, str(sync), me, other)
        for me, other in (("a", "b"), ("b", "a"))
    ]
    assert [finish(child) for child in children] == [0, 0]
    assert sorted(os.listdir(sync)) == ["a", "b"]
    assert_one_verified_entry(
        tmp_path, store,
        run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG),
    )


def test_a_reader_racing_an_evicting_writer_sees_a_miss_or_the_whole_entry(
    tmp_path,
):
    store = RunStore(str(tmp_path / "store"))
    key, digest, _ = run_and_store(store, figure1_graph(), 3, 0.1)
    corrupt(os.path.join(store.run_dir(digest), "cliques.jsonl"), "flip")
    sync = tmp_path / "sync"
    sync.mkdir()
    out = tmp_path / "seen.json"
    reader = spawn(READER, store.root, str(sync), str(out))
    evicting = spawn(EVICTING_WRITER, store.root, str(sync))
    assert [finish(evicting), finish(reader)] == [0, 0]
    seen = json.loads(out.read_text())
    # Damaged, then evicted: misses; after the rename: the whole entry.
    assert seen[:2] == ["miss", "miss"]
    assert seen[-1] == "whole"
    assert set(seen) <= {"miss", "whole"}
    assert_one_verified_entry(tmp_path, store, key)


def test_a_killed_writers_stale_stage_goes_with_the_next_put(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    stage, key = kill_a_writer(store, store_module._STALE_STAGE_S + 60)
    run_and_store(store, figure1_graph(), 3, 0.1)
    assert os.listdir(os.path.dirname(stage)) == [key.digest()]
    assert store.get_run(key) is not None


def test_a_fresh_stage_survives_the_next_put(tmp_path):
    # Just under the bound: it may still be a live writer's stage.
    store = RunStore(str(tmp_path / "store"))
    stage, key = kill_a_writer(store, store_module._STALE_STAGE_S - 60)
    run_and_store(store, figure1_graph(), 3, 0.1)
    assert sorted(os.listdir(os.path.dirname(stage))) == sorted(
        [key.digest(), os.path.basename(stage)]
    )
    assert store.get_run(key) is not None


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

"""The service layer: store-backed sessions, the façade, the serve loop.

The load-bearing claim is **zero engine recursion on a cache hit** —
pinned here by making enumerator construction itself the tripwire —
plus one key and one store read per request, reduction sharing across
sessions and the JSON-lines protocol's ordering/error contracts.
"""

import json
import random
from fractions import Fraction

import pytest

import repro.core.session as session_module
import repro.kernel.enumerate as kernel_enumerate
from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.partition import enumerate_parallel
from repro.core.session import CliqueQuerySession
from repro.datasets.figure1 import figure1_graph
from repro.store.key import graph_fingerprint
from repro.store.service import EnumerationService, ServeLoop, parse_eta
from repro.store.store import RunStore
from repro.uncertain.graph import UncertainGraph
from tests.conftest import as_sorted_sets


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "store"))


# ----------------------------------------------------------------------
# store-backed sessions
# ----------------------------------------------------------------------
def test_session_miss_then_hit_with_identical_results(store):
    first = CliqueQuerySession(figure1_graph(), 0.1, store=store)
    live = first.query(3)
    assert (first.query_misses, first.query_hits) == (1, 0)
    replay = first.query(3)
    assert (first.query_misses, first.query_hits) == (1, 1)
    assert as_sorted_sets(replay.cliques) == as_sorted_sets(live.cliques)
    assert replay.stats.as_dict() == live.stats.as_dict()


def test_cache_hit_builds_no_enumerator(store, monkeypatch):
    session = CliqueQuerySession(figure1_graph(), 0.1, store=store)
    session.query(3)

    def tripwire(*args, **kwargs):
        raise AssertionError("cache hit must not construct an enumerator")

    monkeypatch.setattr(session_module, "PivotEnumerator", tripwire)
    replay = session.query(3)
    assert replay.stats.outputs == replay.stats.as_dict()["outputs"]


def test_streaming_queries_bypass_the_store(store):
    session = CliqueQuerySession(figure1_graph(), 0.1, store=store)
    session.query(3)
    seen = []
    session.query(3, on_clique=seen.append)
    # The sink saw live emission, and the store counters did not move
    # for the streaming call (no hit recorded despite the stored key).
    assert seen
    assert (session.query_misses, session.query_hits) == (1, 0)


def test_second_session_reuses_the_stored_reduction(store):
    first = CliqueQuerySession(figure1_graph(), 0.1, store=store)
    assert first.reduction_reused is False
    second = CliqueQuerySession(figure1_graph(), 0.1, store=store)
    assert second.reduction_reused is True
    assert as_sorted_sets(second.query(3).cliques) == as_sorted_sets(
        first.query(3).cliques
    )


def test_computed_and_store_loaded_sessions_slice_alike(store):
    """A session that loads its decompositions from the store slices
    exactly the graph that computing them gives — same vertex order,
    same edge order — so a slice run's coloring tie-breaks, and with
    them its effort counters, do not depend on where the
    decompositions came from."""
    rng = random.Random(3)
    names = ["node-%02d" % i for i in range(40)]
    graph = UncertainGraph()
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            if rng.random() < 0.4:
                graph.add_edge(u, v, round(0.6 + 0.4 * rng.random(), 3))
    computed = CliqueQuerySession(graph, 0.2, store=store)
    loaded = CliqueQuerySession(graph, 0.2, store=store)
    assert (computed.reduction_reused, loaded.reduction_reused) == (
        False, True,
    )
    for k in (3, 4, 5, 6):
        ours, theirs = computed.reduced_graph(k), loaded.reduced_graph(k)
        assert ours.vertices() == theirs.vertices()
        assert list(ours.edges()) == list(theirs.edges())


def test_sessions_without_store_behave_as_before(store):
    plain = CliqueQuerySession(figure1_graph(), 0.53)
    assert len(plain.query(4).cliques) == 2
    assert plain.query_hits == plain.query_misses == 0


# ----------------------------------------------------------------------
# the façade
# ----------------------------------------------------------------------
def test_enumerate_miss_then_hit_same_digest(store):
    service = EnumerationService(store)
    first = service.enumerate(figure1_graph(), 3, 0.1)
    again = service.enumerate(figure1_graph(), 3, 0.1)
    assert (first.hit, again.hit) == (False, True)
    assert first.digest == again.digest
    assert again.counters() == first.counters()
    assert as_sorted_sets(again.result.cliques) == as_sorted_sets(
        first.result.cliques
    )
    # The replayed seconds are the producing run's measurement, not a
    # fresh timing.
    assert again.record.seconds == first.record.seconds


def test_query_uses_the_slice_procedure_and_agrees_with_peel(store):
    service = EnumerationService(store)
    peel = service.enumerate(figure1_graph(), 3, 0.1)
    sliced = service.query(figure1_graph(), 3, 0.1)
    assert sliced.key.procedure == "slice"
    assert peel.key.procedure == "peel"
    assert sliced.digest != peel.digest
    assert as_sorted_sets(sliced.result.cliques) == as_sorted_sets(
        peel.result.cliques
    )


def test_service_sessions_are_memoized_per_dataset_eta_config(store):
    service = EnumerationService(store)
    a = service.session(figure1_graph(), 0.1)
    b = service.session(figure1_graph(), 0.1)
    c = service.session(figure1_graph(), 0.05)
    assert a is b
    assert a is not c


def test_hit_replays_the_phases_of_the_miss_that_stored_it(store):
    service = EnumerationService(store)
    graph = figure1_graph()
    for answer in (service.enumerate, service.query):
        miss = answer(graph, 3, 0.1)
        hit = answer(graph, 3, 0.1)
        assert (miss.hit, hit.hit) == (False, True)
        assert set(miss.result.phases) == {
            "reduction", "ordering", "recursion", "sanitize",
        }
        assert hit.result.phases == miss.result.phases
    live = enumerate_parallel(graph, 3, 0.1, parts=1, store=store)
    replay = enumerate_parallel(graph, 3, 0.1, parts=1, store=store)
    assert live.phases and replay.phases == live.phases


@pytest.fixture
def calls(monkeypatch):
    """Every store read/write and every ``supports()`` walk, in order."""
    seen = []

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("get_run", "put_run", "get_by_digest", "has"):
        count(RunStore, name)
    count(kernel_enumerate, "supports")
    return seen


def test_slice_requests_build_one_key_and_read_the_store_once(store, calls):
    service = EnumerationService(store)
    graph = figure1_graph()
    first = service.query(graph, 3, 0.1)
    # The session's one key walk, then the kernel run's own check.
    assert calls == ["supports", "get_run", "supports", "put_run"]
    assert first.record.num_cliques == len(first.result.cliques)
    del calls[:]
    miss = service.query(graph, 4, 0.1)
    assert not miss.hit
    assert calls == ["get_run", "supports", "put_run"]
    del calls[:]
    hit = service.query(graph, 4, 0.1)
    assert hit.hit and calls == ["get_run"]
    assert hit.record.seconds == miss.record.seconds
    assert hit.digest == miss.digest == miss.key.digest()


def test_peel_requests_read_the_store_once(store, calls):
    service = EnumerationService(store)
    graph = figure1_graph()
    miss = service.enumerate(graph, 3, 0.1)
    assert not miss.hit
    # The one key walk per (graph, eta, config), then the run's check.
    assert calls == ["supports", "get_run", "supports", "put_run"]
    del calls[:]
    other = service.enumerate(graph, 4, 0.1)
    assert not other.hit and other.key.k == 4
    assert calls == ["get_run", "supports", "put_run"]
    del calls[:]
    hit = service.enumerate(graph, 3, 0.1)
    assert hit.hit and calls == ["get_run"]
    assert hit.key == miss.key


# ----------------------------------------------------------------------
# parse_eta
# ----------------------------------------------------------------------
def test_parse_eta_accepts_floats_strings_and_fractions():
    assert parse_eta(0.1) == 0.1
    assert parse_eta("0.1") == 0.1
    assert parse_eta("1/10") == Fraction(1, 10)
    assert parse_eta(Fraction(1, 4)) == Fraction(1, 4)


def test_parse_eta_rejects_bool_and_junk():
    with pytest.raises(ValueError):
        parse_eta(True)
    with pytest.raises(ValueError):
        parse_eta(None)


# ----------------------------------------------------------------------
# serve loop protocol
# ----------------------------------------------------------------------
@pytest.fixture
def loop(store):
    """A serve loop whose graph cache is pre-seeded with Figure 1, so
    the protocol tests exercise dispatch without dataset loading."""
    serve = ServeLoop(EnumerationService(store))
    graph = figure1_graph()
    serve._graphs[("fig1", 0, "exponential")] = (
        graph, graph_fingerprint(graph)
    )
    return serve


def enumerate_request(k=3, eta=0.1, **extra):
    request = {"op": "enumerate", "dataset": "fig1", "k": k, "eta": eta}
    request.update(extra)
    return request


def test_ping_reports_store_and_salt(loop, store):
    response = loop.handle({"op": "ping"})
    assert response["ok"] is True
    assert response["store"] == store.root
    assert len(response["salt"]) == 12


def test_enumerate_then_repeat_is_a_hit_with_identical_counters(loop):
    first = loop.handle(enumerate_request())
    again = loop.handle(enumerate_request())
    assert first["hit"] is False
    assert again["hit"] is True
    assert again["digest"] == first["digest"]
    assert again["counters"] == first["counters"]
    assert again["seconds"] == first["seconds"]
    assert again["cliques"] == first["cliques"]


def test_query_op_resolves_digest_prefixes(loop):
    digest = loop.handle(enumerate_request())["digest"]
    response = loop.handle({"op": "query", "digest": digest[:12]})
    assert response["found"] is True
    assert response["digest"] == digest
    missing = loop.handle({"op": "query", "digest": "f" * 64})
    assert missing["found"] is False


def test_batch_returns_responses_in_input_order(loop):
    requests = [
        enumerate_request(k=4),
        {"op": "ping"},
        enumerate_request(k=3),
        enumerate_request(k=4),
    ]
    responses = loop.handle_batch(requests)
    assert [r.get("op") for r in responses] == [
        "enumerate", "ping", "enumerate", "enumerate",
    ]
    assert responses[0]["k"] == 4
    assert responses[2]["k"] == 3
    # The repeat of k=4 ran after its twin (batch grouping) and hit.
    assert responses[3]["hit"] is True
    assert responses[3]["digest"] == responses[0]["digest"]


def test_batch_shares_one_reduction_across_the_group(loop, store):
    loop.handle_batch([enumerate_request(k=k) for k in (3, 4, 5)])
    # One decomposition was published; every query after the first
    # reused the session's in-memory copy.
    assert len(list(store._iter_digests("reductions"))) == 1


def test_errors_are_reported_not_raised(loop):
    response = loop.handle({"op": "bogus"})
    assert "unknown op" in response["error"]
    response = loop.handle(enumerate_request(eta=True))
    assert "bool" in response["error"]
    response = loop.handle(
        enumerate_request(procedure="partition")
    )
    assert "procedure" in response["error"]


def test_handle_line_round_trips_json(loop):
    line = loop.handle_line(json.dumps(enumerate_request()))
    response = json.loads(line)
    assert response["op"] == "enumerate"
    assert response["dataset"] == "fig1"
    bad = json.loads(loop.handle_line("{not json"))
    assert "bad request" in bad["error"]

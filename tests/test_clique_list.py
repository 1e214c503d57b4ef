"""``CliqueList``: a list of frozensets kept as id rows.

Three families:

* **list compatibility** — a row-backed list and a set-backed one read,
  compare, edit and pickle exactly like the plain ``list[frozenset]``
  ``EnumerationResult.cliques`` used to be;
* **producers keep rows** — the kernel's default sink, a store hit and
  the parallel merge hand over id rows, and a ``ServeLoop`` hit builds
  no clique set at all (the tripwire);
* **the codec** — stored rows read back as exactly the frozensets the
  table-indexing decoder builds, and a row-backed list over any table
  encodes to the same bytes as its frozensets.
"""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.stats as stats_module
import repro.store.store as store_module
from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.partition import enumerate_parallel
from repro.core.pmuc import PivotEnumerator
from repro.core.stats import CliqueList, EnumerationResult, SearchStats
from repro.datasets.figure1 import figure1_graph
from repro.store.key import graph_fingerprint, run_key_for
from repro.store.records import stamped_record
from repro.store.service import EnumerationService, ServeLoop
from repro.store.store import (
    RunStore,
    _decode_cliques,
    _encode_cliques,
    _parse_table_lines,
)

TABLE = ["a", "b", "c", (1, 2), 7, "unused"]
ROWS = [(0, 1), (2, 3, 4), (1,), [4, 0]]
CLIQUES = [frozenset(TABLE[i] for i in row) for row in ROWS]


def rows_list():
    return CliqueList.of_rows(TABLE, [row for row in ROWS])


def sets_list():
    return CliqueList(CLIQUES)


@pytest.fixture(params=["rows", "sets"])
def cliques(request):
    return rows_list() if request.param == "rows" else sets_list()


# ----------------------------------------------------------------------
# list compatibility
# ----------------------------------------------------------------------
def test_reads_like_the_list(cliques):
    assert len(cliques) == len(CLIQUES)
    assert bool(cliques) and not CliqueList() and not rows_list()[:0]
    assert list(cliques) == CLIQUES
    assert all(type(c) is frozenset for c in cliques)
    for index in range(-len(CLIQUES), len(CLIQUES)):
        assert cliques[index] == CLIQUES[index]
    with pytest.raises(IndexError):
        cliques[len(CLIQUES)]
    for part in (slice(1, 3), slice(None, None, -1), slice(-2, None)):
        sliced = cliques[part]
        assert isinstance(sliced, CliqueList)
        assert sliced == CLIQUES[part]
    assert CLIQUES[1] in cliques and {"b", "a"} in cliques
    assert frozenset({"unused"}) not in cliques
    assert list(reversed(cliques)) == CLIQUES[::-1]
    assert cliques.index(CLIQUES[2]) == 2
    assert cliques.count(CLIQUES[0]) == 1
    assert repr(cliques) == repr(CLIQUES)


def test_equality_is_elementwise_and_order_sensitive(cliques):
    assert cliques == CLIQUES and CLIQUES == cliques
    assert cliques == rows_list() and cliques == sets_list()
    assert not cliques != CLIQUES
    assert cliques != CLIQUES[::-1]
    assert cliques != rows_list()[::-1]
    assert cliques != CLIQUES[:-1] and cliques != CLIQUES + CLIQUES[:1]
    assert cliques != tuple(CLIQUES)
    assert CliqueList() == [] and CliqueList.of_rows(TABLE, []) == []
    with pytest.raises(TypeError):
        hash(cliques)


def test_edits_behave_like_the_list(cliques):
    expected = list(CLIQUES)
    assert cliques.pop() == expected.pop()
    assert cliques.pop(0) == expected.pop(0)
    assert cliques == expected
    cliques.append(frozenset({"new"}))
    expected.append(frozenset({"new"}))
    cliques.extend([frozenset({"x", "y"})])
    expected.extend([frozenset({"x", "y"})])
    cliques += [frozenset({"z"})]
    expected += [frozenset({"z"})]
    cliques.insert(1, frozenset({"i"}))
    expected.insert(1, frozenset({"i"}))
    cliques[0] = frozenset({"set"})
    expected[0] = frozenset({"set"})
    del cliques[-1]
    del expected[-1]
    cliques.remove(frozenset({"new"}))
    expected.remove(frozenset({"new"}))
    assert cliques == expected and len(cliques) == len(expected)
    cliques.reverse()
    assert cliques == expected[::-1]
    cliques.clear()
    assert cliques == [] and len(cliques) == 0


def test_sort_and_concatenation_behave_like_the_list(cliques):
    more = [frozenset({"m"}), frozenset({"n", "o"})]
    for joined in (cliques + more, cliques + rows_list()):
        assert type(joined) is CliqueList
    assert cliques + more == CLIQUES + more
    assert more + cliques == more + CLIQUES
    assert cliques + rows_list() == CLIQUES + CLIQUES
    doubled = cliques + cliques
    assert doubled == CLIQUES + CLIQUES
    # Rows over one table join as rows; the operands are not touched.
    assert (doubled.id_rows() is None) == (cliques.id_rows() is None)
    assert cliques == CLIQUES
    with pytest.raises(TypeError):
        cliques + tuple(more)
    expected = list(CLIQUES)
    cliques.sort(key=len, reverse=True)
    expected.sort(key=len, reverse=True)
    assert cliques == expected
    cliques.sort(key=sorted_reprs)
    expected.sort(key=sorted_reprs)
    assert cliques == expected


def test_pop_delete_and_reverse_keep_the_rows():
    cliques = rows_list()
    cliques.pop()
    del cliques[0]
    cliques.reverse()
    table, rows = cliques.id_rows()
    assert table is TABLE and rows == [(1,), (2, 3, 4)]
    assert cliques == [CLIQUES[2], CLIQUES[1]]


def test_append_turns_a_row_backed_list_set_backed():
    cliques = rows_list()
    rows = cliques.id_rows()[1]
    cliques.append(frozenset({"new"}))
    assert cliques.id_rows() is None
    assert cliques == CLIQUES + [frozenset({"new"})]
    # Built in place: a sink bound to the rows list still lands here.
    assert rows == list(cliques)


def test_extend_joins_rows_over_an_equal_table():
    cliques = rows_list()
    cliques.extend(CliqueList.of_rows(list(TABLE), [(5,)]))
    assert cliques.id_rows()[1][-1] == (5,)
    assert cliques == CLIQUES + [frozenset({"unused"})]
    merged = CliqueList()
    merged.extend(rows_list())
    assert merged.id_rows() is not None and merged == CLIQUES
    other_table = CliqueList.of_rows(["q", "a"], [(0, 1)])
    merged.extend(other_table)
    assert merged.id_rows() is None
    assert merged == CLIQUES + [frozenset({"q", "a"})]


def test_sink_appends_rows_or_builds_sets_when_it_must():
    cliques = CliqueList()
    sink = cliques.sink(TABLE)
    for row in ROWS:
        sink(row)
    assert cliques.id_rows() == (TABLE, ROWS) and cliques == CLIQUES
    assert cliques.sink(TABLE) == cliques.id_rows()[1].append
    mixed = sets_list()
    sink = mixed.sink(["z"])
    sink((0,))
    assert mixed.id_rows() is None
    assert mixed == CLIQUES + [frozenset({"z"})]
    sets = rows_list()
    sink = sets.sink()
    sink(frozenset({"s"}))
    assert sets.id_rows() is None
    assert sets == CLIQUES + [frozenset({"s"})]


def test_pickle_and_copy_round_trip(cliques):
    for clone in (
        pickle.loads(pickle.dumps(cliques)),
        copy.copy(cliques),
        copy.deepcopy(cliques),
        cliques.copy(),
    ):
        assert type(clone) is CliqueList and clone == cliques
        assert (clone.id_rows() is None) == (cliques.id_rows() is None)
        clone.pop()
        assert len(cliques) == len(CLIQUES)


def test_enumeration_result_equality_and_pickling():
    rows = EnumerationResult(cliques=rows_list())
    sets = EnumerationResult(cliques=sets_list())
    assert rows == sets
    assert rows != EnumerationResult(cliques=sets_list()[::-1])
    assert rows != EnumerationResult(
        cliques=sets_list(), stats=SearchStats(calls=1)
    )
    assert pickle.loads(pickle.dumps(rows)) == sets
    assert list(rows) == CLIQUES and len(rows) == len(CLIQUES)
    assert rows.as_sorted_sets() == sets.as_sorted_sets()


# ----------------------------------------------------------------------
# producers keep rows
# ----------------------------------------------------------------------
def test_kernel_collects_rows_and_streams_sets():
    graph = figure1_graph()
    kernel = PivotEnumerator(graph, 3, 0.1, PMUC_PLUS_CONFIG).run()
    reference = PivotEnumerator(
        graph, 3, 0.1, replace(PMUC_PLUS_CONFIG, backend="dict")
    ).run()
    assert kernel.cliques.id_rows() is not None
    assert reference.cliques.id_rows() is None
    assert kernel.cliques == reference.cliques
    streamed = []
    PivotEnumerator(
        graph, 3, 0.1, PMUC_PLUS_CONFIG, on_clique=streamed.append
    ).run()
    assert all(type(c) is frozenset for c in streamed)
    assert streamed == list(reference.cliques)


def test_partitioned_merge_concatenates_rows():
    graph = figure1_graph()
    merged = enumerate_parallel(graph, 3, 0.1, parts=3, processes=1)
    whole = PivotEnumerator(graph, 3, 0.1).run()
    assert merged.cliques.id_rows() is not None
    assert sorted(map(sorted, merged.cliques)) == sorted(
        map(sorted, whole.cliques)
    )


def test_store_hit_hands_over_the_parsed_rows(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    graph = figure1_graph()
    result = PivotEnumerator(graph, 3, 0.1).run()
    key = run_key_for(graph, 3, 0.1, PMUC_PLUS_CONFIG)
    store.put_run(
        key, stamped_record("test", 0.1, len(result.cliques)),
        cliques=result.cliques,
    )
    stored = store.get_run(key)
    replayed = stored.result()
    assert replayed.cliques is stored.cliques
    table, rows = replayed.cliques.id_rows()
    assert table == sorted(set().union(*result.cliques), key=repr)
    assert all(type(row) is list for row in rows)
    assert replayed.as_sorted_sets() == result.as_sorted_sets()


def test_serve_loop_hit_builds_no_clique(tmp_path, monkeypatch):
    loop = ServeLoop(EnumerationService(RunStore(str(tmp_path / "store"))))
    graph = figure1_graph()
    loop._graphs[("fig1", 0, "exponential")] = (
        graph, graph_fingerprint(graph)
    )
    requests = [
        {"op": "enumerate", "dataset": "fig1", "k": 3, "eta": 0.1,
         "procedure": procedure}
        for procedure in ("peel", "slice")
    ]
    misses = [loop.handle(request) for request in requests]
    built = []
    real = frozenset

    def counting(*args):
        built.append(args)
        return real(*args)

    for module in (store_module, stats_module):
        monkeypatch.setattr(module, "frozenset", counting, raising=False)
    for request, miss in zip(requests, misses):
        hit = loop.handle(request)
        assert hit["hit"] is True and miss["hit"] is False
        assert hit["cliques"] == miss["cliques"] > 0
    assert built == []


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
    st.lists(st.frozensets(vertex_labels, min_size=1, max_size=5),
             max_size=8),
    st.sets(vertex_labels, max_size=3),
    st.randoms(use_true_random=False),
)
def test_stored_rows_read_back_as_the_decoded_sets(cliques, extra, rng):
    blob = _encode_cliques(cliques)
    table, rows = _parse_table_lines(blob)
    expected = [frozenset(map(table.__getitem__, row)) for row in rows]
    decoded = _decode_cliques(blob)
    assert decoded.id_rows() == (table, rows)
    assert list(decoded) == expected
    assert all(type(c) is frozenset for c in decoded)
    assert sorted(map(sorted_reprs, decoded)) == sorted(
        map(sorted_reprs, cliques)
    )
    # Rows over any table — here a shuffled one with labels no clique
    # uses, like the kernel's rank order — encode to the same bytes.
    labels = list(set().union(*cliques, extra))
    rng.shuffle(labels)
    index = {label: i for i, label in enumerate(labels)}
    id_rows = []
    for clique in cliques:
        row = [index[v] for v in clique]
        rng.shuffle(row)
        id_rows.append(tuple(row))
    assert _encode_cliques(CliqueList.of_rows(labels, id_rows)) == blob


def sorted_reprs(clique):
    return sorted(map(repr, clique))

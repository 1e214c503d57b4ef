"""Fixture-driven tests for the repro-lint rule catalog.

Each rule gets at least one positive fixture (a minimal snippet the
rule must flag) and one negative fixture (the corrected idiom it must
accept) so both halves of the contract are pinned.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.registry import all_rules, get_rule
from repro.analysis.runner import run_rules
from repro.analysis.source import SourceFile

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(code, rule_id, path="fixture.py"):
    """Run one rule over a dedented snippet; returns kept findings."""
    src = SourceFile(path, textwrap.dedent(code))
    kept, _suppressed = run_rules([src], [get_rule(rule_id)])
    return kept


def assert_clean(code, rule_id):
    assert findings_for(code, rule_id) == []


def assert_flags(code, rule_id, count=1):
    found = findings_for(code, rule_id)
    assert len(found) == count, [f.format_text() for f in found]
    assert all(f.rule == rule_id for f in found)
    return found


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_has_the_full_catalog():
    ids = [r.id for r in all_rules()]
    assert ids == sorted(ids)
    assert set(ids) == {
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP010",
        "REP011", "REP012", "REP013", "REP014", "REP015",
    }


# ----------------------------------------------------------------------
# the seeded mutant corpus: one owner per reported line
# ----------------------------------------------------------------------
#: The lines each rule reports in each seeded fixture, with every rule
#: run on every file.  A rule losing a mutant, a second rule reporting
#: a line another rule owns, or any finding on the clean file fails.
CORPUS_OWNERS = {
    "flow_mutants/bitset_set_escape.py": {"REP011": [17, 23]},
    "flow_mutants/order_taint_chain.py": {"REP001": [15]},
    "flow_mutants/unrestored_reclimit.py": {"REP012": [13]},
    "flow_mutants/variant_log_linear_mix.py": {"REP010": [22]},
    "store_mutants/nondeterministic_key.py": {
        "REP015": [20, 26, 27, 33, 40, 46, 52],
    },
    "variant_mutants/clean_variants.py": {},
    "variant_mutants/dropped_emission.py": {"REP013": [36, 68]},
    "variant_mutants/hook_leak.py": {"REP013": [68, 68, 69]},
    "variant_mutants/reordered_stop.py": {"REP013": [78]},
    "variant_mutants/set_materialized.py": {"REP011": [39, 71]},
    "variant_mutants/unpicklable_frontier.py": {"REP014": [24, 29, 37]},
}
_CORPUS_FILES = sorted(
    set(CORPUS_OWNERS)
    | {
        path.relative_to(FIXTURES).as_posix()
        for family in ("flow_mutants", "variant_mutants", "store_mutants")
        for path in (FIXTURES / family).glob("*.py")
    }
)


@pytest.mark.parametrize("rel", _CORPUS_FILES)
def test_seeded_corpus_line_owners(rel):
    src = SourceFile.read(str(FIXTURES / rel))
    kept, _suppressed = run_rules([src], all_rules())
    owners = {}
    for finding in kept:
        owners.setdefault(finding.line, set()).add(finding.rule)
    assert {
        line: sorted(rules) for line, rules in owners.items()
        if len(rules) > 1
    } == {}
    found = {}
    for finding in kept:
        found.setdefault(finding.rule, []).append(finding.line)
    assert {rule_id: sorted(lines) for rule_id, lines in found.items()} == (
        CORPUS_OWNERS[rel]
    ), [f.format_text() for f in kept]


# ----------------------------------------------------------------------
# REP001 — nondeterministic iteration
# ----------------------------------------------------------------------
def test_rep001_flags_list_comprehension_over_set():
    assert_flags(
        """
        def f(graph):
            seen = {v for v in graph if v}
            return [v for v in seen]
        """,
        "REP001",
    )


def test_rep001_accepts_sorted_comprehension():
    assert_clean(
        """
        def f(graph):
            seen = {v for v in graph if v}
            return [v for v in sorted(seen)]
        """,
        "REP001",
    )


def test_rep001_accepts_order_insensitive_consumers():
    assert_clean(
        """
        def f(values):
            seen = set(values)
            total = sum(x * x for x in seen)
            return total, max(v for v in seen), len([]) and all(seen)
        """,
        "REP001",
    )


def test_rep001_flags_loop_feeding_append():
    assert_flags(
        """
        def f(values):
            chosen = set(values)
            out = []
            for v in chosen:
                out.append(v)
            return out
        """,
        "REP001",
    )


def test_rep001_flags_yield_inside_set_loop():
    assert_flags(
        """
        def f(values):
            for v in set(values):
                yield v
        """,
        "REP001",
    )


def test_rep001_flags_first_match_break():
    assert_flags(
        """
        def f(values):
            winner = None
            for v in frozenset(values):
                if v > 0:
                    winner = v
                    break
            return winner
        """,
        "REP001",
    )


def test_rep001_ignores_break_in_nested_loop_over_list():
    # The break belongs to the inner loop over an ordered list.
    assert_clean(
        """
        def f(values):
            acc = 0
            for v in set(values):
                for w in [1, 2, 3]:
                    if w == v:
                        break
                acc += v
            return acc
        """,
        "REP001",
    )


def test_rep001_loop_without_sink_or_break_is_fine():
    assert_clean(
        """
        def f(values):
            total = 0
            for v in set(values):
                total += v
            return total
        """,
        "REP001",
    )


def test_rep001_tracks_set_typed_names_through_binops():
    assert_flags(
        """
        def f(a, b):
            c = set(a) | set(b)
            return [v for v in c]
        """,
        "REP001",
    )


def test_rep001_tracks_containers_of_sets():
    assert_flags(
        """
        def f(graph):
            similar = {v: {u for u in graph[v]} for v in sorted(graph)}
            out = []
            for v in sorted(graph):
                for u in similar[v]:
                    out.append(u)
            return out
        """,
        "REP001",
    )


def test_rep001_flags_neighbors_iteration_with_sink():
    assert_flags(
        """
        def f(graph, v):
            out = []
            for u in graph.neighbors(v):
                out.append(u)
            return out
        """,
        "REP001",
    )


def test_rep001_reassignment_clears_set_type():
    assert_clean(
        """
        def f(values):
            c = set(values)
            c = sorted(c)
            return [v for v in c]
        """,
        "REP001",
    )


def test_rep001_inline_suppression_silences_the_finding():
    code = """
        def f(values):
            out = []
            # repro-lint: ok REP001 order does not matter here
            for v in set(values):
                out.append(v)
            return out
        """
    src = SourceFile("fixture.py", textwrap.dedent(code))
    kept, suppressed = run_rules([src], [get_rule("REP001")])
    assert kept == []
    assert len(suppressed) == 1


def test_suppression_for_other_rule_does_not_apply():
    code = """
        def f(values):
            out = []
            # repro-lint: ok REP002 wrong rule id
            for v in set(values):
                out.append(v)
            return out
        """
    src = SourceFile("fixture.py", textwrap.dedent(code))
    kept, suppressed = run_rules([src], [get_rule("REP001")])
    assert len(kept) == 1
    assert suppressed == []


# ----------------------------------------------------------------------
# REP002 — module-level randomness
# ----------------------------------------------------------------------
def test_rep002_flags_global_random_calls():
    assert_flags(
        """
        import random

        def f():
            return random.random() + random.randint(0, 5)
        """,
        "REP002",
        count=2,
    )


def test_rep002_accepts_injected_random_instance():
    assert_clean(
        """
        import random

        def f(seed):
            rng = random.Random(seed)
            return rng.random() + rng.randint(0, 5)
        """,
        "REP002",
    )


def test_rep002_flags_numpy_legacy_global_state():
    assert_flags(
        """
        import numpy as np

        def f():
            return np.random.rand(3)
        """,
        "REP002",
    )


def test_rep002_accepts_numpy_generator_construction():
    assert_clean(
        """
        import numpy as np

        def f(seed):
            rng = np.random.default_rng(seed)
            return rng.random(3)
        """,
        "REP002",
    )


def test_rep002_flags_from_import_of_global_rng_functions():
    assert_flags(
        """
        from random import shuffle
        """,
        "REP002",
    )


# ----------------------------------------------------------------------
# REP003 — float equality on probabilities
# ----------------------------------------------------------------------
def test_rep003_flags_probability_equality():
    assert_flags(
        """
        def f(p):
            if p == 0.5:
                return 1
            return 0
        """,
        "REP003",
    )


def test_rep003_flags_threshold_not_equal():
    assert_flags(
        """
        def f(value, threshold):
            return value != threshold
        """,
        "REP003",
    )


def test_rep003_accepts_inequalities_and_none_checks():
    assert_clean(
        """
        def f(p, eta):
            if p is None or p >= eta:
                return True
            return p <= 0.0
        """,
        "REP003",
    )


def test_rep003_ignores_non_probability_names():
    assert_clean(
        """
        def f(count, size):
            return count == size
        """,
        "REP003",
    )


# ----------------------------------------------------------------------
# REP004 — mutable defaults / bare except
# ----------------------------------------------------------------------
def test_rep004_flags_mutable_defaults():
    assert_flags(
        """
        def f(items=[], lookup={}):
            return items, lookup
        """,
        "REP004",
        count=2,
    )


def test_rep004_flags_mutable_constructor_default():
    assert_flags(
        """
        def f(items=list()):
            return items
        """,
        "REP004",
    )


def test_rep004_accepts_none_default():
    assert_clean(
        """
        def f(items=None):
            return list(items or ())
        """,
        "REP004",
    )


def test_rep004_flags_bare_except():
    assert_flags(
        """
        def f():
            try:
                return 1
            except:
                return 0
        """,
        "REP004",
    )


def test_rep004_accepts_typed_except():
    assert_clean(
        """
        def f():
            try:
                return 1
            except ValueError:
                return 0
        """,
        "REP004",
    )


# ----------------------------------------------------------------------
# REP014 — worker writes into parent state
# ----------------------------------------------------------------------
def test_rep014_flags_worker_mutating_global():
    assert_flags(
        """
        RESULTS = []

        def worker(job):
            global RESULTS
            RESULTS = [job]

        def run(pool, jobs):
            pool.map(worker, jobs)
        """,
        "REP014",
    )


def test_rep014_flags_worker_mutating_argument_attribute():
    assert_flags(
        """
        def worker(job):
            graph, stats = job
            stats.calls = 1
            return graph

        def run(pool, jobs):
            return pool.imap_unordered(worker, jobs)
        """,
        "REP014",
    )


def test_rep014_accepts_worker_returning_data():
    assert_clean(
        """
        def worker(job):
            graph, k = job
            local = {"calls": 0}
            local["calls"] += 1
            return local

        def run(pool, jobs):
            return pool.map(worker, jobs)
        """,
        "REP014",
    )


def test_rep014_ignores_undispatched_functions():
    # Mutating state is only a cross-process bug for dispatched workers.
    assert_clean(
        """
        STATE = []

        def helper(job):
            global STATE
            STATE = [job]
        """,
        "REP014",
    )


def test_rep014_reports_every_write_of_a_worker():
    # One finding per write, each at the dispatch boundary and naming
    # its own write, so fixing the first write cannot hide the second.
    found = assert_flags(
        """
        def worker(job):
            graph, stats = job
            stats.calls = 1
            stats.expansions = 2
            return graph

        def run(pool, jobs):
            return pool.map(worker, jobs)
        """,
        "REP014",
        count=2,
    )
    assert {f.line for f in found} == {9}
    assert any("attribute 'calls'" in f.message for f in found)
    assert any("attribute 'expansions'" in f.message for f in found)
    assert found[0].fingerprint != found[1].fingerprint

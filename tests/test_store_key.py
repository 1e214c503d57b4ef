"""RunKey canonicalization: the store's identity contract.

A stored run may only ever be served to a request whose *semantics*
match the producing run's — so every axis that changes the result (or
the counters, or the timing family) must change the key, and nothing
else may.  These tests pin each axis one by one.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core.config import PMUC_PLUS_CONFIG
from repro.datasets.figure1 import figure1_graph
from repro.store.key import (
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
from repro.uncertain import UncertainGraph


# ----------------------------------------------------------------------
# probability tokens
# ----------------------------------------------------------------------
def test_probability_token_is_type_tagged():
    assert probability_token(0.05) == "float:0.05"
    assert probability_token(Fraction(1, 20)) == "fraction:1/20"
    assert probability_token(1) == "int:1"
    # 0.05 != Fraction(1/20) as a *computation*: log-domain float vs
    # exact rational take different code paths with different rounding.
    assert probability_token(0.05) != probability_token(Fraction(1, 20))


def test_probability_token_rejects_bool():
    with pytest.raises(TypeError):
        probability_token(True)


def test_float_token_round_trips_through_repr():
    value = 0.1 + 0.2  # 0.30000000000000004: repr must be exact
    token = probability_token(value)
    assert float(token.split(":", 1)[1]) == value


def test_canonical_eta_distinguishes_numeric_types():
    assert canonical_eta(0.5) != canonical_eta(Fraction(1, 2))


# ----------------------------------------------------------------------
# graph fingerprints
# ----------------------------------------------------------------------
def shuffled_figure1():
    """Figure 1 rebuilt in reversed insertion order."""
    source = figure1_graph()
    edges = sorted(source.edges(), key=repr, reverse=True)
    g = UncertainGraph()
    for v in sorted(source.vertices(), key=repr, reverse=True):
        g.add_vertex(v)
    for u, v, p in edges:
        g.add_edge(u, v, p)
    return g


def test_fingerprint_is_independent_of_construction_order():
    assert graph_fingerprint(figure1_graph()) == graph_fingerprint(
        shuffled_figure1()
    )


def test_fingerprint_changes_with_one_edge_probability():
    g = figure1_graph()
    perturbed = figure1_graph()
    u, v, p = sorted(perturbed.edges(), key=repr)[0]
    perturbed.add_edge(u, v, p * 0.5)
    assert graph_fingerprint(g) != graph_fingerprint(perturbed)


def test_fingerprint_changes_with_an_isolated_vertex():
    g = figure1_graph()
    extended = figure1_graph()
    extended.add_vertex("isolated")
    assert graph_fingerprint(g) != graph_fingerprint(extended)


def test_fingerprint_distinguishes_probability_types():
    a = UncertainGraph()
    a.add_edge(0, 1, 0.5)
    b = UncertainGraph()
    b.add_edge(0, 1, Fraction(1, 2))
    assert graph_fingerprint(a) != graph_fingerprint(b)


# ----------------------------------------------------------------------
# the RunKey itself
# ----------------------------------------------------------------------
def test_run_key_digest_is_stable_and_round_trips():
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    again = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    assert key == again
    assert key.digest() == again.digest()
    assert RunKey.from_dict(key.as_dict()) == key


@pytest.mark.parametrize(
    "mutate",
    [
        lambda g, k, eta, c: (g, k + 1, eta, c),
        lambda g, k, eta, c: (g, k, eta / 2, c),
        lambda g, k, eta, c: (g, k, Fraction(1, 10), c),
        lambda g, k, eta, c: (g, k, eta, replace(c, pivot="first")),
        lambda g, k, eta, c: (g, k, eta, replace(c, reduction="off")),
        lambda g, k, eta, c: (g, k, eta, replace(c, ordering="as-is")),
    ],
)
def test_every_semantic_axis_changes_the_digest(mutate):
    base = run_key_for(
        figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG
    ).digest()
    g, k, eta, config = mutate(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    assert run_key_for(g, k, eta, config).digest() != base


def test_procedure_is_a_key_axis():
    peel = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    sliced = run_key_for(
        figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG, procedure="slice"
    )
    parts = run_key_for(
        figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG,
        procedure="peel/parts=2",
    )
    assert len({peel.digest(), sliced.digest(), parts.digest()}) == 3


def test_hooked_and_lean_variants_get_distinct_keys():
    lean = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    hooked = run_key_for(
        figure1_graph(), 3, 0.1,
        replace(PMUC_PLUS_CONFIG, sanitize="light"),
    )
    assert lean.variant == "lean"
    assert hooked.variant == "hooked"
    assert lean.digest() != hooked.digest()


@pytest.mark.parametrize(
    "overrides,expected",
    (
        # Lifecycle-only observation runs the lean variant, so it
        # shares the lean key instead of filing a second copy.
        ({"obs": "light"}, "lean"),
        ({"obs": "metrics"}, "hooked"),
        ({"obs": "full"}, "hooked"),
        ({"sanitize": "light"}, "hooked"),
        ({"sanitize": "light", "obs": "light"}, "hooked"),
    ),
)
def test_variant_class_follows_the_executed_variant(
    overrides, expected, monkeypatch
):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    config = replace(PMUC_PLUS_CONFIG, **overrides)
    assert variant_class(config) == expected
    key = run_key_for(figure1_graph(), 3, 0.1, config)
    assert key.variant == expected


def test_light_observation_shares_the_lean_key(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    lean = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    light = run_key_for(
        figure1_graph(), 3, 0.1, replace(PMUC_PLUS_CONFIG, obs="light")
    )
    assert light.digest() == lean.digest()


def test_reduction_override_changes_only_that_field():
    config = replace(PMUC_PLUS_CONFIG, reduction="off")
    plain = run_key_for(figure1_graph(), 3, 0.1, config)
    overridden = run_key_for(
        figure1_graph(), 3, 0.1, config, reduction="triangle"
    )
    assert plain.reduction == "off"
    assert overridden.reduction == "triangle"
    assert plain.as_dict().keys() == overridden.as_dict().keys()
    differing = [
        name
        for name in plain.as_dict()
        if plain.as_dict()[name] != overridden.as_dict()[name]
    ]
    assert differing == ["reduction"]


def test_dataset_fingerprint_short_circuit_matches_the_hash():
    graph = figure1_graph()
    fingerprint = graph_fingerprint(graph)
    direct = run_key_for(graph, 3, 0.1, PMUC_PLUS_CONFIG)
    shortcut = run_key_for(
        graph, 3, 0.1, PMUC_PLUS_CONFIG,
        dataset_fingerprint=fingerprint,
    )
    assert direct == shortcut


def test_engine_salt_is_memoized_and_folded_into_every_key():
    assert engine_salt() == engine_salt()
    key = run_key_for(figure1_graph(), 3, 0.1, PMUC_PLUS_CONFIG)
    assert key.salt == engine_salt()


def test_engine_salt_covers_the_drivers_that_shape_stored_counters():
    """The partition's chunking sets the effort counters of
    ``peel/parts=N`` runs and the session's slice those of ``slice``
    runs, so a change to either must retire the runs they stored."""
    from repro.engine.driver import engine_source_manifest

    names = [name for name, _source in engine_source_manifest()]
    assert "repro.core.partition" in names
    assert "repro.core.session" in names


# ----------------------------------------------------------------------
# reduction keys
# ----------------------------------------------------------------------
def test_reduction_key_ignores_k_but_not_eta():
    graph = figure1_graph()
    base = reduction_key_for(graph, 0.1)
    assert base == reduction_key_for(graph, 0.1)
    # No cross-eta reuse: shell values are functions of the threshold.
    assert base.digest() != reduction_key_for(graph, 0.05).digest()
    assert isinstance(base, ReductionKey)
    assert base.salt == engine_salt()

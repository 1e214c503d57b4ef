"""Kernel-backend parity: the bitset fast path is observationally
identical to the dict backend.

The kernel (``PivotConfig.backend = "kernel"``) re-implements the
pivot recursion over dense integer ids and big-int neighbor bitsets
with log-domain threshold tests.  Parity here is strict: for every
graph/config/k/eta the two backends must emit *exactly* the same
maximal clique sets and byte-identical :class:`SearchStats` counters —
the speedup must come from cheaper per-call work, never from a
different search tree.  Exact :class:`~fractions.Fraction` runs are
out of scope for the kernel and must fall back to the dict path
silently.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core import PMUC_PLUS_CONFIG, PivotConfig, PivotEnumerator
from repro.core.config import (
    KPIVOT_CHOICES,
    MPIVOT_CHOICES,
    PIVOT_CHOICES,
)
from repro.kernel.enumerate import supports
from repro.uncertain import UncertainGraph
from tests.conftest import brute_force_maximal_k_eta_cliques

CONFIGS = (
    PMUC_PLUS_CONFIG,
    PivotConfig(
        pivot="degree", kpivot="plain", ordering="degeneracy",
        reduction="off",
    ),
    PivotConfig(
        pivot="color", mpivot="basic", kpivot="off",
        ordering="degeneracy", reduction="triangle",
    ),
    PivotConfig(
        pivot="first", mpivot="off", kpivot="off", ordering="as-is",
        reduction="off",
    ),
)


def run_both(graph, k, eta, config, **kwargs):
    """Run the same enumeration on both backends."""
    dict_result = PivotEnumerator(
        graph, k=k, eta=eta, config=replace(config, backend="dict"),
        **kwargs,
    ).run()
    kernel_result = PivotEnumerator(
        graph, k=k, eta=eta, config=replace(config, backend="kernel"),
        **kwargs,
    ).run()
    return dict_result, kernel_result


def assert_parity(graph, k, eta, config, **kwargs):
    dict_result, kernel_result = run_both(graph, k, eta, config, **kwargs)
    assert set(dict_result.cliques) == set(kernel_result.cliques)
    assert dict_result.stats.__dict__ == kernel_result.stats.__dict__
    return dict_result, kernel_result


@st.composite
def float_uncertain_graphs(draw):
    """Random float-probability graphs with up to 16 vertices."""
    n = draw(st.integers(4, 16))
    seed = draw(st.integers(0, 10_000))
    density = draw(st.sampled_from([0.2, 0.4, 0.6]))
    rng = random.Random(seed)
    g = UncertainGraph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(u, v, round(rng.uniform(0.05, 1.0), 3))
    return g


@given(
    float_uncertain_graphs(),
    st.integers(1, 4),
    st.sampled_from((0.05, 0.25, 0.5)),
    st.sampled_from(CONFIGS),
)
@settings(max_examples=60, deadline=None)
def test_backends_agree_on_random_graphs(graph, k, eta, config):
    assert_parity(graph, k, eta, config)


def test_parity_on_denser_fixed_graph():
    """A denser fixed graph exercises deep recursions in both paths."""
    rng = random.Random(11)
    g = UncertainGraph()
    for u in range(40):
        for v in range(u + 1, 40):
            if rng.random() < 0.35:
                g.add_edge(u, v, rng.choice([0.35, 0.6, 0.85, 0.95]))
    for config in CONFIGS:
        for k, eta in ((2, 0.1), (3, 0.05), (4, 0.3)):
            assert_parity(g, k, eta, config)


def test_emission_order_matches():
    """Streaming sinks observe the same clique *sequence*, not just
    the same set: the kernel mirrors the recursion order exactly."""
    rng = random.Random(5)
    g = UncertainGraph()
    for u in range(25):
        for v in range(u + 1, 25):
            if rng.random() < 0.4:
                g.add_edge(u, v, round(rng.uniform(0.3, 1.0), 2))
    seen = {"dict": [], "kernel": []}
    for backend in ("dict", "kernel"):
        config = replace(PMUC_PLUS_CONFIG, backend=backend)
        PivotEnumerator(
            g, k=2, eta=0.1, config=config,
            on_clique=seen[backend].append,
        ).run()
    assert seen["dict"] == seen["kernel"]


def test_limit_truncates_identically():
    rng = random.Random(3)
    g = UncertainGraph()
    for u in range(30):
        for v in range(u + 1, 30):
            if rng.random() < 0.4:
                g.add_edge(u, v, round(rng.uniform(0.2, 1.0), 2))
    for config in CONFIGS[:2]:
        dict_result, kernel_result = run_both(
            g, 2, 0.1, config, limit=5
        )
        assert dict_result.cliques == kernel_result.cliques
        assert len(kernel_result.cliques) == 5
        assert dict_result.stats.__dict__ == kernel_result.stats.__dict__


def test_float_boundary_exactness():
    """Thresholds sitting exactly on representable float products must
    not be lost to the log-domain rewrite (the guard band replays the
    dict backend's float arithmetic for in-band decisions)."""
    g = UncertainGraph()
    for u, v in ((0, 1), (0, 2), (1, 2)):
        g.add_edge(u, v, 0.5)
    # Pr(triangle) = 0.125 exactly; eta == 0.125 must include it.
    for eta, expected in (
        (0.125, {frozenset({0, 1, 2})}),
        (0.2501, {frozenset({0, 1}), frozenset({0, 2}),
                  frozenset({1, 2})}),
    ):
        for config in CONFIGS:
            dict_result, kernel_result = assert_parity(g, 2, eta, config)
            assert set(kernel_result.cliques) == expected


#: Edge probabilities whose products are exact floats on the fuzzer's
#: graphs: with at most 8 vertices a clique has at most 28 edges, and
#: ``3**28 < 2**53``, so every product the dict backend forms is exact.
BOUNDARY_PROBABILITIES = (0.5, 0.75, 1.0)


@st.composite
def boundary_cases(draw):
    """A graph with one planted clique and an η at (or one ulp beside)
    its probability, so threshold tests land inside ``REL_GUARD``."""
    n = draw(st.integers(3, 8))
    order = draw(st.permutations(range(n)))
    planted = order[: draw(st.integers(2, n))]
    prob = st.sampled_from(BOUNDARY_PROBABILITIES)
    g = UncertainGraph()
    for v in range(n):
        g.add_vertex(v)
    base = Fraction(1)
    for i, u in enumerate(planted):
        for v in planted[i + 1:]:
            p = draw(prob)
            g.add_edge(u, v, p)
            base *= Fraction(p)
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and draw(st.booleans()):
                g.add_edge(u, v, draw(prob))
    eta = float(base)
    step = draw(st.sampled_from((-1, 0, 1)))
    if step and eta < 1.0:
        eta = math.nextafter(eta, 2.0 * step)
    config = PivotConfig(
        kpivot=draw(st.sampled_from(KPIVOT_CHOICES)),
        mpivot=draw(st.sampled_from(MPIVOT_CHOICES)),
        pivot=draw(st.sampled_from(PIVOT_CHOICES)),
    )
    return g, draw(st.integers(1, len(planted))), eta, config


def test_rel_guard_boundary_fuzz(monkeypatch):
    """Kernel (hooked and not) == dict == the exact ``Fraction`` oracle
    when clique products sit on the η threshold, and the in-band exact
    replays actually ran."""
    from repro.kernel.enumerate import KernelStateOps

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_OBS", raising=False)
    replays = {}

    def counting(name):
        real = getattr(KernelStateOps, name)

        def counted(self, w, r):
            replays[name] = replays.get(name, 0) + 1
            return real(self, w, r)

        return counted

    for name in ("_exact_accept", "_exact_x_member"):
        monkeypatch.setattr(KernelStateOps, name, counting(name))

    @given(boundary_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(case):
        g, k, eta, config = case
        exact = UncertainGraph()
        for v in g.vertices():
            exact.add_vertex(v)
        for u, v, p in g.edges():
            exact.add_edge(u, v, Fraction(p))
        oracle = {
            frozenset(c)
            for c in brute_force_maximal_k_eta_cliques(
                exact, k, Fraction(eta)
            )
        }
        runs = []
        for backend, sanitize, variant in (
            ("dict", "off", "generic"),
            ("kernel", "off", "bitset"),
            ("kernel", "full", "bitset+hooks"),
        ):
            enumerator = PivotEnumerator(
                g, k=k, eta=eta,
                config=replace(config, backend=backend, sanitize=sanitize),
            )
            result = enumerator.run()
            assert enumerator.variant_used == variant
            assert set(result.cliques) == oracle
            runs.append(result.stats.__dict__)
        assert runs[0] == runs[1] == runs[2]

    check()
    assert set(replays) == {"_exact_accept", "_exact_x_member"}, replays


def test_observer_metrics_match_across_backends():
    """The observability layer sees the *same search tree* from both
    backends: counters, gauges, and per-depth histograms must be
    identical (timers are wall-clock and are excluded)."""
    rng = random.Random(11)
    g = UncertainGraph()
    for u in range(30):
        for v in range(u + 1, 30):
            if rng.random() < 0.35:
                g.add_edge(u, v, rng.choice([0.35, 0.6, 0.85, 0.95]))
    for config in CONFIGS:
        views = {}
        for backend in ("dict", "kernel"):
            enumerator = PivotEnumerator(
                g, k=3, eta=0.1,
                config=replace(config, backend=backend, obs="metrics"),
            )
            enumerator.run()
            doc = enumerator.obs.metrics.as_dict()
            doc.pop("phases")  # measured seconds, backend-dependent
            views[backend] = doc
        assert views["dict"] == views["kernel"], config


def test_observer_sampled_stacks_match_across_backends():
    """Sampling is counter-based and the kernel translates its integer
    ids back to labels, so the folded flamegraph input — sampled
    recursion paths and weights — is byte-identical too."""
    rng = random.Random(5)
    g = UncertainGraph()
    for u in range(25):
        for v in range(u + 1, 25):
            if rng.random() < 0.4:
                g.add_edge(u, v, round(rng.uniform(0.3, 1.0), 2))
    folded = {}
    for backend in ("dict", "kernel"):
        enumerator = PivotEnumerator(
            g, k=2, eta=0.1,
            config=replace(
                PMUC_PLUS_CONFIG, backend=backend, obs="full"
            ),
        )
        enumerator.run()
        folded[backend] = enumerator.obs.folded.render()
    assert folded["dict"] == folded["kernel"]
    assert folded["dict"].startswith("enumerate")


def test_fraction_probabilities_fall_back_to_dict_path():
    """Exact-arithmetic graphs are unsupported by the kernel and must
    silently take the dict path with identical results."""
    g = UncertainGraph()
    g.add_edge("a", "b", Fraction(1, 2))
    g.add_edge("b", "c", Fraction(3, 4))
    g.add_edge("a", "c", Fraction(3, 4))
    assert not supports(g, Fraction(1, 4))
    dict_result, kernel_result = run_both(
        g, 2, Fraction(1, 4), PMUC_PLUS_CONFIG
    )
    assert set(kernel_result.cliques) == set(dict_result.cliques) == {
        frozenset({"a", "b", "c"})
    }
    assert dict_result.stats.__dict__ == kernel_result.stats.__dict__


def test_float_graph_fraction_eta_falls_back():
    """A float graph with a Fraction eta is also dict-path territory."""
    g = UncertainGraph()
    g.add_edge(0, 1, 0.9)
    g.add_edge(1, 2, 0.9)
    g.add_edge(0, 2, 0.9)
    assert not supports(g, Fraction(1, 2))
    dict_result, kernel_result = run_both(
        g, 2, Fraction(1, 2), PMUC_PLUS_CONFIG
    )
    assert set(kernel_result.cliques) == set(dict_result.cliques)
    assert dict_result.stats.__dict__ == kernel_result.stats.__dict__

"""Differential property test: both backends through the one engine.

With the recursion unified in :mod:`repro.engine.driver`, backend
parity is more than equal clique sets — the two ``StateOps``
implementations must drive the *same search tree*.  These tests record
the full sanitizer and observer hook streams the engine fires and
require them to be identical event-for-event across backends, on
randomized small graphs over varying ``k``, ``eta``, orderings and
pivot strategies.  An exact-:class:`~fractions.Fraction` ground truth
pins both backends to the brute-force oracle (and documents the
kernel's silent fall-back to the dict path on non-float inputs).

Payloads that intentionally live in backend-local spaces are excluded
from the comparison: the threaded ``q`` value (probability vs summed
negative logs), the ``on_context`` payload (labels vs rank ids), and
the live path list passed to ``obs.on_node``.  ``on_reduced`` is
compared as a set — both backends report original vertex labels, in
their own iteration order.
"""

import random
from fractions import Fraction

import pytest

from repro.core import PivotConfig, PivotEnumerator
from repro.kernel.enumerate import KernelStateOps, supports
from repro.obs.observer import RECURSION_HOOK_LEVELS
from repro.uncertain import UncertainGraph
from tests.conftest import (
    EXACT_PROBABILITIES,
    as_sorted_sets,
    brute_force_maximal_k_eta_cliques,
    random_uncertain_graph,
)


class RecordingObserver:
    """Observer stand-in: appends one tuple per engine hook call.

    ``recursion_hooks`` mirrors :attr:`repro.obs.observer.Observer
    .recursion_hooks`: true (the default) stands in for a
    ``metrics``/``full`` observer, which the engine binds into the
    recursion; false stands in for a lifecycle-only ``light`` one.
    """

    def __init__(self, recursion_hooks=True):
        self.recursion_hooks = recursion_hooks
        self.events = []

    def set_labels(self, labels):
        # Kernel wiring (id -> label table), not an engine event.
        pass

    def on_gauge(self, name, value):
        self.events.append(("gauge", name, value))

    def on_node(self, depth, r):
        # ``r`` is the live path list in backend-local vertex space;
        # only the tree shape is comparable.
        self.events.append(("node", depth))

    def on_emit(self, depth, size):
        self.events.append(("emit", depth, size))

    def on_expand(self, depth):
        self.events.append(("expand", depth))

    def on_prune(self, kind, depth, *detail):
        self.events.append(("prune", kind, depth) + detail)

    def on_phase(self, name, seconds):
        # Wall time is not comparable; the phase sequence is.
        self.events.append(("phase", name))

    def on_root(self, index, total, candidates):
        # ``candidates`` is the root frontier in backend-local form;
        # only the seed position and total are comparable.
        self.events.append(("root", index, total))

    def on_finish(self, stats):
        self.events.append(("finish",))


class RecordingSanitizer:
    """Sanitizer stand-in: records hook payloads in label space.

    The kernel backend wraps this in
    :class:`repro.sanitize.sanitizer.IdSanitizer`, which translates
    rank ids back to original labels before forwarding — so ``r``,
    ``unexpanded`` and ``periphery`` arrive comparable across backends.
    """

    def __init__(self):
        self.events = []

    def on_reduced(self, vertices):
        self.events.append(("reduced", frozenset(vertices)))

    def on_context(self, color, edges):
        # Payload lives in backend-local vertex space (labels vs rank
        # ids); only the event itself is comparable.
        self.events.append(("context",))

    def on_node(self, depth):
        self.events.append(("node", depth))

    def on_emit(self, r, value, log_domain):
        # ``value`` is the threaded q in the backend's numeric domain
        # (plain probability vs summed -log); only the clique compares.
        self.events.append(("emit", tuple(r)))

    def on_cover(self, depth, r, unexpanded, periphery):
        self.events.append(
            (
                "cover",
                depth,
                tuple(r),
                tuple(unexpanded),
                frozenset(periphery),
            )
        )

    def on_finish(self, complete):
        self.events.append(("finish", complete))


def run_recorded(graph, k, eta, config, monkeypatch, seeds=None):
    """One enumeration with recording hooks swapped into the engine."""
    import repro.obs.observer as observer_mod
    import repro.sanitize.sanitizer as sanitizer_mod

    obs = RecordingObserver()
    san = RecordingSanitizer()
    with monkeypatch.context() as m:
        # The engine imports both builders lazily inside run(), so the
        # module attributes are the single seam for every backend.
        m.setattr(observer_mod, "build_observer", lambda *a, **kw: obs)
        m.setattr(sanitizer_mod, "build_sanitizer", lambda *a, **kw: san)
        enumerator = PivotEnumerator(graph, k, eta, config)
        result = enumerator.run(seeds)
    return result, obs.events, san.events, enumerator.backend_used


def _random_case(seed):
    """Deterministic (graph, k, eta, config axes) for one seed."""
    rng = random.Random(9000 + seed)
    graph = random_uncertain_graph(
        seed=seed,
        n=rng.randint(6, 10),
        density=rng.choice((0.4, 0.55, 0.7)),
    )
    k = rng.randint(1, 4)
    eta = rng.choice((0.15, 0.3, 0.55))
    axes = dict(
        ordering=rng.choice(("as-is", "degeneracy", "topk-core")),
        pivot=rng.choice(("first", "degree", "color", "hybrid")),
        mpivot=rng.choice(("off", "basic", "improved")),
        kpivot=rng.choice(("off", "plain", "color")),
        reduction=rng.choice(("off", "core", "triangle")),
    )
    return graph, k, eta, axes


@pytest.mark.parametrize("seed", range(14))
def test_backends_drive_identical_search_trees(seed, monkeypatch):
    graph, k, eta, axes = _random_case(seed)
    assert supports(graph, eta)
    d_result, d_obs, d_san, d_used = run_recorded(
        graph, k, eta, PivotConfig(backend="dict", **axes), monkeypatch
    )
    k_result, k_obs, k_san, k_used = run_recorded(
        graph, k, eta, PivotConfig(backend="kernel", **axes), monkeypatch
    )
    # Guard against the comparison going vacuous through a silent
    # kernel fallback: both backends must actually have executed.
    assert d_used == "dict"
    assert k_used == "kernel"
    assert as_sorted_sets(d_result.cliques) == as_sorted_sets(
        k_result.cliques
    )
    assert d_result.stats.__dict__ == k_result.stats.__dict__
    assert d_obs == k_obs
    assert d_san == k_san
    # The streams are real: complete runs close both hook channels,
    # and any emitted clique implies the recursion actually ran.
    assert ("finish", True) in d_san
    assert any(event[0] == "gauge" for event in d_obs)
    if d_result.cliques:
        assert any(event[0] == "node" for event in d_obs)


@pytest.mark.parametrize("seed", (2, 5, 11))
def test_seed_restricted_runs_agree_event_for_event(seed, monkeypatch):
    # The partition/parallel drivers route per-seed slices through the
    # same engine; the hook streams must stay identical there too.
    graph, k, eta, axes = _random_case(seed)
    roots = sorted(graph.vertices())[:: 2]
    d_result, d_obs, d_san, d_used = run_recorded(
        graph, k, eta, PivotConfig(backend="dict", **axes), monkeypatch,
        seeds=roots,
    )
    k_result, k_obs, k_san, k_used = run_recorded(
        graph, k, eta, PivotConfig(backend="kernel", **axes), monkeypatch,
        seeds=roots,
    )
    assert d_used == "dict" and k_used == "kernel"
    assert as_sorted_sets(d_result.cliques) == as_sorted_sets(
        k_result.cliques
    )
    assert d_obs == k_obs
    assert d_san == k_san
    # A seed-restricted run is reported incomplete to the sanitizer.
    assert ("finish", False) in d_san


def test_event_streams_are_deterministic_across_repeat_runs(monkeypatch):
    graph, k, eta, axes = _random_case(3)
    first = run_recorded(
        graph, k, eta, PivotConfig(backend="kernel", **axes), monkeypatch
    )
    second = run_recorded(
        graph, k, eta, PivotConfig(backend="kernel", **axes), monkeypatch
    )
    assert first[1] == second[1]
    assert first[2] == second[2]


@pytest.mark.parametrize("seed", range(6))
def test_exact_fraction_ground_truth_on_both_backends(seed, monkeypatch):
    """Exact-arithmetic oracle: no float noise can hide a logic bug.

    Fraction inputs are outside the kernel's float domain, so the
    ``backend="kernel"`` run documents the silent dict fallback while
    still matching the brute-force result.
    """
    rng = random.Random(500 + seed)
    graph = UncertainGraph()
    n = rng.randint(5, 8)
    for v in range(n):
        graph.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.55:
                graph.add_edge(u, v, rng.choice(EXACT_PROBABILITIES))
    k = rng.randint(1, 3)
    eta = Fraction(rng.choice((1, 2, 5, 9)), 10)
    assert not supports(graph, eta)
    oracle = brute_force_maximal_k_eta_cliques(graph, k, eta)
    streams = []
    for backend in ("dict", "kernel"):
        result, obs_events, san_events, used = run_recorded(
            graph, k, eta, PivotConfig(backend=backend), monkeypatch
        )
        assert used == "dict"
        assert as_sorted_sets(result.cliques) == oracle
        streams.append((obs_events, san_events))
    # Both runs executed the same (dict) path: identical streams.
    assert streams[0] == streams[1]


# ----------------------------------------------------------------------
# compiled-variant matrix
# ----------------------------------------------------------------------
def run_variant_cell(graph, k, eta, config, monkeypatch):
    """One run with recorders injected only for the *enabled* hooks.

    Unlike :func:`run_recorded` (which always injects), disabled hook
    channels keep their real builders, which return None for an "off"
    config — so hook-off cells genuinely execute the production
    variants.
    """
    import repro.obs.observer as observer_mod
    import repro.sanitize.sanitizer as sanitizer_mod

    obs = (
        RecordingObserver(config.obs in RECURSION_HOOK_LEVELS)
        if config.obs != "off" else None
    )
    san = RecordingSanitizer() if config.sanitize != "off" else None
    with monkeypatch.context() as m:
        if obs is not None:
            m.setattr(observer_mod, "build_observer", lambda *a, **kw: obs)
        if san is not None:
            m.setattr(
                sanitizer_mod, "build_sanitizer", lambda *a, **kw: san
            )
        enumerator = PivotEnumerator(graph, k, eta, config)
        result = enumerator.run()
    return (
        result,
        obs.events if obs is not None else None,
        san.events if san is not None else None,
        enumerator,
    )


#: Observer events the run lifecycle fires at every level; a
#: lifecycle-only (``light``) observer must see nothing else.
LIFECYCLE_EVENTS = {"gauge", "root", "phase", "finish"}


@pytest.mark.parametrize("kpivot", ("off", "plain", "color"))
@pytest.mark.parametrize(
    "sanitize,obs",
    (
        ("off", "off"), ("full", "off"), ("off", "full"), ("full", "full"),
        ("off", "light"), ("full", "light"),
    ),
)
def test_variant_matrix_agrees_with_oracle(
    kpivot, sanitize, obs, monkeypatch
):
    """Every dispatcher cell: oracle cliques + cross-backend streams.

    The specializer must be invisible: whichever compiled variant a
    (backend, sanitize, obs, kpivot) cell selects, the clique set
    matches the brute-force oracle and both backends' hook streams
    stay identical event for event where hooks are enabled.  A
    ``light`` observer is lifecycle-only, so it never forces the
    hooked variant on its own.
    """
    graph = random_uncertain_graph(seed=77, n=9, density=0.55)
    k, eta = 2, 0.2
    assert supports(graph, eta)
    oracle = brute_force_maximal_k_eta_cliques(graph, k, eta)
    hooks_on = sanitize != "off" or obs in RECURSION_HOOK_LEVELS
    cells = {}
    for backend in ("dict", "kernel"):
        config = PivotConfig(
            backend=backend, sanitize=sanitize, obs=obs, kpivot=kpivot
        )
        result, obs_events, san_events, enumerator = run_variant_cell(
            graph, k, eta, config, monkeypatch
        )
        assert enumerator.backend_used == backend
        assert as_sorted_sets(result.cliques) == oracle
        # Each backend keeps its one shape; hooks only add the sites.
        assert enumerator.variant_used == (
            ("bitset" if backend == "kernel" else "generic")
            + ("+hooks" if hooks_on else "")
        )
        cells[backend] = (result, obs_events, san_events)
    d_result, d_obs, d_san = cells["dict"]
    k_result, k_obs, k_san = cells["kernel"]
    assert d_result.stats.__dict__ == k_result.stats.__dict__
    assert d_obs == k_obs
    assert d_san == k_san
    if obs in RECURSION_HOOK_LEVELS:
        assert any(event[0] == "node" for event in d_obs)
    elif obs != "off":
        assert {event[0] for event in d_obs} == LIFECYCLE_EVENTS
    if sanitize != "off":
        assert ("finish", True) in d_san


def test_large_search_graphs_keep_the_bitset_variant():
    """Past ~512 search vertices the kernel keeps the ``bitset``
    variant: one GenerateSet scan serves every graph width."""
    graph = UncertainGraph()
    n = 540
    for v in range(n):
        graph.add_vertex(v)
    for v in range(n):
        graph.add_edge(v, (v + 1) % n, 0.9)
    results = {}
    for backend in ("dict", "kernel"):
        for obs in ("off", "light"):
            config = PivotConfig(backend=backend, reduction="off", obs=obs)
            enumerator = PivotEnumerator(graph, k=1, eta=0.5, config=config)
            results[backend, obs] = enumerator.run()
            assert enumerator.backend_used == backend
            # A light observer is lifecycle-only: the kernel keeps the
            # production variant with it.
            assert enumerator.variant_used == (
                "bitset" if backend == "kernel" else "generic"
            )
    reference = results["dict", "off"]
    for result in results.values():
        assert as_sorted_sets(result.cliques) == as_sorted_sets(
            reference.cliques
        )
        assert result.stats.__dict__ == reference.stats.__dict__
    assert reference.stats.outputs == n


@pytest.mark.parametrize("obs", ["off", "metrics"])
def test_a_kernel_run_builds_its_hot_state_once(monkeypatch, obs):
    """The variant key reads the protocol; only the variant itself
    calls ``fast_ops``, once per run, hooked or not."""
    calls = []
    fast_ops = KernelStateOps.fast_ops

    def counted(self):
        calls.append(self)
        return fast_ops(self)

    monkeypatch.setattr(KernelStateOps, "fast_ops", counted)
    graph = random_uncertain_graph(5, 12, 0.5)
    config = PivotConfig(backend="kernel", obs=obs)
    enumerator = PivotEnumerator(graph, 3, 0.2, config=config)
    enumerator.run()
    assert enumerator.variant_used == (
        "bitset" if obs == "off" else "bitset+hooks"
    )
    assert len(calls) == 1


def test_backends_define_exactly_one_hot_path():
    """The kernel has no second, hooks-only state algebra."""
    from repro.core.pmuc import DictStateOps
    from repro.engine.protocol import StateOps, validate_state_ops
    from repro.kernel.enumerate import KernelStateOps

    graph, k, eta, axes = _random_case(2)
    config = PivotConfig(**axes)
    assert not hasattr(KernelStateOps, "search_ops")
    assert not hasattr(DictStateOps, "fast_ops")
    validate_state_ops(KernelStateOps(graph, k, eta, config))
    validate_state_ops(DictStateOps(graph, k, eta, config))

    class BothPaths(KernelStateOps):
        def search_ops(self):
            raise AssertionError("never called")

    with pytest.raises(TypeError, match="exactly one hot path"):
        validate_state_ops(BothPaths(graph, k, eta, config))
    bare = StateOps()
    bare.graph = graph
    with pytest.raises(TypeError, match="neither"):
        validate_state_ops(bare)


def test_recursion_limit_restored_when_build_search_raises(monkeypatch):
    """The raise-limit/restore pair survives a failing specializer."""
    import repro.engine.driver as driver

    graph, k, eta, axes = _random_case(1)
    calls = []

    def boom(*args, **kwargs):
        raise RuntimeError("specializer exploded")

    with monkeypatch.context() as m:
        m.setattr(driver.sys, "getrecursionlimit", lambda: 50)
        m.setattr(driver.sys, "setrecursionlimit", calls.append)
        m.setattr(driver, "build_search", boom)
        with pytest.raises(RuntimeError, match="specializer exploded"):
            PivotEnumerator(
                graph, k, eta, PivotConfig(backend="dict", **axes)
            ).run()
    # Raised once for the run, restored exactly once by the finally.
    assert len(calls) == 2
    assert calls[0] > 50
    assert calls[1] == 50


@pytest.mark.parametrize("backend", ("dict", "kernel"))
def test_finished_run_state_is_freed_without_a_gc_pass(backend):
    """The recursion's self-reference does not outlive the run.

    ``search`` reaches itself through a closure cell; left in place,
    that cycle pins the closure's state (and, through the sink, every
    emitted clique) until a full collection runs.
    """
    import gc
    import weakref

    class Sink:
        def __call__(self, clique):
            pass

    graph, k, eta, axes = _random_case(3)
    sink = Sink()
    freed = weakref.ref(sink)
    enumerator = PivotEnumerator(
        graph, k, eta, PivotConfig(backend=backend, **axes), on_clique=sink
    )
    gc.disable()
    try:
        enumerator.run()
        assert enumerator.backend_used == backend
        del enumerator, sink
        assert freed() is None
    finally:
        gc.enable()


def test_finished_kernel_ops_are_freed_without_a_gc_pass(monkeypatch):
    """Nothing the recursion binds refers back to the kernel's state
    algebra, so its graph and dense ``-log p`` rows go with the run."""
    import gc
    import weakref

    from repro.kernel.enumerate import KernelStateOps

    built = []
    real = KernelStateOps.prepare_reduction

    def spy(self):
        built.append(weakref.ref(self))
        return real(self)

    monkeypatch.setattr(KernelStateOps, "prepare_reduction", spy)
    graph, k, eta, axes = _random_case(3)
    enumerator = PivotEnumerator(
        graph, k, eta, PivotConfig(backend="kernel", **axes)
    )
    gc.disable()
    try:
        enumerator.run()
        assert enumerator.backend_used == "kernel"
        assert len(built) == 1
        assert built[0]() is None
    finally:
        gc.enable()

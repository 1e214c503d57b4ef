"""The kernel-over-dict floor gate and the communities-100 counter rule.

``python -m repro.bench.kernel_speedup`` times communities-100 on both
backends; its bounds are pinned here on synthetic timings, because a
clock is no tier-1 signal.  The search counters of the same workload
are deterministic, so they are pinned on both backends against
``BENCH_pr4.json`` with the rule ``repro.obs diff`` applies: outputs
exact, calls and expansions within ×1.02 + 2.
"""

from dataclasses import replace

import pytest

from repro.bench import kernel_speedup
from repro.bench.kernel_speedup import WORKLOADS, build_graph, gate_failures
from repro.core.config import PMUC_PLUS_CONFIG
from repro.core.pmuc import PivotEnumerator


def communities_100():
    spec = next(w for w in WORKLOADS if w["name"] == "communities-100")
    return build_graph(spec["params"]), spec["k"], spec["eta"]


@pytest.mark.parametrize("backend", ["dict", "kernel"])
def test_communities_100_counters_hold_the_bench_pr4_rule(backend):
    graph, k, eta = communities_100()
    config = replace(PMUC_PLUS_CONFIG, backend=backend)
    enumerator = PivotEnumerator(
        graph, k=k, eta=eta, config=config, on_clique=lambda _c: None
    )
    stats = enumerator.run().stats
    assert enumerator.backend_used == backend
    assert stats.outputs == 2910
    assert stats.calls <= 25037 * 1.02 + 2
    assert stats.expansions <= 24947 * 1.02 + 2


def test_gate_fails_on_a_parity_mismatch():
    failures = gate_failures({"dict": 0.30, "kernel": 0.15}, parity=False)
    assert failures == ["PARITY MISMATCH between backends"]


@pytest.mark.parametrize(
    "best_s, passes",
    [
        ({"dict": 0.302, "kernel": 0.2}, True),    # 1.51x
        ({"dict": 0.298, "kernel": 0.2}, False),   # 1.49x
        ({"dict": 1.0, "kernel": 0.4}, True),      # under 6 x 0.168 s
        ({"dict": 1.01, "kernel": 0.4}, False),
        ({"dict": 0.9, "kernel": 0.45}, True),     # under 6 x 0.0763 s
        ({"dict": 0.9, "kernel": 0.46}, False),
    ],
)
def test_gate_keeps_the_floor_and_the_time_bounds(best_s, passes):
    assert (gate_failures(best_s, parity=True) == []) is passes


def test_main_prints_one_row_and_exits_on_the_verdict(monkeypatch, capsys):
    seconds = {"dict": 0.30, "kernel": 0.15}
    order = []

    def fake_timed_run(graph, k, eta, backend):
        order.append(backend)
        return seconds[backend]

    monkeypatch.setattr(kernel_speedup, "timed_run", fake_timed_run)
    assert kernel_speedup.main([]) == 0
    out = capsys.readouterr().out
    # Three rounds, backend order alternating.
    assert order == ["dict", "kernel", "kernel", "dict", "dict", "kernel"]
    rows = [
        line for line in out.splitlines()
        if line.startswith("communities-100")
    ]
    assert len(rows) == 1
    assert "| 2910 " in rows[0]
    assert rows[0].split("|")[-1].strip() == "ok"

    seconds["kernel"] = 0.25
    monkeypatch.setattr(
        kernel_speedup, "parity_check", lambda *_args: (True, 2910)
    )
    assert kernel_speedup.main([]) == 1
    assert "below the 1.5x floor" in capsys.readouterr().out

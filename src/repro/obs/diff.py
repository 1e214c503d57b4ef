"""Trace-diff regression gating: compare two observation artifacts.

``python -m repro.obs diff BASELINE CURRENT`` aligns the runs of two
session metrics documents (``repro.obs/metrics-v1``, written to
``PATH.metrics.json`` by ``--trace-out PATH``) by their
``run<i>/<backend>`` key and flags:

* a **missing run** — a key present in the baseline but not in the
  current document;
* an **output drift** — ``outputs`` differs at all (clique counts are
  deterministic; any change is a correctness signal, not noise);
* a **counter regression** — any other search counter (``calls``,
  ``expansions``, ...) grew beyond ``--counter-threshold`` (default
  2%; counters are deterministic for a fixed workload, so the slack
  only absorbs intentional small algorithm changes);
* a **time regression** — the run's summed phase seconds grew beyond
  ``--time-threshold`` (default 50%; wall-clock comparisons cross
  machines, so the gate is generous by design and the counters carry
  the precision).

Documents are refused outright (exit 2, like any unusable input) when
the two sides ran on disjoint backends — dict-vs-kernel wall clocks are
not comparable, and the per-key alignment would otherwise report every
run as missing.  The same refusal applies per aligned run when both
sides carry a recursion **variant** stamp (see
:func:`repro.engine.driver.variant_id`) and the stamps disagree: a
hooked variant's wall clock is not comparable to the production
closure's, so e.g. an ``--obs full`` re-run must never be gated against
an obs-off baseline.  Artifacts predating the stamp (``variant``
absent) are always accepted.

A **cross-platform** compare (both documents carry a
python/platform fingerprint — see :mod:`repro.obs.runtime` — and they
disagree) only *warns*: the deterministic counters still gate, but the
wall-clock numbers cross machines, so the warning tells the reader
which side of the threshold to trust.  Artifacts without fingerprints
compare silently, as before.

Exit status: 0 clean, 1 regression found, 2 unusable input.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.report import load_artifact

#: Counters whose growth beyond the threshold is a regression.  The
#: complement (prune/skip counters) shrinking is what a *lost*
#: optimization looks like, which shows up here as ``calls`` /
#: ``expansions`` growth — gating on effort, not on technique.
_EFFORT_COUNTERS = ("calls", "expansions")

#: Absolute slack added on top of the relative counter threshold, so
#: near-zero baselines do not flag one-unit jitter as a regression.
_COUNTER_SLACK = 2

DEFAULT_TIME_THRESHOLD = 1.5
DEFAULT_COUNTER_THRESHOLD = 1.02


class Series:
    """One comparable run: a key, optional seconds, counter dict.

    ``backend`` is the stamped execution backend of the run and
    ``variant`` the stamped recursion variant (either None on
    artifacts predating the stamps); :func:`compare` refuses to gate
    one backend's or variant's numbers against another's.
    """

    def __init__(self, key: str, seconds: Optional[float],
                 counters: Dict[str, int],
                 backend: Optional[str] = None,
                 variant: Optional[str] = None) -> None:
        self.key = key
        self.seconds = seconds
        self.counters = counters
        self.backend = backend
        self.variant = variant


def extract_series(kind: str, payload) -> List[Series]:
    """Comparable series from a loaded artifact (see ``load_artifact``)."""
    if kind != "metrics":
        raise ValueError(
            "%s files carry no comparable counters; diff the session "
            "metrics documents (PATH.metrics.json) instead" % kind
        )
    series = []
    for run in payload.get("runs", []):
        metrics = run.get("metrics", {})
        phases = metrics.get("phases", {})
        seconds = sum(phases.values()) if phases else None
        series.append(Series(
            "run%s/%s" % (run.get("index"), run.get("backend")),
            seconds,
            dict(metrics.get("counters", {})),
            run.get("backend"),
            run.get("variant"),
        ))
    return series


def load_series(path: str) -> List[Series]:
    """Load ``path`` and extract its comparable series."""
    kind, payload = load_artifact(path)
    return extract_series(kind, payload)


def env_of(record) -> Dict[str, str]:
    """The python/platform fingerprint under ``record["env"]``, if any.

    A session stamps it on the whole document.  Documents predating
    the stamp return an empty dict and never trigger the warning.
    """
    env = record.get("env") if isinstance(record, dict) else None
    if not isinstance(env, dict):
        return {}
    return {
        key: str(env[key])
        for key in ("platform", "python")
        if env.get(key) is not None
    }


def platform_warning(
    base_env: Dict[str, str], run_env: Dict[str, str]
) -> Optional[str]:
    """A warning line when both sides say where they ran and disagree."""
    drift = [
        "%s %s -> %s" % (key, base_env[key], run_env[key])
        for key in ("python", "platform")
        if key in base_env and key in run_env
        and base_env[key] != run_env[key]
    ]
    if not drift:
        return None
    return (
        "warning: cross-platform compare (%s); wall-clock numbers "
        "cross machines — trust the deterministic counters, not the "
        "time thresholds" % "; ".join(drift)
    )


def compare(
    baseline: List[Series],
    current: List[Series],
    time_threshold: float = DEFAULT_TIME_THRESHOLD,
    counter_threshold: float = DEFAULT_COUNTER_THRESHOLD,
    only_common: bool = False,
) -> Tuple[List[str], List[str]]:
    """Compare aligned series; return ``(log_lines, regressions)``.

    ``only_common`` downgrades a baseline run missing from the current
    document from a regression to a log line — for gating a *partial*
    re-run against a full baseline.  Runs present on both sides are
    still fully compared.
    """
    base_backends = {s.backend for s in baseline if s.backend}
    run_backends = {s.backend for s in current if s.backend}
    if base_backends and run_backends and not (base_backends & run_backends):
        # Dict and kernel runs have identical clique sets and search
        # counters but wildly different wall-clock profiles; a
        # cross-backend "comparison" would gate noise.  Refuse loudly
        # (the CLI maps this to exit 2) instead of reporting every run
        # as missing.
        raise ValueError(
            "cross-backend comparison: baseline ran on %s but current "
            "ran on %s; re-run the benchmark on the same backend "
            "before diffing"
            % (
                "/".join(sorted(base_backends)),
                "/".join(sorted(run_backends)),
            )
        )
    lines: List[str] = []
    regressions: List[str] = []
    current_by_key = {series.key: series for series in current}
    compared = 0
    for base in baseline:
        run = current_by_key.get(base.key)
        if run is None:
            if only_common:
                lines.append("%s: not in current, skipped" % base.key)
            else:
                regressions.append("%s: missing from current" % base.key)
            continue
        if (
            base.variant is not None
            and run.variant is not None
            and base.variant != run.variant
        ):
            # A hooked variant's wall clock is not comparable to the
            # production closure's.  Refuse (exit 2) rather than gate
            # noise; unstamped legacy artifacts never reach here.
            raise ValueError(
                "cross-variant comparison on %s: baseline ran variant "
                "%s but current ran %s; re-run with matching "
                "sanitize/obs settings before diffing"
                % (base.key, base.variant, run.variant)
            )
        compared += 1
        lines.extend(_compare_run(
            base, run, time_threshold, counter_threshold, regressions
        ))
    baseline_keys = {series.key for series in baseline}
    for series in current:
        if series.key not in baseline_keys:
            lines.append("%s: new run (no baseline)" % series.key)
    if only_common and baseline and not compared:
        # An empty intersection must not read as a clean gate.
        regressions.append(
            "no common runs between baseline and current"
        )
    return lines, regressions


def _compare_run(base, run, time_threshold, counter_threshold,
                 regressions) -> List[str]:
    lines = []
    base_outputs = base.counters.get("outputs")
    run_outputs = run.counters.get("outputs")
    if (
        base_outputs is not None
        and run_outputs is not None
        and base_outputs != run_outputs
    ):
        regressions.append(
            "%s: outputs changed %s -> %s (clique counts are "
            "deterministic; investigate before re-baselining)"
            % (base.key, base_outputs, run_outputs)
        )
    for name in _EFFORT_COUNTERS:
        base_value = base.counters.get(name)
        run_value = run.counters.get(name)
        if base_value is None or run_value is None:
            continue
        allowed = base_value * counter_threshold + _COUNTER_SLACK
        if run_value > allowed:
            regressions.append(
                "%s: %s grew %s -> %s (>%.0f%% threshold)"
                % (base.key, name, base_value, run_value,
                   (counter_threshold - 1.0) * 100.0)
            )
        else:
            lines.append(
                "%s: %s %s -> %s ok"
                % (base.key, name, base_value, run_value)
            )
    if base.seconds is not None and run.seconds is not None:
        if base.seconds > 0 and run.seconds > base.seconds * time_threshold:
            regressions.append(
                "%s: seconds grew %.4f -> %.4f (>%.0f%% threshold)"
                % (base.key, base.seconds, run.seconds,
                   (time_threshold - 1.0) * 100.0)
            )
        else:
            lines.append(
                "%s: seconds %.4f -> %.4f ok"
                % (base.key, base.seconds, run.seconds)
            )
    return lines


def diff_paths(
    baseline_path: str,
    current_path: str,
    time_threshold: float = DEFAULT_TIME_THRESHOLD,
    counter_threshold: float = DEFAULT_COUNTER_THRESHOLD,
    only_common: bool = False,
) -> Tuple[List[str], List[str]]:
    """File-level entry point used by the CLI and CI gate."""
    base_kind, base_payload = load_artifact(baseline_path)
    run_kind, run_payload = load_artifact(current_path)
    lines, regressions = compare(
        extract_series(base_kind, base_payload),
        extract_series(run_kind, run_payload),
        time_threshold=time_threshold,
        counter_threshold=counter_threshold,
        only_common=only_common,
    )
    warning = platform_warning(
        env_of(base_payload), env_of(run_payload)
    )
    if warning is not None:
        # One warning per invocation, however many rows crossed the
        # machine boundary.
        lines.insert(0, warning)
    return lines, regressions

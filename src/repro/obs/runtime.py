"""Process-level runtime facts: peak RSS and platform fingerprints.

Two kinds of numbers keep showing up next to enumeration metrics and
keep being subtly wrong when taken ad hoc:

* **peak RSS** — ``tracemalloc`` (used by the memory benchmark) only
  sees Python allocations; the kernel backend's bitsets and the spawn
  workers' graph copies live below it.  ``resource.getrusage`` reports
  the real high-water mark the operating system charged the process.
* **platform fingerprints** — wall-clock comparisons across machines
  or interpreter versions are noise, so every artifact says where it
  ran.

Both helpers degrade to ``None``/empty values instead of raising, so
artifact writers can stamp them unconditionally.
"""

from __future__ import annotations

import platform
import sys
from typing import Dict, Optional


def peak_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process in bytes, or None.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalized
    here so every artifact carries bytes.  Returns None on platforms
    without the ``resource`` module (e.g. Windows).
    """
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def runtime_fingerprint() -> Dict[str, str]:
    """Where this process runs: interpreter version and platform."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_env() -> Dict[str, object]:
    """The full per-run environment stamp for bench records."""
    env: Dict[str, object] = {"peak_rss_bytes": peak_rss_bytes()}
    env.update(runtime_fingerprint())
    return env

"""The backend-agnostic search engine.

One recursion, many state representations: :mod:`repro.engine.driver`
holds the single copy of the paper's pivot search (Algorithm 3 with
the M-/K-pivot stopping rules), and :mod:`repro.engine.protocol`
defines the narrow ``StateOps`` surface a backend implements to plug
in.  See ``docs/architecture.md`` for the layering diagram and the
"adding a backend" recipe.
"""

from repro.engine.driver import SearchEngine, build_search
from repro.engine.protocol import (
    PROTOCOL_ATTRS,
    PROTOCOL_METHODS,
    SEARCH_OPS,
    SearchOps,
    StateOps,
    validate_state_ops,
)

__all__ = [
    "PROTOCOL_ATTRS",
    "PROTOCOL_METHODS",
    "SEARCH_OPS",
    "SearchEngine",
    "SearchOps",
    "StateOps",
    "build_search",
    "validate_state_ops",
]
